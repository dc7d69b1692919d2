"""Runs the program for the benchmark, in a fresh interpreter.

    python3 bench/worker.py < request     (request and reply are marshal data)

The parent (``run.py``) sends one request on stdin and reads one reply from
stdout.  Before the set-up clock starts this process has imported only
modules that ``basediv`` does not use, so the clock sees the whole cost of
``import basediv``.  Modes:

- ``setup``: import, build contexts, lattices and types, make the warm-up
  calls, and report the set-up time.
- ``run``: the same set-up, then whole rounds of the workload's operations,
  each timed alone, until ``seconds`` have passed (and at least
  ``min_rounds``).  Round 0's outputs are sent back for checking; every later
  output is compared with round 0's outside the timer.
- ``trace``: see ``tracer.traced_pass``.

The ``lib`` workload is built from three parts, which the traced run also
uses: ``lib-warm`` (classify and reflect_into_bk on parsed contexts),
``lib-cold`` (parse a Generic-type context from JSON text, then classify)
and ``enumerate`` (box enumeration).
"""

import marshal
import os
import sys
import time
from array import array


def _dec(res):
    return None if res is None else (res.m, res.L, res.F, res.d)


def _walk(res):
    return (res.result, res.steps)


def _same(res):
    return res


def setup(B, workload, spec):
    """Build what the timed operations need and make the warm-up calls."""
    if workload == "lib":
        return (setup(B, "lib-warm", spec["warm"]), setup(B, "lib-cold", spec["cold"]),
                setup(B, "enumerate", spec["enumerate"]), spec["warm_passes"])
    if workload == "lib-warm":
        contexts = [B.GeometricContext.from_json_dict(p) for p in spec["contexts"]]
        state = [(kind, contexts[ci], vec) for kind, ci, vec in spec["ops"]]
        for fn, args, _ in make_ops(B, workload, state):
            fn(*args)
        return state
    if workload == "lib-cold":
        import json  # the parse path of a caller holding JSON text

        text, h = spec["warmup"]
        B.classify(B.GeometricContext.from_json_dict(json.loads(text)), h)
        return [(spec["texts"][i], h) for _, i, h in spec["ops"]]
    if workload == "enumerate":
        state = []
        for name, blocks, bound, square, ample in spec["ops"]:
            lat = B.direct_sum(*[B.hyperbolic_plane() if b[0] == "U" else B.rank_one(b[1]) for b in blocks])
            state.append((name, lat, bound, square, ample))
        B.enumerate_vectors(B.hyperbolic_plane(), 0, 1)
        return state
    if workload == "cli":
        import basediv.cli  # noqa: F401  (the in-process front end of the traced run)

        return spec["ops"]
    raise SystemExit(f"unknown workload {workload!r}")


def make_ops(B, workload, state):
    """(callable, args, output converter) per operation of one round, bound
    to the functions B exposes now (traced or not)."""
    if workload == "lib":
        warm, cold, enum, passes = state
        ((stream, _, stream_out),) = make_ops(B, "lib-warm", warm)
        enum_ops = make_ops(B, "enumerate", enum)
        ops = []
        for k, (c_fn, c_args, c_conv) in enumerate(make_ops(B, "lib-cold", cold)):
            e_fn, e_args, e_conv = enum_ops[k % len(enum_ops)]

            def request(c_fn=c_fn, c_args=c_args, e_fn=e_fn, e_args=e_args):
                return [stream() for _ in range(passes)], c_fn(*c_args), e_fn(*e_args)

            def outputs(res, c_conv=c_conv, e_conv=e_conv):
                return tuple(stream_out(w) for w in res[0]), c_conv(res[1]), e_conv(res[2])

            ops.append((request, (), outputs))
        return ops
    if workload == "lib-warm":
        # one pass of the whole stream of calls
        calls = [
            (B.classify, ctx, vec, _dec) if kind == "classify" else (B.reflect_into_bk, ctx, vec, _walk)
            for kind, ctx, vec in state
        ]

        def stream():
            return [fn(ctx, vec) for fn, ctx, vec, _ in calls]

        def outputs(results):
            return tuple(conv(res) for (_, _, _, conv), res in zip(calls, results))

        return [(stream, (), outputs)]
    if workload == "lib-cold":
        import json

        parse, classify = B.GeometricContext.from_json_dict, B.classify

        def cold(text, h):
            return classify(parse(json.loads(text)), h)

        return [(cold, item, _dec) for item in state]
    if workload == "enumerate":
        return [
            (B.enumerate_vectors, (lat, square, bound), _same) if name == "enumerate_vectors"
            else (B.k3_ped_candidates, (lat, bound, ample), _same)
            for name, lat, bound, square, ample in state
        ]
    import contextlib
    import io
    import traceback

    registry = getattr(B.riemann_roch, "_registry", {})
    main = B.cli.main

    def call(argv):
        # an empty type registry, as a fresh basediv process starts with
        registry.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(list(argv))
            except Exception:
                # what the interpreter does with an uncaught exception
                traceback.print_exc()
                rc = 1
        return rc, out.getvalue(), err.getvalue()

    return [(call, (argv,), _same) for argv in state]


def timed_rounds(ops, min_rounds, seconds):
    """Run whole rounds until `seconds` have passed and at least `min_rounds`
    are done; returns (latencies_ns, round-0 outputs, mismatches)."""
    clock = time.perf_counter_ns
    lat = array("q")
    refs = [None] * len(ops)
    bad = []
    end = clock() + int(seconds * 1e9)
    r = 0
    while r < min_rounds or clock() < end:
        for i, (fn, args, conv) in enumerate(ops):
            t0 = clock()
            res = fn(*args)
            t1 = clock()
            lat.append(t1 - t0)
            out = conv(res)
            if r == 0:
                refs[i] = out
            elif out != refs[i]:
                bad.append((r, i))
        r += 1
    return lat, refs, bad


def extras(B, state, refs):
    """chi at q(H) of every classified class; for the warm stream also the
    answer for 2H of every H with a base divisor (2H at q(H) near 1e4 would
    cost seconds).  Computed after the timed loop."""
    warm, cold, _, _ = state
    warm_out = []
    for (kind, ctx, vec), ref in zip(warm, refs[0][0][0]):
        if kind != "classify":
            warm_out.append(None)
            continue
        extra = {"chi": B.rr_eval(ctx.dtype, B.square(ctx.lat, vec))}
        if ref is not None:
            extra["double"] = _dec(B.classify(ctx, tuple(2 * x for x in vec)))
        warm_out.append(extra)
    import json

    cold_out = []
    for text, h in cold:
        ctx = B.GeometricContext.from_json_dict(json.loads(text))
        cold_out.append({"chi": B.rr_eval(ctx.dtype, B.square(ctx.lat, h))})
    return {"warm": warm_out, "cold": cold_out}


def peak_rss_kib():
    """Peak resident memory of this process (VmHWM).  ru_maxrss is not used:
    after exec it still holds the parent's resident size at fork time."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


def main():
    req = marshal.loads(sys.stdin.buffer.read())
    src = os.path.join(req["root"], "src")
    workload = req["workload"]
    t0 = time.perf_counter()
    import basediv as B

    if os.path.dirname(os.path.dirname(os.path.abspath(B.__file__))) != os.path.abspath(src):
        raise SystemExit(f"basediv was imported from {B.__file__}, not from {src}")
    if req["mode"] == "trace":
        import tracer

        reply = tracer.traced_pass(B, req, setup, make_ops, timed_rounds)
        sys.stdout.buffer.write(marshal.dumps(reply))
        return
    state = setup(B, workload, req["spec"])
    setup_s = time.perf_counter() - t0
    if req["mode"] == "setup":
        reply = {"setup_s": setup_s}
    elif req["mode"] == "run":
        lat, refs, bad = timed_rounds(make_ops(B, workload, state), req["min_rounds"], req["seconds"])
        reply = {
            "setup_s": setup_s,
            "lat_ns": lat.tobytes(),
            "refs": refs,
            "bad": bad,
            "extras": extras(B, state, refs),
            "maxrss_kib": peak_rss_kib(),
        }
    else:
        raise SystemExit(f"unknown mode {req['mode']!r}")
    sys.stdout.buffer.write(marshal.dumps(reply))


if __name__ == "__main__":
    main()
