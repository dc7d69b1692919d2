"""Exact-arithmetic lattice computations for hyperkahler-type geometry.

Integral quadratic-form arithmetic (pairing, divisibility, enumeration),
Riemann-Roch polynomials of the K3^[n] and Kum^n deformation families,
prime-exceptional reflections with a terminating cone walk, and a classifier
deciding whether a big-and-nef class carries a base divisor H = m*L + F.
All computation is arbitrary-precision integer / exact rational; there is no
floating point anywhere.
"""

from .classifier import (
    Decomposition,
    NumericalNLType,
    classification_report,
    classify,
    kumn_nonexistence_search,
    nl_numerical_types,
    verify_decomposition,
)
from .cones import (
    ContextCheck,
    GeometricContext,
    ReflectionTrace,
    in_bk_closure,
    in_positive_cone,
    k3_ped_candidates,
    ped_inequality_check,
    rank2_exceptional_scan,
    reflect,
    reflect_into_bk,
    run_context_checks,
    validate_context_payload,
)
from .errors import (
    BasedivError,
    CapabilityError,
    ConsistencyError,
    DomainError,
    HypothesisError,
    IntegralityError,
    StructuralError,
)
from .lattice import (
    Lattice,
    Vec,
    direct_sum,
    divisibility,
    enumerate_vectors,
    hyperbolic_plane,
    is_primitive,
    pairing,
    rank_one,
    square,
)
from .riemann_roch import (
    GENERIC,
    K3N,
    KUMN,
    DeformationType,
    RRPolynomial,
    check_strict_monotonic,
    deformation_from_json_dict,
    invert_binomial,
    make_type,
    rr_eval,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
