"""fracmirror: mirror symmetry of branched double covers from nef-partitions.

Exact-arithmetic tooling for the polytope duality (nef-partitions and their
duals), the topological test (Euler characteristics and Hodge numbers of the
covers), and the quantum test (GKZ systems, Picard–Fuchs operators, mirror
maps, Yukawa couplings, and cohomology-valued I-functions).
"""

from .errors import FracmirrorError, InvalidNefPartition, SmoothnessError
from .polytope import LatticePolytope
from .nefpart import NefPartition, dual_nef_partition, validate_nef_partition
from .topology import (
    CoverTopology,
    HodgeTable,
    euler_double_cover,
    hodge_numbers,
)
from .series import RationalSeries, fraction_str, parse_fraction
from .gkz import GkzSystem, build_gkz, simplex_kernel_vector
from .picard_fuchs import (
    ThetaOperator,
    theta_conjugate,
)
from .mirror import (
    FrobeniusPair,
    YukawaData,
    a_model_correlation,
    frobenius_pair,
    mirror_map,
    yukawa_z,
)
from .cohom import (
    b_series,
    deformed_solution,
    i_function_mirror_map,
    i_function_untwisted,
    i_weights_from_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "FracmirrorError",
    "InvalidNefPartition",
    "SmoothnessError",
    "LatticePolytope",
    "NefPartition",
    "dual_nef_partition",
    "validate_nef_partition",
    "CoverTopology",
    "HodgeTable",
    "euler_double_cover",
    "hodge_numbers",
    "RationalSeries",
    "fraction_str",
    "parse_fraction",
    "GkzSystem",
    "build_gkz",
    "simplex_kernel_vector",
    "ThetaOperator",
    "theta_conjugate",
    "FrobeniusPair",
    "YukawaData",
    "a_model_correlation",
    "frobenius_pair",
    "mirror_map",
    "yukawa_z",
    "b_series",
    "deformed_solution",
    "i_function_mirror_map",
    "i_function_untwisted",
    "i_weights_from_kernel",
]
