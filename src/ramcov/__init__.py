"""Exact-arithmetic invariants and degree bounds for branched covers of fibred surfaces.

The package computes, from purely numerical input, the resolution data of
cyclic quotient singularities, the local classification of a cover at a
normal crossing, and the full invariant chain of a branched cover of a
fibred surface down to the degree of the determinant of cohomology on the
base curve, together with certified linear and fibration-type bounds for
that degree.  Everything except one flagged logarithm is exact.
"""

__version__ = "0.1.0"

from .errors import EnumerationLimitError, InputFormatError, InvalidInputError
from .golden import double_cover, identity_cover, power_map_cover, square_base
from .hj import (
    HJChain,
    ResolutionData,
    SingularityType,
    discrepancies,
    hj_evaluate,
    hj_expand,
    resolve,
)
from .invariants import (
    BoundCertificate,
    BoundTerm,
    FibrationInputs,
    InvariantReport,
    arakelov_degree_bound,
    deg_det,
    degree_linear_certificate,
    height_log_decimal,
    invariant_report,
    linear_coefficient,
    plane_model_height_log,
)
from .loader import dumps_document, load_cover_path, parse_cover_json
from .local_cover import (
    LatticeSubgroup,
    LocalCoverType,
    canonical_basis,
    enumerate_subgroups,
    local_type,
)
from .model import (
    BaseGeometry,
    BranchComponent,
    CoverDescription,
    Crossing,
    PointAbove,
    RamSheet,
    Violation,
    derived_euler_data,
    validate,
)
from .verify import hj_sweep, lattice_sweep

__all__ = [
    "__version__",
    "EnumerationLimitError",
    "InputFormatError",
    "InvalidInputError",
    "SingularityType",
    "HJChain",
    "ResolutionData",
    "hj_expand",
    "hj_evaluate",
    "discrepancies",
    "resolve",
    "LatticeSubgroup",
    "LocalCoverType",
    "canonical_basis",
    "local_type",
    "enumerate_subgroups",
    "BaseGeometry",
    "BranchComponent",
    "Crossing",
    "CoverDescription",
    "RamSheet",
    "PointAbove",
    "Violation",
    "validate",
    "derived_euler_data",
    "parse_cover_json",
    "load_cover_path",
    "dumps_document",
    "InvariantReport",
    "BoundTerm",
    "BoundCertificate",
    "FibrationInputs",
    "deg_det",
    "invariant_report",
    "degree_linear_certificate",
    "linear_coefficient",
    "arakelov_degree_bound",
    "plane_model_height_log",
    "height_log_decimal",
    "square_base",
    "identity_cover",
    "power_map_cover",
    "double_cover",
    "hj_sweep",
    "lattice_sweep",
]
