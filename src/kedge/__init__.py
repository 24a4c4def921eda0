"""Exact-rational K-polystability engine for blown-up ruled surfaces.

Decides existence of Kaehler-Einstein edge metrics for the log pairs
(S, (1-beta1) C1tilde + (1-beta2) C2tilde), where S is a Hirzebruch
surface blown up at m points of the positive section, by computing the
stability threshold (delta-invariant) in rational arithmetic two ways:
a Zariski-decomposition volume sweep and complexity-one torus
combinatorics, whose Legendre duals are exact as their values at
(-beta1, 0, beta2).  A verdict runs the torus route and checks the bracket
sign against the Futaki sign, delta <= 1 and its branch's term pattern;
``verify`` compares A and S per curve with the sweep route.
"""

from .picard import (
    Angles,
    C1TILDE,
    C2TILDE,
    CurveId,
    DivisorClass,
    Ei,
    FiTilde,
    GENERIC_FIBER,
    OutsideAmpleRange,
    PULLBACK_C2,
    SurfaceModel,
    parse_curve_id,
)
from .ratmath import Rat, RatParseError, format_rat, parse_rat, sign
from .tvariety import (
    DeltaReport,
    ValuationTerm,
    delta_tvariety,
    futaki_vanishes,
)
from .verdict import (
    InconsistencyError,
    KPOLYSTABLE,
    NOT_KPOLYSTABLE,
    NotFound,
    OUTSIDE_AMPLE_RANGE,
    Verdict,
    condition_sign,
    k_polystable,
    rational_condition_point,
)
from .volumes import (
    IrrationalThreshold,
    PiecewiseQuadratic,
    QuadraticPiece,
    expected_vanishing_order,
    log_discrepancy,
    volume_curve,
)
from .zariski import (
    NotPseudoeffective,
    ZariskiDecomposition,
    is_negative_definite,
    volume,
    zariski_decompose,
    zariski_decompose_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "Angles",
    "C1TILDE",
    "C2TILDE",
    "CurveId",
    "DeltaReport",
    "DivisorClass",
    "Ei",
    "FiTilde",
    "GENERIC_FIBER",
    "InconsistencyError",
    "IrrationalThreshold",
    "KPOLYSTABLE",
    "NOT_KPOLYSTABLE",
    "NotFound",
    "NotPseudoeffective",
    "OUTSIDE_AMPLE_RANGE",
    "OutsideAmpleRange",
    "PULLBACK_C2",
    "PiecewiseQuadratic",
    "QuadraticPiece",
    "Rat",
    "RatParseError",
    "SurfaceModel",
    "ValuationTerm",
    "Verdict",
    "ZariskiDecomposition",
    "condition_sign",
    "delta_tvariety",
    "expected_vanishing_order",
    "format_rat",
    "futaki_vanishes",
    "is_negative_definite",
    "k_polystable",
    "log_discrepancy",
    "parse_curve_id",
    "parse_rat",
    "rational_condition_point",
    "sign",
    "volume",
    "volume_curve",
    "zariski_decompose",
    "zariski_decompose_bruteforce",
    "__version__",
]
