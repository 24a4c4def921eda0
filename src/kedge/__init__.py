"""Exact-rational K-polystability engine for blown-up ruled surfaces.

Decides existence of Kaehler-Einstein edge metrics for the log pairs
(S, (1-beta1) C1tilde + (1-beta2) C2tilde), where S is a Hirzebruch
surface blown up at m points of the positive section, by computing the
stability threshold (delta-invariant) in rational arithmetic two ways:
a Zariski-decomposition volume sweep and complexity-one torus
combinatorics, whose Legendre duals are exact as their values at
(-beta1, 0, beta2).  A verdict runs the torus route and checks its first
moment against the angle condition, delta against 1 and, at a condition
point, every orbit's A - S against the theorem's table;
``verify`` compares A and S per curve with the sweep route.
"""

from .picard import Angles, SurfaceModel
from .verdict import k_polystable

__version__ = "0.1.0"

__all__ = ["Angles", "SurfaceModel", "k_polystable", "__version__"]
