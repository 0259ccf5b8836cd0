"""Linear invariants: polyhedra, annotations, automatic generation."""

from .annotations import InvariantMap
from .generator import (
    Interval,
    generate_interval_invariants,
    generate_invariants,
    generate_octagon_invariants,
)
from .polyhedron import Polyhedron, Region

__all__ = [
    "Interval",
    "InvariantMap",
    "Polyhedron",
    "Region",
    "generate_interval_invariants",
    "generate_invariants",
    "generate_octagon_invariants",
]
