"""Exact combinatorics of antichains and support-tilting modules over
Dynkin diagrams of every type, with closed-form cross-checks and
OEIS-compatible triangle output."""

from .diagrams import (
    CartanDatum,
    DiagramError,
    DiagramShape,
    DynkinType,
    build_cartan,
    positive_roots,
    sink_order,
)
from .enumeration import (
    CountTable,
    classify_sincere,
    count_tables,
    enumerate_antichains,
    enumerate_support_tilting,
    eta_inverse,
    eta_map,
)
from .formulas import a_row, a_s, a_total, bailey, binom, catalan_bracket
from .homs import build_category, build_matrices
from .orbits import Indec, ModCategory, knit_category
from .verify import VerificationReport, run_suite, verify_identities, verify_type

__version__ = "0.1.0"

__all__ = [
    "CartanDatum",
    "CountTable",
    "DiagramError",
    "DiagramShape",
    "DynkinType",
    "Indec",
    "ModCategory",
    "VerificationReport",
    "a_row",
    "a_s",
    "a_total",
    "bailey",
    "binom",
    "build_cartan",
    "build_category",
    "build_matrices",
    "catalan_bracket",
    "classify_sincere",
    "count_tables",
    "enumerate_antichains",
    "enumerate_support_tilting",
    "eta_inverse",
    "eta_map",
    "knit_category",
    "positive_roots",
    "run_suite",
    "sink_order",
    "verify_identities",
    "verify_type",
]
