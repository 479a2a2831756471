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
    simple_reflection,
    sink_order,
)
from .enumeration import (
    CountTable,
    IndecSet,
    classify_sincere,
    count_tables,
    enumerate_antichains,
    enumerate_support_tilting,
    eta_inverse,
    eta_map,
)
from .formulas import a_row, a_s, a_total, bailey, binom, catalan_bracket
from .homs import build_category, build_matrices, ext_nonzero, hom_nonzero
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
    "IndecSet",
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
    "ext_nonzero",
    "hom_nonzero",
    "knit_category",
    "positive_roots",
    "run_suite",
    "simple_reflection",
    "sink_order",
    "verify_identities",
    "verify_type",
]
