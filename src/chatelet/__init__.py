"""Degree-zero Chow groups of Chatelet surfaces over p-adic fields.

Exact square classes of Q_p, Hilbert symbols, norm subgroups of quadratic
extensions, and the closed-form local classifier, all cross-checked by
brute-force oracles.
"""

from .padic import SquareClass, epsilon, omega, square_class_reps
from .quadratic import QuadExt, QuadExtElem, build_extension, s_invariant
from .hilbert import hilbert, hilbert_2, hilbert_odd, hilbert_oracle
from .surface import (
    LocalChowResult,
    Outcome,
    classify_cubic,
    classify_pair,
    count_roots_cubic,
)
from .chi import ChiValue, SearchGrid, chi, find_witness, in_M, sample_M, verify_ramified_disjunction
from .globalq import PlaceReport, bad_places, classify_all_places

__all__ = [
    "ChiValue", "LocalChowResult", "Outcome", "PlaceReport", "QuadExt",
    "QuadExtElem", "SearchGrid", "SquareClass", "bad_places", "build_extension",
    "chi", "classify_all_places", "classify_cubic", "classify_pair",
    "count_roots_cubic", "epsilon", "find_witness", "hilbert", "hilbert_2",
    "hilbert_odd", "hilbert_oracle", "in_M", "omega",
    "sample_M", "s_invariant", "square_class_reps", "verify_ramified_disjunction",
]

__version__ = "0.1.0"
