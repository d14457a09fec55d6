"""Exact Frobenius coin-problem invariants.

Representation counts, exactly-k and at-most-k sets, their maxima /
cardinalities / power sums (closed forms for two coprime denominations,
brute-force oracle for any number), and the generating-function
polynomials tying them together.  All arithmetic is exact.
"""
from frobgen.bernoulli import RatPoly, bernoulli_number, bernoulli_poly, beta_poly
from frobgen.closedform import (
    PairParams,
    at_most_stats,
    closed_report,
    count_k,
    frobenius_k,
    power_sum_k,
    power_sums_k,
    structured_r_k,
    sum_k,
)
from frobgen.genfun import (
    IndicatorSeries,
    cyclotomic_identity_check,
    denham_term_count,
    numerator_h,
    p_k_poly,
    rational_series,
    s_k_indicator,
)
from frobgen.intpoly import IntPoly, cyclotomic, poly_exact_div
from frobgen.oracle import (
    GapSet,
    Params,
    enumerate_at_most_k,
    enumerate_by_count,
    enumerate_exact_k,
    oracle_report,
    oracle_stats,
    rep_table,
    validate_params,
)
from frobgen.report import StatReport

__version__ = "0.1.0"

__all__ = [
    "GapSet",
    "IndicatorSeries",
    "IntPoly",
    "PairParams",
    "Params",
    "RatPoly",
    "StatReport",
    "at_most_stats",
    "bernoulli_number",
    "bernoulli_poly",
    "beta_poly",
    "closed_report",
    "count_k",
    "cyclotomic",
    "cyclotomic_identity_check",
    "denham_term_count",
    "enumerate_at_most_k",
    "enumerate_by_count",
    "enumerate_exact_k",
    "frobenius_k",
    "numerator_h",
    "oracle_report",
    "oracle_stats",
    "p_k_poly",
    "poly_exact_div",
    "power_sum_k",
    "power_sums_k",
    "rational_series",
    "rep_table",
    "s_k_indicator",
    "structured_r_k",
    "sum_k",
    "validate_params",
]
