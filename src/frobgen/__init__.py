"""Exact Frobenius coin-problem invariants.

Representation counts, exactly-k and at-most-k sets, their maxima /
cardinalities / power sums (closed forms for two coprime denominations,
brute-force oracle for any number), and the generating-function
polynomials tying them together.  All arithmetic is exact.

Each export is imported from its module on first use (PEP 562), so
`from frobgen import oracle` loads the oracle and not the closed forms or
generating functions.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bernoulli": ("RatPoly", "bernoulli_number", "bernoulli_poly", "beta_poly"),
    "closedform": (
        "PairParams",
        "at_most_stats",
        "closed_report",
        "count_k",
        "frobenius_k",
        "power_sum_k",
        "power_sums_k",
        "structured_r_k",
        "sum_k",
    ),
    "genfun": (
        "IndicatorSeries",
        "cyclotomic_identity_check",
        "denham_term_count",
        "numerator_h",
        "p_k_exponents",
        "p_k_poly",
        "rational_series",
        "s_k_indicator",
    ),
    "intpoly": ("IntPoly", "cyclotomic", "poly_exact_div"),
    "oracle": (
        "GapSet",
        "Params",
        "enumerate_at_most_k",
        "enumerate_by_count",
        "enumerate_exact_k",
        "oracle_report",
        "oracle_stats",
        "rep_table",
        "validate_params",
    ),
    "report": ("StatReport",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # also how `from frobgen import oracle` falls through to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
