"""Acceptance suite: the package's exit criteria.

Every criterion is exact (no tolerances anywhere) and carries a wall-clock
budget.  One PASS/FAIL line is printed per criterion; run with

    pytest tests/test_acceptance.py -v -s
"""
import random
from contextlib import contextmanager
from fractions import Fraction as F
from math import gcd
from time import perf_counter

from frobgen.bernoulli import bernoulli_poly, beta_poly
from frobgen.closedform import (
    PairParams,
    at_most_stats,
    count_k,
    frobenius_k,
    power_sum_k,
    sum_k,
)
from frobgen.genfun import (
    denham_term_count,
    numerator_h,
    p_k_poly,
    rational_series,
    s_k_indicator,
)
from frobgen.intpoly import IntPoly, cyclotomic
from frobgen.oracle import (
    enumerate_at_most_k,
    enumerate_exact_k,
    rep_table,
    validate_params,
)

from helpers import PRIMES_TO_30, coprime_pairs


@contextmanager
def criterion(num: int, description: str, limit_s: float):
    start = perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL {num}: {description}")
        raise
    elapsed = perf_counter() - start
    if elapsed >= limit_s:
        print(f"FAIL {num}: {description} ({elapsed:.2f}s, over the {limit_s:.0f}s budget)")
        raise AssertionError(f"criterion {num} exceeded its {limit_s:.0f}s budget")
    print(f"PASS {num}: {description} ({elapsed:.2f}s < {limit_s:.0f}s)")


def test_criterion_1_golden_values():
    with criterion(1, "golden values g0(5,7)=23, c0(5,7)=12 on both paths", 1.0):
        pair = PairParams(5, 7)
        assert frobenius_k(pair, 0).value == 23
        assert count_k(pair, 0).value == 12
        gaps = enumerate_exact_k(validate_params([5, 7]), 0)
        assert gaps.maximum == 23
        assert len(gaps) == 12


def test_criterion_2_sylvester_brown_shiue_sweep():
    with criterion(2, "g0/c0/s0 closed forms equal the oracle for all pairs <= 30", 10.0):
        for a, b in coprime_pairs(30):
            pair = PairParams(a, b)
            gaps = enumerate_exact_k(validate_params([a, b]), 0)
            assert frobenius_k(pair, 0).value == gaps.maximum
            assert count_k(pair, 0).value == len(gaps)
            assert sum_k(pair, 0).value == gaps.power_sum(1)


def test_criterion_3_exact_k_sweep():
    with criterion(
        3, "g_k/c_k/s_k and the exactly-k polynomial for pairs <= 30, k <= 5", 60.0
    ):
        for a, b in coprime_pairs(30):
            pair = PairParams(a, b)
            params = validate_params([a, b])
            for k in range(1, 6):
                exact = enumerate_exact_k(params, k)
                assert frobenius_k(pair, k).value == (k + 1) * a * b - a - b == exact.maximum
                assert count_k(pair, k).value == a * b == len(exact)
                assert sum_k(pair, k).value == exact.power_sum(1)
                assert 2 * sum_k(pair, k).value == a * b * (2 * a * b * k - a - b)
                poly = p_k_poly(pair, k)
                assert poly.is_zero_one()
                assert poly.support() == exact.elements


def test_criterion_4_power_sums():
    with criterion(4, "order-m power sums for pairs <= 20, k <= 4, m <= 4", 60.0):
        assert power_sum_k(PairParams(3, 5), 1, 2).value == 2335 == 810 + 900 + 625
        for a, b in coprime_pairs(20):
            pair = PairParams(a, b)
            params = validate_params([a, b])
            for k in range(1, 5):
                exact = enumerate_exact_k(params, k)
                for m in range(5):
                    assert power_sum_k(pair, k, m).value == exact.power_sum(m)


def test_criterion_5_at_most_stats():
    with criterion(
        5, "at-most-k stats match the oracle union for pairs <= 20, k <= 5", 30.0
    ):
        for a, b in coprime_pairs(20):
            pair = PairParams(a, b)
            params = validate_params([a, b])
            for k in range(6):
                at_most = enumerate_at_most_k(params, k)
                union = set()
                for i in range(k + 1):
                    union |= set(enumerate_exact_k(params, i).elements)
                assert at_most.elements == tuple(sorted(union))
                g_le, c_le, s_le = at_most_stats(pair, k)
                assert g_le.value == at_most.maximum
                assert c_le.value == len(at_most)
                assert s_le.value == at_most.power_sum(1)
                assert g_le.value == frobenius_k(pair, k).value


def test_criterion_6_shift_law():
    with criterion(6, "count shift law r(j) = r(j-ab) + 1 for pairs <= 20", 10.0):
        for a, b in coprime_pairs(20):
            bound = 5 * a * b
            counts = rep_table(validate_params([a, b]), bound)
            for j in range(a * b):
                assert counts[j] <= 1
            for j in range(a * b, bound + 1):
                assert counts[j] == counts[j - a * b] + 1


def test_criterion_7_bernoulli_and_beta():
    with criterion(7, "beta power-sum identity and the Bernoulli table", 1.0):
        for k in range(1, 9):
            poly = beta_poly(k)
            for x in range(1, 51):
                assert poly.evaluate(x) == sum(j ** (k - 1) for j in range(x))
        table = {
            0: [F(1)],
            1: [F(-1, 2), F(1)],
            2: [F(1, 6), F(-1), F(1)],
            3: [F(0), F(1, 2), F(-3, 2), F(1)],
            4: [F(-1, 30), F(0), F(1), F(-2), F(1)],
            5: [F(0), F(-1, 6), F(0), F(5, 3), F(-5, 2), F(1)],
            6: [F(1, 42), F(0), F(-1, 2), F(0), F(5, 2), F(-3), F(1)],
        }
        for n, coeffs in table.items():
            assert bernoulli_poly(n).coefficients == tuple(coeffs)


def test_criterion_8_numerator_for_pairs():
    with criterion(
        8, "h(z) = 1 - z^ab for pairs <= 30 and its series matches the oracle", 10.0
    ):
        for a, b in coprime_pairs(30):
            params = validate_params([a, b])
            h = numerator_h(params)
            assert h == IntPoly.one_minus_pow(a * b)
            gaps = set(enumerate_exact_k(params, 0).elements)
            bound = (max(gaps) if gaps else -1) + a + b
            series = rational_series(h, params, bound)
            for j, v in enumerate(series):
                assert v == (0 if j in gaps else 1)


def test_criterion_9_denham_dichotomy():
    with criterion(9, "4-or-6-term numerator over 200 random coprime triples", 120.0):
        rng = random.Random(61803)
        seen = 0
        while seen < 200:
            triple = tuple(sorted(rng.randint(1, 60) for _ in range(3)))
            if gcd(gcd(triple[0], triple[1]), triple[2]) != 1:
                continue
            seen += 1
            count = denham_term_count(validate_params(list(triple)))
            assert count in (4, 6), f"{triple} gave {count} terms"


def test_criterion_10_cyclotomic_form():
    with criterion(
        10, "Phi_pq/(1-z) equals the representable indicator for primes <= 30", 10.0
    ):
        for i, p in enumerate(PRIMES_TO_30):
            for q in PRIMES_TO_30[i + 1 :]:
                g0 = p * q - p - q
                phi = cyclotomic(p * q)
                acc = 0
                series = []
                for j in range(g0 + 2):
                    acc += phi.coeff(j)
                    series.append(acc)
                indicator = s_k_indicator(PairParams(p, q), 0, g0 + 1)
                assert series == list(indicator.bits)
