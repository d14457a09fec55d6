"""Independent correctness checks for the benchmark's outputs.

Nothing here calls into frobgen.  Representation counts are recomputed with
the benchmark's own code (a prefix sum along each residue class, or the
two-coin count r(j) = #{i <= j/a : b | j - i*a}), polynomials are parsed
from the rendered CLI text, and cyclotomic polynomials come from sympy.
Every checker returns a list of problems; an empty list means the output is
correct.
"""
from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import accumulate

CAP = 10_000_000  # frobgen's default table ceiling (FROBGEN_MAX_BOUND unset)


# -- own counting -------------------------------------------------------------


def rep_counts(denoms, bound: int) -> list[int]:
    """[r(0), ..., r(bound)]: each coin turns the table into prefix sums
    along the residue classes modulo that coin."""
    t = [0] * (bound + 1)
    t[0] = 1
    for a in denoms:
        for r in range(min(a, bound + 1)):
            t[r::a] = accumulate(t[r::a])
    return t


def two_coin_counts(a: int, b: int, bound: int) -> list[int]:
    """r(j) for two coins, counted straight from the definition."""
    return [sum(1 for i in range(j // a + 1) if (j - i * a) % b == 0) for j in range(bound + 1)]


def find_window(counts, width: int, k: int) -> int | None:
    """Start of the first run of `width` consecutive counts all > k."""
    run = 0
    for j, c in enumerate(counts):
        run = run + 1 if c > k else 0
        if run == width:
            return j - width + 1
    return None


def certified_counts(denoms, k: int) -> tuple[int, list[int]]:
    """(window start, counts up to at least twice the window end).

    Counts past the window are kept so the certificate itself is checked:
    every count from the window start to the end of the table exceeds k.
    Raises LookupError when no window closes below twice frobgen's cap.
    """
    denoms = tuple(sorted(denoms))
    n = 1024
    while n <= 2 * CAP:
        counts = rep_counts(denoms, n)
        w = find_window(counts, denoms[0], k)
        if w is not None and n >= 2 * (w + denoms[0]):
            return w, counts
        n *= 2
    raise LookupError(f"no certificate window for {denoms} k={k} below {2 * CAP}")


@lru_cache(maxsize=None)
def window_start(denoms: tuple[int, ...], k: int) -> int:
    return certified_counts(denoms, k)[0]


def totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


# -- parsing the CLI's rendered output -----------------------------------------

_TERM = re.compile(r"^(\d*)(z(?:\^(\d+))?)?$")


def parse_poly(text: str, fmt: str) -> dict[int, int]:
    """exponent -> coefficient from the json, csv or plain rendering."""
    if fmt == "json":
        return {int(e): int(c) for e, c in json.loads(text)["terms"]}
    if fmt == "csv":
        rows = text.split()
        if rows[0] != "exp,coeff":
            raise ValueError("missing csv header")
        return {int(e): int(c) for e, c in (r.split(",") for r in rows[1:])}
    text = text.strip()
    if text == "0":
        return {}
    terms: dict[int, int] = {}
    tokens = text.split(" ")
    sign = 1
    for tok in tokens:
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        m = _TERM.match(tok)
        if not m or not tok:
            raise ValueError(f"bad term {tok!r}")
        digits, zpart, exp = m.groups()
        coeff = int(digits) if digits else 1
        e = 0 if zpart is None else (int(exp) if exp else 1)
        if e in terms:
            raise ValueError(f"repeated exponent {e}")
        terms[e] = sign * coeff
        sign = 1
    return terms


def parse_bits(text: str, fmt: str) -> list[int]:
    if fmt == "json":
        return list(json.loads(text)["bits"])
    if fmt == "csv":
        rows = text.split()
        return [int(r.split(",")[1]) for r in rows[1:]]
    return [int(ch) for ch in text.strip()]


def parse_classify(text: str, fmt: str) -> list[int]:
    """Counts r(0..bound) from classify's rows (the k column must equal count)."""
    if fmt == "json":
        rows = json.loads(text)["rows"]
        out = []
        for i, row in enumerate(rows):
            if row["j"] != i or row["k"] != row["count"]:
                raise ValueError(f"bad row {row}")
            out.append(int(row["count"]))
        return out
    if fmt == "csv":
        out = []
        for i, line in enumerate(text.split()[1:]):
            j, count, k = line.split(",")
            if int(j) != i or k != count:
                raise ValueError(f"bad row {line!r}")
            out.append(int(count))
        return out
    out = []
    for i, line in enumerate(text.splitlines()):
        j, r = line.split()
        if int(j) != i or not r.startswith("r="):
            raise ValueError(f"bad row {line!r}")
        out.append(int(r[2:]))
    return out


def parse_enumerate(text: str, fmt: str) -> tuple[list[int], bool | None]:
    """(elements, complete flag); csv carries no flag."""
    if fmt == "json":
        data = json.loads(text)
        return [int(e) for e in data["elements"]], data["complete"]
    if fmt == "csv":
        return [int(e) for e in text.split()], None
    header, body = text.splitlines()
    complete = header.rsplit("complete=", 1)[1] == "true"
    return ([] if body == "(empty)" else [int(e) for e in body.split()]), complete


def parse_denham(text: str, fmt: str) -> int:
    return json.loads(text)["term_count"] if fmt == "json" else int(text)


# -- checkers -------------------------------------------------------------------


def check_verify_pair(a: int, b: int, kmax: int, mmax: int, output) -> list[str]:
    checks, failures = output
    want = 1 + 8 * (kmax + 1) + kmax * (mmax + 1)
    problems = []
    if failures:
        problems.append(f"verify_pair({a},{b}) reported failures {failures[:2]}")
    if checks != want:
        problems.append(f"verify_pair({a},{b}) ran {checks} checks, expected {want}")
    return problems


def check_pair_sample(a: int, b: int, kmax: int, mmax: int, exact_set, power_sum) -> list[str]:
    """Exactly-k sets and power sums of one pair against the two-coin count.

    exact_set(k) and power_sum(k, m) return the program's answers.
    """
    counts = two_coin_counts(a, b, (kmax + 1) * a * b)
    problems = []
    for k in range(kmax + 1):
        own = [j for j, c in enumerate(counts) if c == k]
        got = list(exact_set(k))
        if got != own:
            problems.append(f"R_{k}({a},{b}) differs from the two-coin count")
        for m in range(mmax + 1) if k >= 1 else ():
            want = sum(j**m for j in own)
            got_m = power_sum(k, m)
            if got_m != want:
                problems.append(f"s^{m}_{k}({a},{b}) = {got_m}, own count gives {want}")
    return problems


def check_oracle_query(denoms, k: int, at_most: bool, m: int, output) -> list[str]:
    """output = (elements, complete, [(stat, value), ...]) of one unbounded query."""
    elements, complete, stats = output
    w, counts = certified_counts(denoms, k)
    problems = []
    tag = f"{tuple(denoms)} k={k} {'at-most' if at_most else 'exact'}"
    if any(c <= k for c in counts[w:]):
        problems.append(f"{tag}: own certificate window at {w} is unsound")
    own = [j for j in range(w) if (counts[j] <= k if at_most else counts[j] == k)]
    if list(elements) != own:
        missing = sorted(set(own) - set(elements))[:3]
        extra = sorted(set(elements) - set(own))[:3]
        problems.append(f"{tag}: set differs (missing {missing}, extra {extra})")
    if not complete:
        problems.append(f"{tag}: not flagged complete")
    s_name = "s" if m == 1 else "s^m"
    want = [("g", own[-1] if own else None), ("c", len(own)), (s_name, sum(j**m for j in own))]
    if list(stats) != want:
        problems.append(f"{tag}: stats {stats} != own {want}")
    return problems


def check_indeterminate(denoms, k: int) -> list[str]:
    """A query that raised Indeterminate must certify below the cap by own count."""
    try:
        w = window_start(tuple(sorted(denoms)), k)
    except LookupError as exc:
        return [str(exc)]
    end = w + min(denoms) - 1
    if end >= CAP:
        return [f"{tuple(denoms)} k={k}: own window ends at {end}, not below the cap"]
    return []


def own_numerator(denoms) -> tuple[dict[int, int], int]:
    """h(z) = prod(1 - z^a) * sum_{j representable} z^j, truncated past its degree."""
    denoms = tuple(sorted(denoms))
    g0 = -1
    counts = rep_counts(denoms, denoms[0] * denoms[-1])
    for j, c in enumerate(counts):
        if c == 0:
            g0 = j
    top = g0 + sum(denoms)
    series = [1 if c else 0 for c in rep_counts(denoms, top)]
    for a in denoms:
        series = [series[j] - (series[j - a] if j >= a else 0) for j in range(top + 1)]
    return {e: c for e, c in enumerate(series) if c}, top


def check_numerator(denoms, h: dict[int, int]) -> list[str]:
    """h(z) / prod(1 - z^a) must expand to the own representable indicator."""
    _, top = own_numerator(denoms)
    bound = 2 * top + 2
    counts = rep_counts(sorted(denoms), bound)
    if any(e > bound for e in h):
        return [f"h{tuple(denoms)} has degree beyond {bound}"]
    series = [0] * (bound + 1)
    for e, c in h.items():
        for j in range(e, bound + 1):
            series[j] += c * counts[j - e]
    want = [1 if c else 0 for c in counts]
    if series != want:
        j = next(i for i, (x, y) in enumerate(zip(series, want)) if x != y)
        return [f"h{tuple(denoms)}/prod(1-z^a) differs from the indicator at j={j}"]
    return []


def check_denham(denoms, count: int) -> list[str]:
    h, _ = own_numerator(denoms)
    own = sum(abs(c) for c in h.values())
    if count not in (4, 6) or count != own:
        return [f"denham{tuple(denoms)} = {count}, own numerator gives {own}"]
    return []


def check_cyclotomic(n: int, poly: dict[int, int]) -> list[str]:
    import sympy

    z = sympy.Symbol("z")
    want = {e: int(c) for (e,), c in sympy.Poly(sympy.cyclotomic_poly(n, z), z).terms()}
    problems = []
    if max(poly, default=-1) != totient(n):
        problems.append(f"Phi_{n} has degree {max(poly, default=-1)}, phi({n}) = {totient(n)}")
    if poly != want:
        problems.append(f"Phi_{n} differs from sympy.cyclotomic_poly")
    return problems


def check_p_k(a: int, b: int, k: int, poly: dict[int, int]) -> list[str]:
    counts = two_coin_counts(a, b, (k + 1) * a * b)
    own = [j for j, c in enumerate(counts) if c == k]
    if sorted(poly) != own or any(c != 1 for c in poly.values()):
        return [f"p_{k}({a},{b}) is not the 0/1 polynomial of R_{k}"]
    return []


def check_indicator(denoms, k: int, bound: int, bits: list[int]) -> list[str]:
    want = [1 if c > k else 0 for c in rep_counts(denoms, bound)]
    if bits != want:
        return [f"indicator{tuple(denoms)} k={k} bound={bound} differs from own counts"]
    return []


def check_classify(denoms, bound: int, counts: list[int]) -> list[str]:
    if counts != rep_counts(sorted(denoms), bound):
        return [f"classify{tuple(denoms)} bound={bound} differs from own counts"]
    return []


def check_enumerate(denoms, k: int, at_most: bool, bound: int, elements, complete) -> list[str]:
    counts = rep_counts(sorted(denoms), bound)
    own = [j for j, c in enumerate(counts) if (c <= k if at_most else c == k)]
    problems = []
    if list(elements) != own:
        problems.append(f"enumerate{tuple(denoms)} k={k} bound={bound} differs from own counts")
    if complete is not None and complete != (find_window(counts, min(denoms), k) is not None):
        problems.append(f"enumerate{tuple(denoms)} k={k} bound={bound} has the wrong complete flag")
    return problems
