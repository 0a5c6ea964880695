"""Reference answers for the benchmark's requests, written without doldseq.

Each check recomputes, by the plainest method available, only the fields
the package's documentation defines: Dold violations with their
deficiencies and the empirical lower bound, sign violations, the
structure verdict, the irreducibility witness and the root density.
It deliberately ignores fields that a faster but equally correct
program may report differently, such as the exactness claim of a power
report or the exact Mobius sums of a power scan (a residue scan reports
them mod n).  Everything here runs outside the timed region.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# -- integers and sequences --------------------------------------------------


def terms(coeffs, initial, count: int) -> list[int]:
    """A_1..A_count of U_n = sum r_i U_{n-i}, from the initial terms."""
    a = list(initial)
    while len(a) < count:
        a.append(sum(c * a[-i - 1] for i, c in enumerate(coeffs)))
    return a[:count]


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def mobius_table(n: int) -> list[int]:
    """mu(0..n) by sieving; mu(0) is unused and set to 0."""
    mu = [1] * (n + 1)
    mu[0] = 0
    for p in primes_upto(n):
        for m in range(p, n + 1, p):
            mu[m] = -mu[m]
        for m in range(p * p, n + 1, p * p):
            mu[m] = 0
    return mu


def mobius_sums(a: list[int]) -> list[int]:
    """S_n = sum over d | n of mu(n/d) A_d for n = 1..len(a), by sieving multiples."""
    n = len(a)
    mu = mobius_table(n)
    s = [0] * (n + 1)
    for d in range(1, n + 1):
        ad = a[d - 1]
        for k in range(1, n // d + 1):
            if mu[k]:
                s[d * k] += mu[k] * ad
    return s[1:]


def dold_scan(a: list[int]) -> tuple[list[tuple[int, int, int]], list[int]]:
    """(n, S_n, n / gcd(n, S_n)) for every n not dividing S_n, and every n with S_n < 0."""
    sums = mobius_sums(a)
    violations = [(n, s, n // math.gcd(n, s)) for n, s in enumerate(sums, start=1) if s % n]
    negative = [n for n, s in enumerate(sums, start=1) if s < 0]
    return violations, negative


def lcm_all(values) -> int:
    out = 1
    for v in values:
        out = math.lcm(out, v)
    return out


def term_mod(coeffs, initial, index: int, m: int) -> int:
    """A_index mod m, by powering the companion matrix mod m."""
    d = len(coeffs)
    if index <= d:
        return initial[index - 1] % m

    def matmul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(d)) % m for j in range(d)] for i in range(d)]

    power = [[int(i == j) % m for j in range(d)] for i in range(d)]
    base = [[c % m for c in coeffs]] + [[int(j == i - 1) for j in range(d)] for i in range(1, d)]
    e = index - d
    while e:
        if e & 1:
            power = matmul(power, base)
        base = matmul(base, base)
        e >>= 1
    state = [initial[d - 1 - i] for i in range(d)]  # A_d, A_{d-1}, ..., A_1
    return sum(power[0][k] * state[k] for k in range(d)) % m


def power_deficiencies(coeffs, initial, t: int, horizon: int) -> list[tuple[int, int]]:
    """(n, n / gcd(n, S_n)) for every violating n of the n**t subsequence, from S_n mod n."""
    mu = mobius_table(horizon)
    out = []
    for n in range(1, horizon + 1):
        s = sum(mu[n // d] * term_mod(coeffs, initial, d**t, n) for d in range(1, n + 1) if n % d == 0) % n
        if s:
            out.append((n, n // math.gcd(n, s)))
    return out


# -- polynomials over Z and Q (ascending coefficient lists) -------------------


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def char_poly(coeffs) -> list[int]:
    """x^d - r_1 x^(d-1) - ... - r_d, ascending."""
    d = len(coeffs)
    return [-coeffs[d - 1 - i] for i in range(d)] + [1]


def _derivative(f: list) -> list:
    return _trim([i * c for i, c in enumerate(f)][1:])


def _evaluate(f: list[int], x: int) -> int:
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def _divmod_q(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder over Q; b nonzero."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(_trim(r)) >= len(b):
        c = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = c
        for i, bc in enumerate(b):
            r[shift + i] -= c * bc
    return _trim(q), r


def squarefree_part(f: list[int]) -> list[int]:
    """Monic product of the distinct irreducible factors of monic f, via gcd(f, f') over Q."""
    a, b = [Fraction(c) for c in f], [Fraction(c) for c in _derivative(f)]
    while b:
        a, b = b, _divmod_q(a, b)[1]
    g = [c / a[-1] for c in a]
    q, r = _divmod_q(f, g)
    if r or any(c.denominator != 1 for c in q):
        raise ArithmeticError("squarefree part of a monic integer polynomial is not integral")
    return [int(c) for c in q]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _quadratic_factor(g: list[int]) -> list[int] | None:
    """A monic quadratic x^2 + a x + b dividing the monic quartic g, if any."""
    g0, g1, g2, g3 = g[:4]
    bound = 2 * (1 + max(abs(c) for c in g))
    for b in [s * d for d in _divisors(g0) for s in (1, -1)]:
        b2 = g0 // b
        for a in range(-bound, bound + 1):
            a2 = g3 - a
            if b + b2 + a * a2 == g2 and a * b2 + a2 * b == g1:
                return [b, a, 1]
    return None


def distinct_factors(f: list[int]) -> list[list[int]]:
    """Distinct monic irreducible factors over Z of a monic f of degree at most 4."""
    if len(f) - 1 > 4:
        raise ValueError("the reference factorization covers degree <= 4")
    if f[0] == 0:
        raise ValueError("a recurrence's characteristic polynomial has a nonzero constant term")
    roots = sorted(r for r in {s * d for d in _divisors(f[0]) for s in (1, -1)} if _evaluate(f, r) == 0)
    g = [Fraction(c) for c in f]
    for r in roots:
        while len(g) > 1 and _evaluate(g, r) == 0:
            g = _divmod_q(g, [-r, 1])[0]
    g = [int(c) for c in g]
    factors = [[-r, 1] for r in roots]
    if len(g) == 5:
        q = _quadratic_factor(g)
        if q is not None:
            h = [int(c) for c in _divmod_q(g, q)[0]]
            factors += [q] if h == q else [q, h]
            return factors
    if len(g) >= 3:
        factors.append(g)
    return factors


def _newton_sums(g: list[int], count: int) -> list[int]:
    """Power sums p_1..p_count of the roots of monic g (Newton's identities)."""
    m = len(g) - 1
    c = g[:-1]
    sums: list[int] = []
    for k in range(1, count + 1):
        s = -k * c[m - k] if k <= m else 0
        for i in range(1, min(k - 1, m) + 1):
            s -= c[m - i] * sums[k - i - 1]
        sums.append(s)
    return sums


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def structure_almost(coeffs, initial) -> bool:
    """True iff U is a rational combination of the trace sequences of the
    distinct irreducible factors of its characteristic polynomial.

    Both sides satisfy the order-d recurrence, so agreement on U_1..U_d
    decides it: the d x m system must be consistent.
    """
    d = len(coeffs)
    columns = [_newton_sums(g, d) for g in distinct_factors(char_poly(coeffs))]
    rows = [[Fraction(col[n]) for col in columns] for n in range(d)]
    augmented = [row + [Fraction(initial[n])] for n, row in enumerate(rows)]
    return _rank(rows) == _rank(augmented)


# -- polynomials over F_p -----------------------------------------------------


def _mod(a: list[int], p: int) -> list[int]:
    return _trim([c % p for c in a])


def _mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _mod(out, p)


def _rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    r = _mod(a, p)
    inv = pow(b[-1], -1, p)
    while len(r) >= len(b):
        c = r[-1] * inv % p
        shift = len(r) - len(b)
        for i, y in enumerate(b):
            r[shift + i] = (r[shift + i] - c * y) % p
        _trim(r)
    return r


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _mod(a, p), _mod(b, p)
    while b:
        a, b = b, _rem_mod(a, b, p)
    return a


def _pow_x_mod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result, base = [1], _rem_mod(base, f, p)
    while e:
        if e & 1:
            result = _rem_mod(_mul_mod(result, base, p), f, p)
        base = _rem_mod(_mul_mod(base, base, p), f, p)
        e >>= 1
    return result


def _minus_x(h: list[int], p: int) -> list[int]:
    h = h + [0] * (2 - len(h))
    h[1] -= 1
    return _mod(h, p)


def squarefree_mod(f: list[int], p: int) -> bool:
    """True iff monic f stays squarefree mod p, i.e. p does not divide disc(f)."""
    return len(_gcd_mod(f, _derivative(f), p)) == 1


def irreducible_mod(f: list[int], p: int) -> bool:
    """Rabin's test for monic f over F_p: x^(p^n) = x mod f, and
    gcd(x^(p^(n/q)) - x, f) = 1 for every prime q dividing n = deg f."""
    f = _mod(f, p)
    n = len(f) - 1
    if n <= 1:
        return n == 1
    frob = [[0, 1]]  # frob[k] = x^(p^k) mod f
    for _ in range(n):
        frob.append(_pow_x_mod(frob[-1], p, f, p))
    if _minus_x(frob[n], p):
        return False
    return all(len(_gcd_mod(f, _minus_x(frob[n // q], p), p)) == 1 for q in primes_upto(n) if n % q == 0)


def has_root_mod(f: list[int], p: int) -> bool:
    """Naive root search: evaluate f at every residue mod p."""
    g = [c % p for c in f]
    for x in range(p):
        v = 0
        for c in reversed(g):
            v = (v * x + c) % p
        if v == 0:
            return True
    return False


# -- checks of one report ----------------------------------------------------


def _witness_problems(f, bound, status, witness, searched) -> list[str]:
    if len(squarefree_part(f)) != len(f):
        return [] if status == "not-convenient" else [f"status {status!r} for a non-squarefree polynomial"]
    if status == "certified":
        p = int(witness)
        if p > bound or p not in primes_upto(bound):
            return [f"witness {p} is not a prime <= {bound}"]
        if not (squarefree_mod(f, p) and irreducible_mod(f, p)):
            return [f"witness {p} does not leave the polynomial irreducible"]
        return []
    if status == "no-witness":
        if int(searched) != bound:
            return [f"searched_up_to {searched} != prime bound {bound}"]
        found = next((p for p in primes_upto(bound) if squarefree_mod(f, p) and irreducible_mod(f, p)), None)
        return [] if found is None else [f"prime {found} is a witness but none was reported"]
    return [f"unexpected witness status {status!r}"]


def _violation_problems(reported, expected) -> list[str]:
    got = [(int(v["n"]), int(v["mobius_sum"]), int(v["deficiency"])) for v in reported]
    if got == expected:
        return []
    first = next((i for i, (x, y) in enumerate(zip(got, expected)) if x != y), min(len(got), len(expected)))
    return [f"Dold violations differ from index {first} on ({len(got)} reported, {len(expected)} expected)"]


def _check_scan(req, doc) -> list[str]:
    a = terms(req.coeffs, req.initial, req.horizon)
    violations, negative = dold_scan(a)
    lower = lcm_all(d for _, _, d in violations)
    problems = _violation_problems(doc["violations" if req.kind == "fail" else "dold_violations"], violations)
    if "empirical_lower" in doc and int(doc["empirical_lower"]) != lower:
        problems.append(f"empirical lower {doc['empirical_lower']} != {lower}")
    if req.kind == "fail":
        almost = structure_almost(req.coeffs, req.initial)
        verdict = "almost-dold" if almost else "not-almost-dold"
        if doc["verdict"] != verdict or doc["structure"]["almost"] is not almost:
            problems.append(f"verdict {doc['verdict']!r} != {verdict!r}")
    else:
        if [int(n) for n in doc["sign_violations"]] != negative:
            problems.append("sign violations differ")
    return problems


def _check_power(req, doc) -> list[str]:
    expected = power_deficiencies(req.coeffs, req.initial, req.t, req.horizon)
    got = [(int(v["n"]), int(v["deficiency"])) for v in doc["dold_violations"]]
    problems = [] if got == expected else ["power-subsequence violations differ"]
    lower = lcm_all(d for _, d in expected)
    if int(doc["empirical_lower"]) != lower:
        problems.append(f"empirical lower {doc['empirical_lower']} != {lower}")
    if doc["base_structure"]["almost"] is not structure_almost(req.coeffs, req.initial):
        problems.append("base structure verdict differs")
    return problems


def _check_witness(req, doc) -> list[str]:
    return _witness_problems(
        char_poly(req.coeffs), req.prime_bound, doc["status"], doc.get("witness"), doc.get("searched_up_to")
    )


def _check_classify(req, doc) -> list[str]:
    details = doc["details"]
    if "convenient" not in details:  # orders 1 and 2 are classified without a witness search
        return []
    return _witness_problems(
        char_poly(req.coeffs), req.prime_bound, details["convenient"], details.get("witness"), req.prime_bound
    )


def _check_density(req, doc) -> list[str]:
    f = list(req.poly)
    bound = max(req.prime_bound, 100)
    sf = squarefree_part(f)
    hits = total = 0
    for p in primes_upto(bound):
        if squarefree_mod(sf, p):
            total += 1
            hits += has_root_mod(f, p)
    got = Fraction(int(doc["density"]["numerator"]), int(doc["density"]["denominator"]))
    if got != Fraction(hits, total):
        return [f"density {got} != {hits}/{total}"]
    return []


_CHECKS = {
    "fail": _check_scan,
    "check": _check_scan,
    "bfile-check": _check_scan,
    "power": _check_power,
    "witness": _check_witness,
    "classify": _check_classify,
    "density": _check_density,
}


def check(req, text: str) -> list[str]:
    """Problems found in the report `text` answering `req`; empty when it is correct."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if doc.get("command") != req.kind or "error" in doc:
        return [f"not a {req.kind} report: {text[:200]!r}"]
    try:
        return _CHECKS[req.kind](req, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
