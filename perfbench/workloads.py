"""Seeded request pools for the scan, algebra and power workloads.

Each pool has a fixed composition: the seed picks the recurrences and
polynomials inside every slot, never how many slots of each kind there
are.  Sizes are chosen for cost (a pass through a pool takes seconds),
not to include or avoid any failure.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import oracle


@dataclass(frozen=True)
class Request:
    """One doldseq invocation, with what the oracle needs to check its report."""

    kind: str  # doldseq subcommand
    argv: tuple[str, ...]
    family: str  # slot label shown in the per-family table
    coeffs: tuple[int, ...] = ()
    initial: tuple[int, ...] = ()
    horizon: int = 0  # indices the request scans; 0 when it scans none
    t: int = 1
    prime_bound: int = 0
    poly: tuple[int, ...] = ()  # density input, ascending


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def _spec_argv(kind: str, coeffs, initial) -> tuple[str, ...]:
    # "--coeffs=-3,4": argparse reads a separate leading "-3" as an option.
    return (kind, f"--coeffs={_ints(coeffs)}", f"--initial={_ints(initial)}")


def _recurrence(rng: random.Random, order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Coefficients and initial terms in [-9, 9]; r_d != 0 and not every initial term 0."""
    while True:
        coeffs = tuple(rng.randint(-9, 9) for _ in range(order))
        initial = tuple(rng.randint(-9, 9) for _ in range(order))
        if coeffs[-1] and any(initial):
            return coeffs, initial


def growth(coeffs, initial) -> float:
    """Decimal digits per index of the sequence, measured around n = 200."""
    tail = oracle.terms(coeffs, initial, 200)[-10:]
    return len(str(max(abs(v) for v in tail))) / 200


# Digits-per-index bands.  Scan cost grows with term size, so every pool
# holds the same number of slow- and fast-growing sequences per slot.
GROWTH_BANDS = {"slow": (0.2, 0.55), "fast": (0.55, 1.1)}


def _recurrence_in_band(rng: random.Random, order: int, band: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    lo, hi = GROWTH_BANDS[band]
    while True:
        coeffs, initial = _recurrence(rng, order)
        if lo <= growth(coeffs, initial) < hi:
            return coeffs, initial


# -- scan --------------------------------------------------------------------

SCAN_KINDS = ("fail", "check", "bfile-check")
SCAN_ORDERS = (1, 2, 3)
SCAN_HORIZONS = (1000, 2000)


def write_bfile(path: Path, coeffs, initial, count: int) -> None:
    """OEIS-style b-file ("n value" per line) of the first `count` terms."""
    lines = ["# generated by perfbench"]
    lines += [f"{n} {v}" for n, v in enumerate(oracle.terms(coeffs, initial, count), start=1)]
    path.write_text("\n".join(lines) + "\n")


def scan_pool(rng: random.Random, workdir: Path) -> list[Request]:
    pool = []
    slots = itertools.product(SCAN_KINDS, SCAN_ORDERS, SCAN_HORIZONS, GROWTH_BANDS)
    for i, (kind, order, horizon, band) in enumerate(slots):
        coeffs, initial = _recurrence_in_band(rng, order, band)
        if kind == "bfile-check":
            path = workdir / f"b{i}.txt"
            write_bfile(path, coeffs, initial, horizon)
            argv = (kind, str(path))
        else:
            argv = _spec_argv(kind, coeffs, initial)
        argv += ("--horizon", str(horizon))
        pool.append(Request(kind, argv, f"{kind} order-{order}", coeffs, initial, horizon))
    return pool


# -- algebra -----------------------------------------------------------------

ALGEBRA_PRIME_BOUND = 300
DENSITY_PRIME_BOUND = 1000
# (family, degree) slots per subcommand; the shares are fixed, the polynomials seeded.
# Generic requests finish in milliseconds, the rest in 0.1-0.4 s.  Generic
# classify/witness stay under a quarter of the pool so that the median
# falls inside the dense upper cluster, not in the gap between the two.
_PRODUCT = [("product", d) for d in (4, 5, 6, 8)]
_BIQUADRATIC = [("biquadratic", 4)] * 2
ALGEBRA_SLOTS = {
    "classify": ([("generic", d) for d in (3, 5, 7)] + _PRODUCT + _BIQUADRATIC) * 2,
    "witness": ([("generic", d) for d in (4, 6, 8)] + _PRODUCT + _BIQUADRATIC) * 2,
    "density": ([("generic", d) for d in (4, 6, 8)] + _PRODUCT[1:3] + _BIQUADRATIC) * 2,
}


def _has_witness(f: list[int], bound: int) -> bool:
    """True when f is irreducible modulo some prime <= bound (so also over Z)."""
    return any(oracle.squarefree_mod(f, p) and oracle.irreducible_mod(f, p) for p in oracle.primes_upto(bound))


def _random_monic(rng: random.Random, degree: int, bound: int = 9) -> list[int]:
    while True:
        f = [rng.randint(-bound, bound) for _ in range(degree)] + [1]
        if f[0]:
            return f


def _multiply(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _product(rng: random.Random, degree: int) -> list[int]:
    """Product of distinct irreducible monic factors of degree 2 or 3."""
    parts = {4: (2, 2), 5: (2, 3), 6: (3, 3), 8: (2, 3, 3)}[degree]
    while True:
        factors = []
        for d in parts:
            f = _random_monic(rng, d, bound=5)
            while not _has_witness(f, 200):
                f = _random_monic(rng, d, bound=5)
            factors.append(f)
        if len({tuple(f) for f in factors}) == len(factors):
            out = [1]
            for f in factors:
                out = _multiply(out, f)
            return out


_SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)


def _biquadratic(rng: random.Random) -> list[int]:
    """Minimal polynomial of sqrt(a) + sqrt(b): x^4 - 2(a+b) x^2 + (a-b)^2.

    For distinct squarefree a, b > 1 it is irreducible over Q, yet
    reducible modulo every prime.
    """
    a, b = rng.sample(_SQUAREFREE, 2)
    return [(a - b) ** 2, 0, -2 * (a + b), 0, 1]


def _generic(rng: random.Random, degree: int) -> list[int]:
    """Random monic polynomial with a witness prime <= 50, as almost every one has.

    Small random coefficients sometimes give a reducible polynomial; those
    would take the product path, so they are drawn again.
    """
    while True:
        f = _random_monic(rng, degree)
        if _has_witness(f, 50):
            return f


def _polynomial(rng: random.Random, family: str, degree: int) -> list[int]:
    if family == "generic":
        return _generic(rng, degree)
    if family == "product":
        return _product(rng, degree)
    return _biquadratic(rng)


def algebra_pool(rng: random.Random, workdir: Path) -> list[Request]:
    pool = []
    for kind, slots in ALGEBRA_SLOTS.items():
        for family, degree in slots:
            f = _polynomial(rng, family, degree)
            label = f"{kind} {family}"
            if kind == "density":
                argv = (kind, f"--poly={_ints(f)}", "--prime-bound", str(DENSITY_PRIME_BOUND))
                pool.append(Request(kind, argv, label, prime_bound=DENSITY_PRIME_BOUND, poly=tuple(f)))
                continue
            d = len(f) - 1
            coeffs = tuple(-f[d - i] for i in range(1, d + 1))
            initial = tuple(rng.randint(-9, 9) for _ in range(d))
            argv = _spec_argv(kind, coeffs, initial) + ("--prime-bound", str(ALGEBRA_PRIME_BOUND))
            pool.append(Request(kind, argv, label, coeffs, initial, prime_bound=ALGEBRA_PRIME_BOUND))
    return pool


# -- power -------------------------------------------------------------------

# (t, horizon) pairs: the sampled indices N**t reach 10^4 to 3*10^4.
POWER_SIZES = ((2, 100), (2, 150), (3, 22), (3, 30), (4, 10), (4, 13))
POWER_ORDERS = (2, 3, 4)


def power_pool(rng: random.Random, workdir: Path) -> list[Request]:
    pool = []
    for (t, horizon), order in itertools.product(POWER_SIZES, POWER_ORDERS):
        coeffs, initial = _recurrence(rng, order)
        argv = ("power", "--t", str(t)) + _spec_argv("power", coeffs, initial)[1:] + ("--horizon", str(horizon))
        pool.append(Request("power", argv, f"power t={t} order-{order}", coeffs, initial, horizon, t=t))
    return pool


POOLS = {"scan": scan_pool, "algebra": algebra_pool, "power": power_pool}


def build(workload: str, seed: int, workdir: Path) -> list[Request]:
    """The workload's request pool for `seed`, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    pool = POOLS[workload](rng, workdir)
    rng.shuffle(pool)
    return pool
