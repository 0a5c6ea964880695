"""Integer linear recurrent sequences and their structural decomposition.

Indexing starts at n = 1 throughout.  A sequence view hands out exact
terms and caches them; power-subsequence views sample the base view at
n**t.  The structure test decides whether a sequence is an exact rational
combination of the trace sequences of the distinct irreducible factors of
its characteristic polynomial, which is equivalent to the fail factor
being finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .factorint import Factorization, factor_over_Z, irreducibility_witness
from .polyring import IntPoly, degree, discriminant, normalize, power_sums

DEFAULT_MAX_BITS = 2**20


class TermSizeExceeded(RuntimeError):
    """A requested term would exceed the per-term bit budget."""


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order-d recurrence U_n = sum r_i U_{n-i} with initial terms U_1..U_d."""

    coefficients: tuple[int, ...]
    initial: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients)


def make_recurrence(coefficients: list[int], initial: list[int]) -> RecurrenceSpec:
    if len(coefficients) != len(initial):
        raise ValueError("coefficient and initial-term lists must have equal length")
    if not coefficients:
        raise ValueError("order must be at least 1")
    if coefficients[-1] == 0:
        raise ValueError("degenerate order: last coefficient is zero; shorten the recurrence")
    return RecurrenceSpec(tuple(coefficients), tuple(initial))


def char_poly(spec: RecurrenceSpec) -> IntPoly:
    """x^d - r_1 x^(d-1) - ... - r_d, ascending coefficient order."""
    d = spec.order
    return normalize([-spec.coefficients[d - 1 - i] for i in range(d)] + [1])


class Analysis(NamedTuple):
    """A recurrence with its characteristic polynomial, discriminant and factorization over Z."""

    spec: RecurrenceSpec
    cpoly: IntPoly
    disc: int
    factorization: Factorization


def analyze(spec: RecurrenceSpec) -> Analysis:
    """Everything the structural steps need, computed once per request."""
    cpoly = char_poly(spec)
    disc = discriminant(cpoly)
    return Analysis(spec, cpoly, disc, factor_over_Z(cpoly, disc=disc))


class SequenceView:
    """Lazily generated, cached exact terms indexed from 1.

    Backed by a recurrence, by a power subsequence of another view, or by
    raw ingested terms.  The cache is grow-only; a per-term bit guard
    bounds memory.
    """

    def __init__(
        self,
        *,
        spec: RecurrenceSpec | None = None,
        base: "SequenceView | None" = None,
        exponent: int | None = None,
        raw: list[int] | None = None,
        max_bits: int = DEFAULT_MAX_BITS,
    ):
        self.spec = spec
        self.base = base
        self.exponent = exponent
        self.raw = list(raw) if raw is not None else None
        self.max_bits = max_bits
        self._cache: list[int] = list(spec.initial) if spec is not None else []

    def term(self, n: int) -> int:
        if n < 1:
            raise ValueError("indices start at 1")
        if self.raw is not None:
            if n > len(self.raw):
                raise IndexError(f"raw sequence has only {len(self.raw)} terms")
            return self.raw[n - 1]
        if self.base is not None:
            return self.base.term(n**self.exponent)
        assert self.spec is not None
        coeffs = self.spec.coefficients
        d = self.spec.order
        while len(self._cache) < n:
            value = sum(c * self._cache[-i - 1] for i, c in enumerate(coeffs))
            if value.bit_length() > self.max_bits:
                raise TermSizeExceeded(
                    f"term {len(self._cache) + 1} needs {value.bit_length()} bits (budget {self.max_bits})"
                )
            self._cache.append(value)
        return self._cache[n - 1]


def sequence_view(spec: RecurrenceSpec, max_bits: int = DEFAULT_MAX_BITS) -> SequenceView:
    return SequenceView(spec=spec, max_bits=max_bits)


def raw_view(terms: list[int], max_bits: int = DEFAULT_MAX_BITS) -> SequenceView:
    return SequenceView(raw=terms, max_bits=max_bits)


def power_subsequence(view: SequenceView, t: int) -> SequenceView:
    """View whose n-th term is the base view's term at n**t."""
    if t < 1:
        raise ValueError("exponent must be positive")
    if t == 1:
        return view
    return SequenceView(base=view, exponent=t, max_bits=view.max_bits)


def scaled_view(view: SequenceView, c: int, horizon: int) -> SequenceView:
    """Raw view of c * view over 1..horizon (used by the multiplier checks)."""
    return raw_view([c * view.term(n) for n in range(1, horizon + 1)], max_bits=view.max_bits)


@dataclass(frozen=True)
class TraceSequence:
    """Power sums of the roots of a monic irreducible polynomial."""

    generator: tuple[int, ...]
    view: SequenceView


def trace_sequence(factor: IntPoly, max_bits: int = DEFAULT_MAX_BITS) -> TraceSequence:
    f = normalize(factor)
    d = degree(f)
    if d < 1:
        raise ValueError("generator must be nonconstant")
    coeffs = tuple(-f[d - i] for i in range(1, d + 1))
    spec = RecurrenceSpec(coeffs, tuple(power_sums(f, d)))
    return TraceSequence(tuple(f), sequence_view(spec, max_bits=max_bits))


@dataclass(frozen=True)
class StructureVerdict:
    """Result of the trace-decomposition test.

    almost is True when the sequence equals sum l_i * V^(i) with V^(i)
    the trace sequences of the distinct irreducible factors; then
    ``coefficients`` pairs each factor with its rational l_i.  Otherwise
    ``refutation_index`` is the earliest initial-segment equation that is
    inconsistent.
    """

    almost: bool
    coefficients: tuple[tuple[tuple[int, ...], Fraction], ...] = ()
    refutation_index: int | None = None


def _solve_prefix(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solution of an overdetermined exact system, or None if inconsistent.

    Free variables are set to zero; every equation is verified.
    """
    m = len(rows[0]) if rows else 0
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(m):
        pivot = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][col]
        aug[r] = [a / inv for a in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][m] != 0:
            return None
    sol = [Fraction(0)] * m
    for i, col in enumerate(pivots):
        sol[col] = aug[i][m]
    return sol


def structure_test(analysis: Analysis) -> StructureVerdict:
    """Decide whether the sequence is a rational combination of trace sequences.

    Takes the distinct irreducible factors C_1..C_m of the characteristic
    polynomial, builds their root power sums V^(i), and solves the exact
    d x m linear system U_n = sum l_i V^(i)_n for n = 1..d.  Both sides
    satisfy the order-d recurrence (each C_i divides the characteristic
    polynomial), so agreement on d initial terms extends to every n.
    """
    spec = analysis.spec
    gens = [list(f) for f, _ in analysis.factorization.factors]
    d = spec.order
    columns = [power_sums(g, d) for g in gens]
    rows = [[Fraction(columns[i][n]) for i in range(len(gens))] for n in range(d)]
    rhs = [Fraction(u) for u in spec.initial]
    solution = _solve_prefix(rows, rhs)
    if solution is None:
        for n in range(1, d + 1):
            if _solve_prefix(rows[:n], rhs[:n]) is None:
                return StructureVerdict(almost=False, refutation_index=n)
        return StructureVerdict(almost=False, refutation_index=d)
    coeffs = tuple((tuple(g), l) for g, l in zip(gens, solution))
    return StructureVerdict(almost=True, coefficients=coeffs)


def convenient_check(analysis: Analysis, prime_bound: int):
    """Search for a prime certifying irreducibility mod infinitely many primes.

    Returns ('certified', p), ('no-witness', bound) or ('not-convenient',
    None): a repeated irreducible factor persists modulo every prime not
    dividing the discriminant, so a non-squarefree characteristic
    polynomial can never qualify.  A product over Z stays a product
    modulo every prime, so a reducible one has no witness and is not
    searched.
    """
    if analysis.disc == 0:
        return ("not-convenient", None)
    irreducible = analysis.factorization.is_irreducible()
    witness = irreducibility_witness(analysis.cpoly, prime_bound, analysis.disc) if irreducible else None
    if witness is None:
        return ("no-witness", prime_bound)
    return ("certified", witness)


def square_disc_family(delta: int) -> RecurrenceSpec:
    """The order-2 family with square discriminant delta**2 and maximal fail radical.

    Coefficients (delta + 2, -(delta + 1)); the closed form is
    1/delta + ((delta - 1)/delta) * (delta + 1)**n.  The construction is
    stated with a term at n = 0; one forward step rebases it to start at 1.
    """
    if delta < 1:
        raise ValueError("delta must be positive")
    u1 = delta
    u2 = (delta + 2) * delta - (delta + 1)
    return make_recurrence([delta + 2, -(delta + 1)], [u1, u2])
