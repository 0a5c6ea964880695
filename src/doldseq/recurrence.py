"""Integer linear recurrent sequences and their structural decomposition.

Indexing starts at n = 1 throughout.  A sequence view generates a
recurrence's exact terms and caches them; ``power_terms`` samples a view
at n**t, and ``exact_terms`` converts given values.  The structure test
decides whether a sequence is an exact rational combination of the trace
sequences of the distinct irreducible factors of its characteristic
polynomial, which is equivalent to the fail factor being finite.

Views hold their values as exact integral Decimals (exponent 0, never
negative zero) rather than ints: libmpdec stores them in base 10^19, so
adding them costs about what int addition costs while printing and
parsing them take linear time instead of quadratic.  All arithmetic on
them runs under ``localcontext(EXACT)``, which traps any rounding; the
caller's decimal context is never used or changed.  ``term(n)`` returns
an int; ``terms(N)`` returns the Decimals A_1..A_N.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation, Rounded, localcontext
from fractions import Fraction
from typing import NamedTuple

from .factorint import MAX_DEGREE, Factorization, _check_prime_bound, factor_over_Z, irreducibility_witness
from .numth import UnsupportedSizeError
from .polyring import IntPoly, degree, discriminant, normalize, power_sums

MAX_COEFF = 10**6  # analyze refuses a larger |r_i| before any work
# Storage budgets of a view, each term charged 8 * v.__sizeof__() bits: for one term, and for its whole cache.
MAX_TERM_BITS = 2**20
MAX_CACHE_BITS = 2**30

# Integer arithmetic on integral Decimals: any rounding raises instead.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, InvalidOperation])
_ZERO = Decimal(0)
_ONE = Decimal(1)


def _exact(value) -> Decimal:
    """An int or an integral Decimal as an exact Decimal with exponent 0 and no negative zero."""
    if type(value) is Decimal and value and value.same_quantum(_ONE):
        return value  # the common case, kept as it is
    if not isinstance(value, Decimal):
        return Decimal(operator.index(value))
    with localcontext(EXACT) as ctx:
        if not value.is_finite() or value != value.to_integral_value():
            raise ValueError(f"not an integer: {value!r}")
        ctx.traps[Rounded] = False  # dropping the trailing zeros of 3.00 is rounding, but exact
        value = value.quantize(_ONE)
    return value or _ZERO


class RecurrenceSpec(NamedTuple):
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
    """Everything the structural steps need, computed once per request, after the envelope is checked."""
    # the O(d^3) discriminant runs before factor_over_Z could refuse the degree
    if spec.order > MAX_DEGREE:
        raise UnsupportedSizeError(f"degree {spec.order} exceeds supported envelope {MAX_DEGREE}")
    if any(abs(c) > MAX_COEFF for c in spec.coefficients):
        raise UnsupportedSizeError(f"coefficient magnitude exceeds supported envelope {MAX_COEFF}")
    cpoly = char_poly(spec)
    disc = discriminant(cpoly)
    return Analysis(spec, cpoly, disc, factor_over_Z(cpoly, disc=disc))


class SequenceView:
    """Lazily generated, cached exact terms of a recurrence, indexed from 1.

    The cache is grow-only, and two guards bound its memory, both over
    one measure, the storage of a term's object, 8 * v.__sizeof__() bits:
    generation stops at the first term whose storage exceeds MAX_TERM_BITS,
    and at the first that takes the cache past MAX_CACHE_BITS in total.
    The storage counts the coefficient's words as well as the object
    itself: a term of one digit still costs about a hundred bytes, so a
    sequence of short terms meets the cache budget too.  (sys.getsizeof
    gives the same figure, plus any GC header, at several times the cost.)
    The per-term budget also bounds the time a step takes, as huge
    coefficients make each term far longer than the last.
    """

    def __init__(self, spec: RecurrenceSpec):
        self.spec = spec
        self._cache: list[Decimal] = [_exact(v) for v in spec.initial]
        # (i, r_i) for each nonzero coefficient: A_k = sum r_i * A_(k-i)
        self._steps = [(i, _exact(c)) for i, c in enumerate(spec.coefficients, start=1) if c]
        # bytes the cache may still take
        self._room = MAX_CACHE_BITS // 8 - sum(v.__sizeof__() for v in self._cache)

    def terms(self, count: int) -> list[Decimal]:
        """A_1..A_count as exact integral Decimals."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._prefix(count)[:count]

    def term(self, n: int) -> int:
        """A_n as an int."""
        if n < 1:
            raise ValueError("indices start at 1")
        return int(self._prefix(n)[n - 1])

    def _prefix(self, count: int) -> list[Decimal]:
        """A list whose first count entries are A_1..A_count (the cache itself, not a copy)."""
        cache = self._cache
        if len(cache) < count:
            steps = self._steps
            term_room = MAX_TERM_BITS // 8  # bytes one term may take
            room = self._room
            with localcontext(EXACT):
                try:
                    for k in range(len(cache), count):
                        value = _ZERO  # a zero sum stays +0 even when a product is -0
                        for i, c in steps:
                            value += c * cache[k - i]
                        size = value.__sizeof__()
                        if size > term_room:
                            raise UnsupportedSizeError(
                                f"term {k + 1} needs over {MAX_TERM_BITS} bits (per-term budget)"
                            )
                        if size > room:
                            raise UnsupportedSizeError(
                                f"terms 1 to {k + 1} need over {MAX_CACHE_BITS} bits (cache budget)"
                            )
                        room -= size
                        cache.append(value)
                finally:
                    self._room = room
        return cache


def sequence_view(spec: RecurrenceSpec) -> SequenceView:
    """SequenceView(spec) under a second name; its only remaining caller is perfbench/selftest.py."""
    return SequenceView(spec)


def exact_terms(values: Iterable[int | Decimal]) -> list[Decimal]:
    """Ints or integral Decimals as exact integral Decimals; anything else raises ValueError or TypeError."""
    return [_exact(v) for v in values]


def power_terms(view: SequenceView, t: int, count: int) -> list[Decimal]:
    """A_(n**t) for n = 1..count, read from view's cache without copying it."""
    if t < 1:
        raise ValueError("exponent must be positive")
    values = view._prefix(count**t)
    return [values[n**t - 1] for n in range(1, count + 1)]


def trace_sequence(factor: IntPoly) -> SequenceView:
    """The power sums of the roots of a monic irreducible polynomial, as the view of their recurrence."""
    f = normalize(factor)
    d = degree(f)
    if d < 1:
        raise ValueError("generator must be nonconstant")
    coeffs = tuple(-f[d - i] for i in range(1, d + 1))
    spec = RecurrenceSpec(coeffs, tuple(power_sums(f, d)))
    return SequenceView(spec)


class StructureVerdict(NamedTuple):
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


def structure_test(analysis: Analysis) -> StructureVerdict:
    """Decide whether the sequence is a rational combination of trace sequences.

    Takes the distinct irreducible factors C_1..C_m of the characteristic
    polynomial, builds their root power sums V^(i), and solves the exact
    d x m linear system U_n = sum l_i V^(i)_n for n = 1..d.  Both sides
    satisfy the order-d recurrence (each C_i divides the characteristic
    polynomial), so agreement on d initial terms extends to every n.

    The equations are reduced in order against the rows kept so far, and
    the first that reduces to 0 = nonzero is the refutation index: the
    least n whose prefix system is inconsistent.  A consistent system has
    one solution, so no free variable is ever chosen: the roots of the
    C_i are distinct and nonzero (r_d != 0), so the columns V^(i) over
    n = 1..d are linearly independent.
    """
    spec = analysis.spec
    gens = [list(f) for f, _ in analysis.factorization.factors]
    d = spec.order
    m = len(gens)
    columns = [power_sums(g, d) for g in gens]
    kept: list[tuple[int, list[Fraction]]] = []  # (pivot column, row scaled to 1 there)
    for n in range(d):
        row = [Fraction(column[n]) for column in columns] + [Fraction(spec.initial[n])]
        for col, pivot_row in kept:
            if factor := row[col]:
                row = [a - factor * b for a, b in zip(row, pivot_row)]
        col = next((i for i in range(m) if row[i]), None)
        if col is None:
            if row[m]:
                return StructureVerdict(almost=False, refutation_index=n + 1)
            continue
        kept.append((col, [a / row[col] for a in row]))
    solution = [Fraction(0)] * m
    for col, row in reversed(kept):
        solution[col] = row[m] - sum(row[i] * solution[i] for i in range(m) if i != col)
    coeffs = tuple((tuple(g), l) for g, l in zip(gens, solution))
    return StructureVerdict(almost=True, coefficients=coeffs)


def convenient_check(analysis: Analysis, prime_bound: int):
    """Search for a prime certifying irreducibility mod infinitely many primes.

    Returns ('certified', p), ('no-witness', bound) or ('not-convenient',
    None): a repeated irreducible factor persists modulo every prime not
    dividing the discriminant, so a non-squarefree characteristic
    polynomial can never qualify.  A product over Z stays a product
    modulo every prime, so a reducible one has no witness and is not
    searched.  A bound above MAX_PRIME_BOUND raises UnsupportedSizeError
    whatever the polynomial, so no report names a search that never ran.
    """
    _check_prime_bound(prime_bound)
    if analysis.disc == 0:
        return ("not-convenient", None)
    witness = irreducibility_witness(analysis.cpoly, prime_bound) if analysis.factorization.is_irreducible() else None
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
