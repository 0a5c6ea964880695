"""Dold-condition analysis for integer linear recurrent sequences."""

from .dold import (
    ClassificationRow,
    DoldScan,
    DoldViolation,
    FailReport,
    PowerBound,
    classify,
    fail_report,
    mobius_sum,
    mobius_sums,
    power_fail_bound,
    prime_power_check,
    scan,
    table_bounds,
)
from .factorint import (
    Factorization,
    FactorPattern,
    degree_pattern,
    factor_mod_p,
    factor_over_Z,
    hensel_lift,
    irreducibility_witness,
    root_density,
)
from .numth import PrimeSieve, legendre, mobius, p_valuation, primes_up_to, radical_int
from .polyring import discriminant, power_sums, resultant, squarefree_part
from .recurrence import (
    Analysis,
    RecurrenceSpec,
    SequenceView,
    StructureVerdict,
    TraceSequence,
    analyze,
    char_poly,
    convenient_check,
    make_recurrence,
    power_subsequence,
    raw_view,
    scaled_view,
    sequence_view,
    square_disc_family,
    structure_test,
    trace_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
