"""The one work budget: a prefix table (`PolyKind.table_work`), the Gamma
ratio walk (`coeffs._ratio_work`, charged by `coeffs._ratios` itself), a
`verify` sweep (`gammanum.check_sweep`), a band walk (`linalg._walk_estimates`)
and an elimination (`linalg._elimination_work`) each estimate their work before
any of it runs, and `charge` refuses an estimate over `MAX_WORK`.  Each check
is charged on its own.  `hold` refuses a grid, a coefficient sweep's rows or a
walk's terms over `MAX_CELLS`.

A unit is one product, sum or exact quotient of small integers.  An operation
on b-bit operands weighs `weight(b)` units, and each estimator adds the fixed
cost of its own steps, such as a `Fraction` operation or an mpmath call.  On
2-core x86-64 (CPython 3.11, pure-python mpmath) a unit took 0.12-0.69 us of
CPU time over 72 tables, walks, eliminations and sweeps of all three families
that ran 0.05-18 s, so a check under the cap takes about 28 s or less.
"""

from __future__ import annotations

from .errors import GuardExceededError

#: Most decimal digits of a high-precision value: `verify --family plain
#: --n-max 2 --m-max 2` takes about 3 s at 1000 digits and 19 s at 2000.
MAX_DIGITS = 1000

#: Most cells of one output, a memory cap: at the cap a bivariate grid with
#: the oracle in JSON (`--N 2:317 --M 1:316`) peaks at 119 MB (1.1 s), and the
#: prior bound at 50 digits at 140 MB (4.2 s; 2-core x86-64, CPython 3.11).
MAX_CELLS = 100_000

#: Digits per extra cell: a record of d digits weighs 1 + d // DIGITS_PER_CELL
#: cells.  At 1000 digits a prior row took five times the time and memory of
#: one at 50.
DIGITS_PER_CELL = 250

#: Most units one check may be estimated at.
MAX_WORK = 4 * 10**7

#: Operand bits at which a product costs twice a small one; beyond, its cost
#: grows quadratically, as CPython's long division and gcd do.
KNEE_BITS = 512


def weight(bits: int) -> int:
    """Units of one product or quotient of integers of up to `bits` bits."""
    return 1 + bits * bits // KNEE_BITS**2


def charge(estimate: int, what: str) -> None:
    """Refuse `what` when its estimate is over the cap, read at call time."""
    if estimate > MAX_WORK:
        raise GuardExceededError(f"{what} is over the work budget {MAX_WORK}")


def hold(count: int, digits: int, what: str) -> None:
    """Refuse `count` records of about `digits` digits each over the cell cap."""
    weight = 1 + digits // DIGITS_PER_CELL
    if count * weight > MAX_CELLS:
        each = f" of weight {weight}" if weight > 1 else ""
        raise GuardExceededError(f"{count} {what}{each} are over the budget {MAX_CELLS}")
