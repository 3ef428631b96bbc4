"""Exception types shared across the toolkit.

Every error that carries a witness (a failing basis triple, a parse
position, ...) stores it as plain attributes so callers can report it
without string-scraping.
"""

from __future__ import annotations

from typing import Callable

MAX_COORDINATES = 200_000  # size guard for chain, quotient and state spaces


class HochkitError(Exception):
    """Base class for all toolkit errors."""


# --- validation defects -------------------------------------------------

class AlgebraDefect(HochkitError):
    """An algebra table violates one of its structural invariants."""


class NotAssociative(AlgebraDefect):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"associativity fails on (generator {i}, basis {j}, basis {k})")
        self.triple = (i, j, k)


class UnitLawFails(AlgebraDefect):
    def __init__(self, i: int):
        super().__init__(f"unit law fails on basis element {i}")
        self.index = i


class DegenerateFrobeniusForm(AlgebraDefect):
    def __init__(self, detail: str = ""):
        super().__init__("frobenius trace form is degenerate or not symmetric"
                         + (f": {detail}" if detail else ""))


class NotAGroup(AlgebraDefect):
    def __init__(self, reason: str):
        super().__init__(f"multiplication table is not a group: {reason}")
        self.reason = reason


class ModuleDefect(HochkitError):
    """A module action violates the representation axioms."""


# --- precondition errors ------------------------------------------------

class AlgebraMismatch(HochkitError):
    pass


class MiddleNotSemisimple(HochkitError):
    """Underived tensor over a non-semisimple algebra would be homologically
    wrong; the operation refuses instead of silently returning garbage."""


class MissingSerreData(HochkitError):
    pass


class MissingAugmentation(HochkitError):
    pass


class MissingSimples(HochkitError):
    """The operation needs a registered complete list of simple modules."""


class NotIntertwiner(HochkitError):
    pass


class ShapeMismatch(HochkitError):
    pass


class DegreeUnderflow(HochkitError):
    pass


class DegreeCapExceeded(HochkitError):
    """A construction was refused before it was built: its size is above a guard."""


def check_size(size: int, bound: int, what: Callable[[], str]) -> None:
    """Refuse work of `size` above `bound` before it is built.  `what()`
    names what was about to be built, with its size; it is called only on
    refusal, so a guard on a hot path formats no message."""
    if size > bound:
        raise DegreeCapExceeded(f"{what()}, above the guard {bound}")


class SingularGram(HochkitError):
    pass


class AugmentationNot1Dim(HochkitError):
    pass


class RoutesDisagree(HochkitError):
    """Two independent computations of the same quantity differ.  This is an
    internal-consistency failure and always indicates a bug; it is never
    caught and swallowed inside the library."""


class ParseError(HochkitError):
    """Unreadable input; the message names its line and column where known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        where = [f"{k} {v}" for k, v in (("line", line), ("col", col)) if v is not None]
        super().__init__(f"{message} ({', '.join(where)})" if where else message)
        self.line = line
        self.col = col


class ArityMismatch(HochkitError):
    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step
