"""Forward-time step arithmetic and half-open step intervals.

Steps are 1-based ordinal indices. The engine attaches no wall-clock
meaning to them; the log monitor maps timestamps onto steps at its own
boundary. Intervals are half-open ([start, end) contains start but not
end) and may leave the end unbounded. The steps of a bounded one are
`range(*interval)`.

`StepInterval` is a named tuple, built on every decision: immutable,
equal to the plain tuple `(start, end)`, and changed with `_replace`. Its
check runs in `__new__`; `_replace` and `_make` skip it, so the engine
never uses them on intervals. `in` tests whether a step lies inside the
interval, not whether it is one of the two fields; a value that is not
exactly an int, a bool or "x" included, lies in no interval. `parse_step`
refuses any token that is not a step token, a value that is not a `str`
included, with an `IntervalError`.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import IntervalError

# A step token is 'T' and decimal digits, nothing else: 'T1x' is not one.
STEP_TOKEN = re.compile(r"T([0-9]+)\Z")


def advance(step: int, count: int = 1) -> int:
    """Return the step `count` steps after `step` (its successor by default)."""
    for value in (step, count):
        if not isinstance(value, int) or isinstance(value, bool):
            raise IntervalError(f"steps are counted in whole numbers, got {value!r}")
    if step < 1:
        raise IntervalError(f"steps are 1-based, got {step}")
    if count < 1:
        raise IntervalError(f"the clock only moves forward, got {count} steps")
    return step + count


def format_step(step: int) -> str:
    return f"T{step}"


def parse_step(token: str) -> int:
    """Parse a textual step token such as 'T4'."""
    m = STEP_TOKEN.match(token) if isinstance(token, str) else None
    if m is None:
        raise IntervalError(f"not a step token: {token!r}")
    try:
        step = int(m.group(1))
    except ValueError:  # more digits than int() converts (sys.set_int_max_str_digits)
        raise IntervalError(f"step token has too many digits ({len(token) - 1})") from None
    if step < 1:
        raise IntervalError(f"time steps start at T1, found {token!r}")
    return step


class _Bounds(NamedTuple):
    start: int
    end: int | None = None


class StepInterval(_Bounds):
    """Half-open run of steps [start, end); end of None means unbounded."""

    __slots__ = ()

    def __new__(cls, start: int, end: int | None = None) -> "StepInterval":
        # Exactly int: a bool is an int too, but counts no step.
        if type(start) is not int or end is not None and type(end) is not int:
            raise IntervalError(
                f"interval bounds must be whole steps, got [{start!r}, {end!r})")
        if start < 1:
            raise IntervalError(f"interval start must be >= 1, got {start}")
        if end is not None and end <= start:
            raise IntervalError(f"empty interval [{format_step(start)}, {format_step(end)})")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def single(cls, step: int) -> "StepInterval":
        if type(step) is not int:  # before `step + 1`, which may raise anything
            raise IntervalError(f"a step must be a whole number, got {step!r}")
        return cls(step, step + 1)

    def __contains__(self, step: object) -> bool:
        if type(step) is not int or step < self.start:
            return False
        return self.end is None or step < self.end

    def __str__(self) -> str:
        hi = format_step(self.end) if self.end is not None else "..."
        return f"[{format_step(self.start)}, {hi})"
