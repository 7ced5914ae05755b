"""Shared plumbing: exceptions, check reports, enumeration budgets, and the
cached-property idiom of the immutable structures."""

from __future__ import annotations

import functools
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Any

#: Default cap on the number of candidates any single search may enumerate.
DEFAULT_BUDGET = 4096

BUDGET_ENV_VAR = "QUANTCAT_BUDGET"


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        too_long = digits_past_limit(raw)
        problem = (
            f"a shorter integer, got {too_long}" if too_long
            else f"an integer, got {abbreviated(raw)}"
        )
        raise ValueError(f"{BUDGET_ENV_VAR} must be {problem}") from None
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def abbreviated(text: str) -> str:
    """``text`` quoted for a message; past 40 characters, its first 20 and
    its length, so that a long input is not echoed back whole."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def digits_past_limit(text: str) -> str | None:
    """``"N digits (at most L per integer)"`` when the longest run of digits
    (and underscores) in ``text`` is past ``int``'s string-conversion digit
    limit L, which ``int`` meets one run at a time; ``None`` otherwise."""
    limit = int_digit_limit()
    runs = re.findall(r"[\d_]+", text)
    digits = max((len(run.replace("_", "")) for run in runs), default=0)
    if limit and digits > limit:
        return f"{digits} digits (at most {limit} per integer)"
    return None


def int_digit_limit() -> int:
    """The most digits ``int`` converts from or to a string; 0: no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


class cached_property(functools.cached_property):
    """``functools.cached_property`` storing with ``setattr``, for structures
    not mutated after construction; later reads find the plain attribute.
    The stdlib one writes through ``instance.__dict__``, which on CPython
    3.11 moves the object's attributes out of inline storage into a dict,
    and every later attribute read on the object takes a slower path."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        setattr(instance, self.attrname, value)
        return value


class CarrierMismatch(ValueError):
    """An element was used with a quantale it does not belong to."""


class PreconditionError(ValueError):
    """A declared precondition of an operation failed; carries the evidence."""

    def __init__(self, message: str, value: Any = None):
        super().__init__(message)
        self.value = value


class ConstructionError(RuntimeError):
    """A construction whose correctness is asserted produced invalid output."""


class BudgetExceeded(Exception):
    """An enumeration would exceed the configured candidate budget."""

    def __init__(self, what: str, needed: int, budget: int, skipped: Any = None):
        self.what = what
        self.needed = needed
        self.budget = budget
        self.skipped = skipped
        msg = f"budget exceeded: {what} needs {needed} candidates, budget is {budget}"
        if skipped is not None:
            msg += f" (skipped: {skipped})"
        super().__init__(msg)


def guard_count(needed: int, budget: int, what: str, skipped: Any = None) -> None:
    if needed > budget:
        raise BudgetExceeded(what, needed, budget, skipped)


@dataclass
class Check:
    """One named pass/fail verdict, with a witness when it fails."""

    name: str
    ok: bool
    witness: Any = None

    def describe(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        if self.witness is None:
            return f"{self.name}: {mark}"
        return f"{self.name}: {mark} ({self.witness})"


@dataclass
class Report:
    """A bundle of checks; ``ok`` iff every check passed."""

    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, witness: Any = None) -> None:
        self.checks.append(Check(name, bool(ok), witness))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def describe(self) -> str:
        return "; ".join(c.describe() for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok
