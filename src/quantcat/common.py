"""Shared plumbing: exceptions (each fault of the input is an ``InputError``,
raised where it is checked), check reports, enumeration budgets, the
cached-property idiom of the immutable structures, and the lazy import of a
module that a run may not use."""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import re
import sys

#: Default cap on the number of candidates any single search may enumerate.
DEFAULT_BUDGET = 4096

#: The ambients of a sequence: normed sets, V-categories and one normed
#: category.  The instance format reads them without loading ``seqlim``.
AMBIENTS = NSET, DSET, NCAT = ("nset", "dset", "ncat")

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
        raise InputError(f"{BUDGET_ENV_VAR} must be {problem}") from None
    if value <= 0:
        raise InputError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def abbreviated(text: str) -> str:
    """``text`` quoted for a message; past 40 characters, its first 20 and
    its length, so that a long input is not echoed back whole."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


def echoed(value) -> str:
    """A rejected value as a message shows it: a string quoted as Python
    quotes it, anything else as JSON (``{"y": 1}``, ``true``, ``null``)."""
    return repr(value) if type(value) is str else json.dumps(value, default=repr)


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


def lazily(name: str):
    """The module ``quantcat.<name>``, as imported if it is; otherwise
    registered in ``sys.modules`` so that its code runs on the first access
    to one of its attributes."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


class InputError(ValueError):
    """A fault of the input at ``path``, the keys of the instance-file field
    below a constructed object (``("tail", "endo")``) or, once ``at`` has
    located it, from the JSON root, under the task whose op is ``op``; an
    unreadable file or a bad budget variable has no path.  ``str`` is the
    bare problem, ``describe`` the located line."""

    def __init__(self, problem: str, *path):
        super().__init__(problem)
        self.path, self.op = (list(path) if path else None), None

    def at(self, *keys, op=None) -> InputError:
        """This error, ``keys`` further from the root."""
        self.path, self.op = [*keys, *(self.path or ())], op or self.op
        return self

    def describe(self) -> str:
        if self.path is None:
            return self.args[0]
        where = "".join(
            f"[{key}]" if type(key) is int
            else f".{key}" if key.isidentifier() else f"[{json.dumps(key)}]"
            for key in self.path
        )
        op = f" ({self.op})" if self.op else ""
        return f"{where.lstrip('.') or '$'}{op}: {self.args[0]}"


class CarrierMismatch(InputError):
    """An element was used with a quantale it does not belong to."""


class PreconditionError(ValueError):
    """A declared precondition of an operation failed; carries the evidence."""

    def __init__(self, message: str, value: object = None):
        super().__init__(message)
        self.value = value


class ConstructionError(RuntimeError):
    """A construction whose correctness is asserted produced invalid output."""


class BudgetExceeded(Exception):
    """An enumeration would exceed the configured candidate budget."""

    def __init__(self, what: str, needed: int, budget: int, skipped: object = None):
        self.what = what
        self.needed = needed
        self.budget = budget
        self.skipped = skipped
        msg = f"budget exceeded: {what} needs {needed} candidates, budget is {budget}"
        if skipped is not None:
            msg += f" (skipped: {skipped})"
        super().__init__(msg)


def guard_count(needed: int, budget: int, what: str, skipped: object = None) -> None:
    if needed > budget:
        raise BudgetExceeded(what, needed, budget, skipped)


class Record:
    """A plain record of the attributes named by ``_fields``: equal to a
    record of its own class with equal fields, and written
    ``Class(field=value, ...)``."""

    _fields: tuple = ()
    __hash__ = None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Check(Record):
    """One named pass/fail verdict, with a witness when it fails."""

    _fields = ("name", "ok", "witness")

    def __init__(self, name: str, ok: bool, witness: object = None):
        self.name, self.ok, self.witness = name, ok, witness

    def describe(self) -> str:
        mark = "pass" if self.ok else "FAIL"
        if self.witness is None:
            return f"{self.name}: {mark}"
        return f"{self.name}: {mark} ({self.witness})"


class Report(Record):
    """A bundle of checks; ``ok`` iff every check passed."""

    _fields = ("checks",)

    def __init__(self, checks: list[Check] | None = None):
        self.checks = [] if checks is None else checks

    def add(self, name: str, ok: bool, witness: object = None) -> None:
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
