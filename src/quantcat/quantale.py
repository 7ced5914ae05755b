"""Exact arithmetic for commutative unital quantales.

Two carrier realizations:

* ``FiniteQuantale`` — a finite complete lattice given by tables; elements are
  interned as indices into the name list, equality is index equality.
* ``LawvereQuantale`` — the extended nonnegative rationals ``[0, inf]`` ordered
  by the *greater-or-equal* relation (so join is numeric min and bottom is
  ``inf``), with tensor either addition (unit 0) or multiplication (unit 1).
  Values are ``fractions.Fraction`` or the ``INF`` mark; no floats anywhere.

All operations are pure; quantale objects are immutable after construction.

Each class runs the two matrix laws of the distributor calculus with one
hook each: ``compose_matrices``, the join-of-tensors product that
``vcat.compose_vdist`` runs, and ``first_intransitive``, the first triple
that breaks the triangle law, which ``vcat.validate_vcat`` reports; a third,
``meet_of_homs``, is the residuation meet ⋀ hom(u, v) that every map norm
and both Isbell conjugates fold.  A finite quantale reads its tables.  In
additive mode on the extended rationals the matrix hooks work on integers,
by the scaling lemma: for an integer L > 0, u ↦ L·u is an order isomorphism
of [0, inf) onto L·[0, inf) with L·(u + v) = L·u + L·v.  With L the lcm of
the finite denominators every L·u is an integer, so the min-plus product
and the triangle law run on ``int``s (``_scaled``), and a composite entry is
divided by L once at the end: exact, with one ``Fraction`` per distinct
entry.  The multiplicative mode keeps the ``Fraction`` fold.

The min-plus product runs on packed rows, by the packed-row lemma: let inf
be the scaled integer of ``INF`` (above every sum of two finite scaled
entries) and w = bit_length(2·inf) + 1.  Every scaled entry, and every sum
of two, lies in [0, 2·inf] ⊂ [0, 2^(w−1)).  So p of them packed into w-bit
fields of one int add field by field with no carry out of a field, and with
H the top bit of every field, each field of (b | H) − s is
2^(w−1) + b_f − s_f ∈ [1, 2^w): no borrow crosses a field, and its top bit
is set iff s_f ≤ b_f.  That mask takes the fieldwise min of p sums with a
handful of big-int operations.  w grows with L, so any denominators run the
same exact code.

``join``, ``meet`` and ``meet_of_homs`` compare by the cross-multiplication
lemma: for integers a, c and b, d > 0, a/b < c/d iff a·d < c·b (multiply by
b·d > 0).  So a fold keeps its best value as a pair of ints and needs no
common denominator; ``meet_of_homs`` writes hom(un/ud, vn/vd) as
(vn·ud − un·vd)/(vd·ud) or (vn·ud)/(vd·un), and builds one ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import lcm
from operator import lshift, sub
from typing import Any, Iterable, Sequence

from .common import (
    CarrierMismatch,
    Report,
    abbreviated,
    digits_past_limit,
    int_digit_limit,
)


class _Infinity:
    """The top-of-the-reals mark; a singleton, compared by identity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __reduce__(self):
        return (_Infinity, ())


INF = _Infinity()


def as_extended_rational(x: Any) -> Fraction | _Infinity:
    """Parse ``x`` into an exact extended nonnegative rational.

    Accepts Fraction, int, strings like ``"3"``, ``"1/2"``, ``"inf"``.
    Floats are rejected: the kernel is exact.  Exponent notation is rejected
    too: ``Fraction("1e10000000")`` builds the whole integer.  ``"n"`` and
    ``"n/d"`` in ASCII digits are read with ``int``; every other string goes
    to ``Fraction(str)``.  A zero denominator, a literal ``Fraction`` does
    not read, and a numeral past ``int``'s digit limit, or one whose reduced
    value could not be written back within it, raise ``CarrierMismatch``.
    """
    if isinstance(x, _Infinity):
        return INF
    if isinstance(x, bool):
        raise CarrierMismatch(f"not an extended rational: {x!r}")
    if isinstance(x, Fraction):
        value = x
    elif isinstance(x, int):
        value = Fraction(x)
    elif isinstance(x, str):
        s = x.strip().lower()
        if s in ("inf", "infinity", "∞", "oo"):
            return INF
        if "e" in s:
            raise CarrierMismatch(f"exponent notation is not accepted: {x!r}")
        num, slash, den = s.partition("/")
        try:
            if not num.isascii() or not num.isdigit():
                value = Fraction(s)
            elif not slash:
                value = Fraction(int(num))
            elif den.isascii() and den.isdigit():
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(s)
        except ZeroDivisionError:
            raise CarrierMismatch(f"zero denominator: {x!r}") from None
        except ValueError:
            raise CarrierMismatch(_numeral_error(x)) from None
        limit = int_digit_limit()
        # the reduced numerator and denominator of a string are no longer
        # than the string, so only a long one can fail to be written back
        if limit and len(s) > limit and (too_long := _too_long(value)):
            raise CarrierMismatch(too_long)
    else:
        raise CarrierMismatch(f"not an extended rational: {x!r}")
    if value.numerator < 0:
        raise CarrierMismatch(f"negative value outside [0, inf]: {x!r}")
    return value


def _numeral_error(x: str) -> str:
    """What is wrong with a string ``Fraction`` and ``int`` rejected, without
    echoing a long string back.  ``int`` reads each run of digits (and
    underscores) as one integer, so the longest run meets the digit limit."""
    too_long = digits_past_limit(x)
    if too_long:
        return f"numeral too long: {too_long}"
    return f"malformed numeral: {abbreviated(x)}"


def _too_long(value: Fraction) -> str | None:
    """What is wrong with a value whose numerator or denominator has more
    digits than ``int`` writes out, or None."""
    limit = int_digit_limit()
    digits = max(map(_digit_count, (value.numerator, value.denominator)))
    if limit and digits > limit:
        return f"numeral too long: {digits} digits (at most {limit} per integer)"
    return None


def _digit_count(n: int) -> int:
    """The decimal digits of ``n`` ≥ 0, without writing it out (which ``int``
    refuses past its digit limit): 1233/4096 is just below log10(2)."""
    digits = max(1, (n.bit_length() - 1) * 1233 >> 12)
    while n >= 10**digits:
        digits += 1
    return digits


class FiniteQuantale:
    """A commutative unital quantale on a finite carrier, given by tables.

    ``elements`` are names; internally an element is its index.  ``leq`` is the
    order as a boolean matrix, ``tensor`` the multiplication table (entries are
    names or indices), ``unit`` the tensor-neutral element.  The constructor
    checks the shapes and entries, and computes the binary join and meet
    tables and the bottom and top from the order, and the residual table,
    with ``None`` where a table that is not a lattice has no such element.
    ``validate_quantale`` checks the axioms.

    The operations take canonical elements (indices, as returned by ``el``,
    ``check`` and ``parse``) and do not check them again.  Searches that
    run many operations per candidate read the tables directly, as tuples
    of rows indexed by element: ``leq_table``, ``tensor_table``,
    ``hom_table``, ``join_table`` and ``meet_table``.
    """

    is_finite = True

    def __init__(self, elements: Sequence[str], leq, tensor, unit):
        self.names = tuple(str(e) for e in elements)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate element names")
        self._index = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self._leq = tuple(tuple(bool(x) for x in row) for row in leq)
        if len(self._leq) != n or any(len(r) != n for r in self._leq):
            raise ValueError("leq matrix shape does not match element count")
        self._tensor = tuple(tuple(self.check(x) for x in row) for row in tensor)
        if len(self._tensor) != n or any(len(r) != n for r in self._tensor):
            raise ValueError("tensor matrix shape does not match element count")
        self.unit = self.check(unit)
        # up[u] / down[u]: bitmasks of the elements above / below u
        up = [sum(1 << w for w in range(n) if self._leq[u][w]) for u in range(n)]
        down = [sum(1 << w for w in range(n) if self._leq[w][u]) for u in range(n)]

        def least_table(cover):
            """The table of least(cover[u] & cover[v]) and least(carrier),
            where least(S) is the first member c of the bitmask S with
            S ⊆ cover[c], or None; found once per distinct S."""
            full = (1 << n) - 1
            first = {
                S: next((c for c in range(n) if S >> c & 1 and cover[c] & S == S), None)
                for S in {a & b for a in cover for b in cover} | {full}
            }
            return tuple(tuple(first[a & b] for b in cover) for a in cover), first[full]

        self._join, self._bottom = least_table(up)
        self._meet, self._top = least_table(down)
        # hom(u, v) = ⋁{w : w ⊗ u ≤ v}, folded down column u of the tensor
        # table in carrier order as ``join`` folds: None at a missing join
        order, joins, hom = self._leq, self._join, []
        for u in range(n):
            column = [row[u] for row in self._tensor]
            line = []
            for v in range(n):
                acc = -1
                for w, x in enumerate(column):
                    if order[x][v]:
                        acc = w if acc == -1 else joins[acc][w]
                        if acc is None:
                            break
                line.append(self._bottom if acc == -1 else acc)
            hom.append(tuple(line))
        self._hom = tuple(hom)

    # -- carrier ----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.names)

    def carrier(self) -> range:
        return range(len(self.names))

    def check(self, u) -> int:
        """The canonical index of an element given by index or name."""
        if isinstance(u, bool):
            raise CarrierMismatch(f"not an element: {u!r}")
        if isinstance(u, int):
            if not 0 <= u < len(self.names):
                raise CarrierMismatch(f"element index out of range: {u}")
            return u
        if isinstance(u, str):
            if u not in self._index:
                raise CarrierMismatch(f"unknown element name: {u!r}")
            return self._index[u]
        raise CarrierMismatch(f"not an element: {u!r}")

    el = check

    # -- tables -------------------------------------------------------------

    @property
    def leq_table(self) -> tuple:
        """``leq_table[u][v]``: whether u ≤ v."""
        return self._leq

    @property
    def tensor_table(self) -> tuple:
        """``tensor_table[u][v]``: u ⊗ v."""
        return self._tensor

    @property
    def hom_table(self) -> tuple:
        """``hom_table[u][v]``: the residual hom(u, v), ``None`` where the
        join that defines it does not exist."""
        return self._hom

    @property
    def join_table(self) -> tuple:
        """``join_table[u][v]``: u ∨ v, ``None`` where it does not exist."""
        return self._join

    @property
    def meet_table(self) -> tuple:
        """``meet_table[u][v]``: u ∧ v, ``None`` where it does not exist."""
        return self._meet

    def name(self, u: int) -> str:
        return self.names[self.check(u)]

    def parse(self, raw) -> int:
        """Parse a file-format value: element names only (no numerals)."""
        if isinstance(raw, str):
            return self.check(raw)
        raise CarrierMismatch(
            f"finite quantale elements must be referenced by name, got {raw!r}"
        )

    def format(self, u) -> str:
        return self.name(u)

    # -- order ------------------------------------------------------------

    def leq(self, u: int, v: int) -> bool:
        return self._leq[u][v]

    @property
    def bottom(self) -> int:
        if self._bottom is None:
            raise ValueError("carrier has no bottom element")
        return self._bottom

    @property
    def top(self) -> int:
        if self._top is None:
            raise ValueError("carrier has no top element")
        return self._top

    def join(self, values: Iterable[int]) -> int:
        values = iter(values)
        acc = next(values, None)
        if acc is None:
            return self.bottom
        for v in values:
            acc = self._join[acc][v]
            if acc is None:
                raise ValueError("join does not exist (not a lattice)")
        return acc

    def meet(self, values: Iterable[int]) -> int:
        values = iter(values)
        acc = next(values, None)
        if acc is None:
            return self.top
        for v in values:
            acc = self._meet[acc][v]
            if acc is None:
                raise ValueError("meet does not exist (not a lattice)")
        return acc

    # -- tensor and residuation --------------------------------------------

    def tensor(self, u: int, v: int) -> int:
        return self._tensor[u][v]

    def hom(self, u: int, v: int) -> int:
        """The residual: the largest w with w ⊗ u ≤ v."""
        r = self._hom[u][v]
        # a missing residual raises the ValueError of its missing join
        return self._residual_join(u, v) if r is None else r

    def _residual_join(self, u: int, v: int) -> int:
        return self.join(
            w for w in self.carrier() if self._leq[self._tensor[w][u]][v]
        )

    def meet_of_homs(self, pairs: Iterable) -> int:
        """``meet`` of ``hom(u, v)`` over ``pairs``, folded on the hom and
        meet tables: ``top`` only when ``pairs`` is empty, and a missing
        residual or meet raises as ``hom`` and ``meet`` do."""
        homs, meets = self._hom, self._meet
        acc = None
        for u, v in pairs:
            r = homs[u][v]
            if r is None:
                r = self._residual_join(u, v)
            acc = r if acc is None else meets[acc][r]
            if acc is None:
                raise ValueError("meet does not exist (not a lattice)")
        return self.top if acc is None else acc

    def compose_matrices(self, rows, cols) -> list[list[int]]:
        """The product of an n×m matrix given by its ``rows`` and an m×p
        matrix given by its ``cols``: entry (x, z) is
        ⋁_y cols[z][y] ⊗ rows[x][y], ⊥ when m = 0, folded on the tables."""
        join, tensor = self.join, self._tensor
        return [
            [join([tensor[c][r] for r, c in zip(row, col)]) for col in cols]
            for row in rows
        ]

    def first_intransitive(self, matrix) -> tuple[int, int, int] | None:
        """The first (i, j, k) in row-major order with
        matrix[j][k] ⊗ matrix[i][j] ≰ matrix[i][k], or None; on the tables."""
        leq, tensor = self._leq, self._tensor
        return next(
            (
                (i, j, k)
                for i, row in enumerate(matrix)
                for j, xy in enumerate(row)
                for k, (yz, xz) in enumerate(zip(matrix[j], row))
                if not leq[tensor[yz][xy]][xz]
            ),
            None,
        )

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuantale)
            and self.names == other.names
            and self._leq == other._leq
            and self._tensor == other._tensor
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.names, self._leq, self._tensor, self.unit))

    def __repr__(self):
        return f"FiniteQuantale({list(self.names)!r}, unit={self.names[self.unit]!r})"


class LawvereQuantale:
    """``[0, inf]`` ordered by ≥, with tensor + (unit 0) or · (unit 1).

    The order is the opposite of the numeric one: join is numeric infimum,
    bottom is ``inf``, top is 0.  The tensor preserves the bottom, so
    ``u ⊗ inf = inf`` in both modes — including ``0 · inf = inf``.
    """

    is_finite = False
    bottom = INF
    top = Fraction(0)

    def __init__(self, mode: str):
        if mode not in ("additive", "multiplicative"):
            raise ValueError(f"unknown Lawvere mode: {mode!r}")
        self.mode = mode
        self.unit = Fraction(0) if mode == "additive" else Fraction(1)

    def check(self, u):
        return as_extended_rational(u)

    def parse(self, raw):
        if isinstance(raw, float):
            raise CarrierMismatch(f"floats are not exact values: {raw!r}")
        return as_extended_rational(raw)

    def format(self, u) -> str:
        """``u`` as the file format writes it; a ``Fraction``, as every
        finite canonical value is, is not checked again.  A value too long
        to write raises ``CarrierMismatch``."""
        if type(u) is not Fraction:
            u = self.check(u)
        try:
            return "inf" if u is INF else str(u)
        except ValueError:  # past int's digit limit, as a composite can be
            raise CarrierMismatch(_too_long(u)) from None

    def leq(self, u, v) -> bool:
        if u is INF:
            return True
        if v is INF:
            return False
        return u >= v

    def join(self, values: Iterable):
        """The first numeric least value; ``INF`` compares as 1/0."""
        best, bn, bd = INF, 1, 0
        for v in values:
            if v is not INF:
                n, d = v.as_integer_ratio()
                if n * bd < bn * d:
                    best, bn, bd = v, n, d
        return best

    def meet(self, values: Iterable):
        """The first numeric greatest value, or ``INF`` at the first one."""
        best, bn, bd = self.top, 0, 1
        for v in values:
            if v is INF:
                return INF
            n, d = v.as_integer_ratio()
            if n * bd > bn * d:
                best, bn, bd = v, n, d
        return best

    def tensor(self, u, v):
        if u is INF or v is INF:
            return INF
        return u + v if self.mode == "additive" else u * v

    def hom(self, u, v):
        """Residuation: truncated difference (additive) or the ratio v/u."""
        if self.mode == "additive":
            if u is INF:
                return Fraction(0)
            if v is INF:
                return INF
            return v - u if v > u else Fraction(0)
        if u is INF:
            return Fraction(0)
        if u == 0:
            return Fraction(0) if v == 0 else INF
        if v is INF:
            return INF
        return v / u

    def meet_of_homs(self, pairs: Iterable):
        """``meet`` of ``hom(u, v)`` over ``pairs`` in ``hom``'s case order,
        on ints (module docstring): a hom a/b replaces the best n/d iff
        a·d > n·b, the first ``INF`` hom returns, one ``Fraction`` is built."""
        additive = self.mode == "additive"
        n, d = 0, 1
        for u, v in pairs:
            if u is INF:
                continue
            un, ud = u.as_integer_ratio()
            if not (additive or un):  # hom(0, v) is 0 at v = 0, else INF
                if v is INF or v.numerator:
                    return INF
                continue
            if v is INF:
                return INF
            vn, vd = v.as_integer_ratio()
            # an additive a ≤ 0 (a truncated difference) never replaces n/d ≥ 0
            a, b = (vn * ud - un * vd, vd * ud) if additive else (vn * ud, vd * un)
            if a * d > n * b:
                n, d = a, b
        return Fraction(n, d)

    def compose_matrices(self, rows, cols) -> list[list]:
        """The product of an n×m matrix given by its ``rows`` and an m×p
        matrix given by its ``cols``: entry (x, z) is
        ⋁_y cols[z][y] ⊗ rows[x][y], ``INF`` when m = 0.

        In additive mode the join (numeric min) runs over the ``int`` sums of
        the scaled entries (``_scaled``) on packed rows (module docstring):
        column y of ``cols`` is one int P_y with entry z in the w-bit field
        z, and row x folds best = min(best, P_y + L·rows[x][y]·ONES) over y,
        ONES having a 1 in every field, with one borrow-free compare per y.
        Its p fields are unpacked once, and each distinct best is divided by
        L into one ``Fraction``.  The multiplicative mode folds ``join`` over
        ``tensor``.
        """
        if self.mode != "additive":
            join, tensor = self.join, self.tensor
            return [
                [join(tensor(c, r) for r, c in zip(row, col)) for col in cols]
                for row in rows
            ]
        scale, inf, (rows, cols) = _scaled(rows, cols)
        w = (2 * inf).bit_length() + 1
        shifts = range(0, w * len(cols), w)
        ones = sum(1 << k for k in shifts)
        high, field = ones << (w - 1), (1 << w) - 1
        packed = [sum(map(lshift, column, shifts)) for column in zip(*cols)]
        bottom, best = inf * ones, []  # bottom is every entry when m = 0
        for row in rows:
            b = bottom
            for r, column in zip(row, packed):
                s = column + r * ones
                # top bit of a field where s_f ≤ b_f, spread to its low bits
                mask = ((b | high) - s) & high
                mask -= mask >> (w - 1)
                b ^= (b ^ s) & mask
            best.append([b >> k & field for k in shifts])
        value = {b: INF if b >= inf else Fraction(b, scale) for b in set(chain(*best))}
        return [[value[b] for b in line] for line in best]

    def first_intransitive(self, matrix) -> tuple[int, int, int] | None:
        """The first (i, j, k) in row-major order with
        matrix[j][k] ⊗ matrix[i][j] ≰ matrix[i][k], or None.

        In additive mode the law fails where D[j][k] + D[i][j] < D[i][k] on
        the scaled integers D (``_scaled``): an INF term makes the sum at
        least the integer inf, and a finite sum lies below it.  So (i, j)
        has a failing k iff the least D[j][k] − D[i][k] is below −D[i][j],
        one ``min`` over ``int`` differences per pair.  The multiplicative
        mode folds ``leq`` over ``tensor``.
        """
        if self.mode != "additive":
            leq, tensor = self.leq, self.tensor
            return next(
                (
                    (i, j, k)
                    for i, row in enumerate(matrix)
                    for j, xy in enumerate(row)
                    for k, (yz, xz) in enumerate(zip(matrix[j], row))
                    if not leq(tensor(yz, xy), xz)
                ),
                None,
            )
        _, _, (D,) = _scaled(matrix)
        for i, row in enumerate(D):
            for j, xy in enumerate(row):
                if min(map(sub, D[j], row)) < -xy:
                    k = next(k for k, (yz, xz) in enumerate(zip(D[j], row)) if yz + xy < xz)
                    return i, j, k
        return None

    def __eq__(self, other):
        return isinstance(other, LawvereQuantale) and self.mode == other.mode

    def __hash__(self):
        return hash(("LawvereQuantale", self.mode))

    def __repr__(self):
        return f"LawvereQuantale({self.mode!r})"


def _scaled(*matrices) -> tuple[int, int, list]:
    """The scaling lemma (module docstring) on matrices of extended
    rationals: ``(L, inf, scaled)``, L the lcm of the finite denominators,
    inf an integer above every sum of two scaled finite entries, and each
    matrix with a finite u as the integer L·u and ``INF`` as inf.  Each
    entry's ``as_integer_ratio`` is read once."""
    ratios = [
        [[v if v is INF else v.as_integer_ratio() for v in line] for line in m]
        for m in matrices
    ]
    finite = [r for m in ratios for line in m for r in line if r is not INF]
    scale = lcm(*{d for _, d in finite})
    # L·u ≤ L·numerator(u), so twice the largest bound lies below inf
    inf = 2 * scale * max((n for n, _ in finite), default=0) + 1
    return scale, inf, [
        [[inf if r is INF else r[0] * (scale // r[1]) for r in line] for line in m]
        for m in ratios
    ]


Quantale = FiniteQuantale | LawvereQuantale


def same_quantale(p: Quantale, q: Quantale) -> bool:
    return p is q or p == q


def require_same_quantale(p: Quantale, q: Quantale) -> None:
    if not same_quantale(p, q):
        raise CarrierMismatch(f"quantale mismatch: {p!r} vs {q!r}")


def require_finite(q: Quantale, what: str) -> FiniteQuantale:
    if not q.is_finite:
        raise ValueError(f"{what} requires a finite carrier, got {q!r}")
    return q


# --------------------------------------------------------------------------
# axiom validation


def validate_quantale(q: FiniteQuantale) -> Report:
    """Check the quantale axioms exhaustively on a finite table, reading
    ``leq_table``, ``tensor_table`` and ``join_table``; each check reports
    its first witness in carrier order.

    Join-distributivity is checked over the empty set and all pairs: on a
    finite lattice every join is an iterated binary join or the empty one,
    so this is exact.
    """
    report = Report()
    leq, t, join, meet = q.leq_table, q.tensor_table, q.join_table, q.meet_table
    names = q.names
    els = range(len(names))

    def add(check, bad):
        """Report ``check``; its witness names the elements of ``bad``."""
        report.add(check, bad is None, None if bad is None else tuple(names[x] for x in bad))

    refl = next((u for u in els if not leq[u][u]), None)
    report.add("order-reflexive", refl is None, None if refl is None else names[refl])
    add("order-antisymmetric", next(
        ((u, v) for u in els for v in els if u != v and leq[u][v] and leq[v][u]), None
    ))
    add("order-transitive", next(
        ((u, v, w) for u, lu in enumerate(leq) for v, lv in enumerate(leq) if lu[v]
         for w in els if lv[w] and not lu[w]),
        None,
    ))
    if not report.ok:
        return report

    # the witness is the last missing pair in row-major order
    missing_join = next(
        ((u, v) for u in reversed(els) for v in reversed(els) if join[u][v] is None),
        None,
    )
    missing_meet = next(
        ((u, v) for u in reversed(els) for v in reversed(els) if meet[u][v] is None),
        None,
    )
    if q._bottom is None:
        missing_join = missing_join or ("empty",)
    if q._top is None:
        missing_meet = missing_meet or ("empty",)
    for check, missing in (("lattice-joins", missing_join), ("lattice-meets", missing_meet)):
        report.add(check, missing is None, None if missing is None else str(missing))
    if not report.ok:
        return report

    add("tensor-commutative", next(
        ((u, v) for u in els for v in els if t[u][v] != t[v][u]), None
    ))
    add("tensor-associative", next(
        ((u, v, w) for u, tu in enumerate(t) for v, tv in enumerate(t)
         for w, uv_w in enumerate(t[tu[v]]) if uv_w != tu[tv[w]]),
        None,
    ))
    unit = t[q.unit]
    bad_unit = next((u for u in els if unit[u] != u), None)
    report.add("tensor-unit", bad_unit is None, None if bad_unit is None else names[bad_unit])

    # the empty set, then pairs in ascending-mask order: (0, 1), (0, 2), (1, 2), ...
    bottom = q.bottom
    subsets = [()] + [(a, b) for b in els for a in range(b)]
    dist_bad = next(
        (
            (names[u], tuple(names[s] for s in S))
            for u, tu in enumerate(t)
            for S in subsets
            if (tu[join[S[0]][S[1]]] != join[tu[S[0]]][tu[S[1]]] if S else tu[bottom] != bottom)
        ),
        None,
    )
    report.add("tensor-join-distributive", dist_bad is None, dist_bad)
    return report


# --------------------------------------------------------------------------
# totally-below machinery (finite carriers only)


def totally_below(q: Quantale, u, v) -> bool:
    """u ⋘ v: every subset whose join dominates v has a member above u.

    Decided by the closed form v ≰ ⋁{w : u ≰ w}: a subset with no member
    above u lies inside {w : u ≰ w}, so that set is the largest candidate
    counterexample.
    """
    if not q.is_finite:
        raise ValueError(
            "totally-below is only decided on finite carriers; the Lawvere "
            "carriers would need subsets of an infinite lattice"
        )
    u, v = q.check(u), q.check(v)
    return not q.leq(v, q.join(w for w in q.carrier() if not q.leq(u, w)))


def unit_approximated_from_totally_below(q: Quantale) -> bool:
    """Whether unit = join of everything totally below the unit."""
    q = require_finite(q, "unit_approximated_from_totally_below")
    below = [u for u in q.carrier() if totally_below(q, u, q.unit)]
    return q.join(below) == q.unit


# --------------------------------------------------------------------------
# built-in carriers


def _meet_chain(names: Sequence[str]) -> FiniteQuantale:
    n = len(names)
    leq = [[i <= j for j in range(n)] for i in range(n)]
    tensor = [[min(i, j) for j in range(n)] for i in range(n)]
    return FiniteQuantale(names, leq, tensor, names[-1])


def bool2() -> FiniteQuantale:
    return _meet_chain(["0", "1"])


def chain3() -> FiniteQuantale:
    return _meet_chain(["0", "m", "1"])


def chain4() -> FiniteQuantale:
    return _meet_chain(["0", "a", "b", "1"])


def bool4() -> FiniteQuantale:
    """The four-element Boolean algebra with tensor = meet, unit = top."""
    names = ["bot", "a", "b", "top"]
    order = {("bot", x) for x in names} | {(x, "top") for x in names}
    order |= {(x, x) for x in names}
    leq = [[(u, v) in order for v in names] for u in names]
    meet = {
        ("bot", "bot"): "bot", ("bot", "a"): "bot", ("bot", "b"): "bot",
        ("bot", "top"): "bot", ("a", "a"): "a", ("a", "b"): "bot",
        ("a", "top"): "a", ("b", "b"): "b", ("b", "top"): "b",
        ("top", "top"): "top",
    }

    def m(u, v):
        return meet.get((u, v)) or meet[(v, u)]

    tensor = [[m(u, v) for v in names] for u in names]
    return FiniteQuantale(names, leq, tensor, "top")


def trivial() -> FiniteQuantale:
    return FiniteQuantale(["k"], [[True]], [["k"]], "k")


def lawvere_plus() -> LawvereQuantale:
    return LawvereQuantale("additive")


def lawvere_times() -> LawvereQuantale:
    return LawvereQuantale("multiplicative")


BUILTIN_QUANTALES = {
    "bool2": bool2,
    "chain3": chain3,
    "chain4": chain4,
    "bool4": bool4,
    "one": trivial,
    "lawvere-plus": lawvere_plus,
    "lawvere-times": lawvere_times,
}


@cache
def builtin_quantale(name: str) -> Quantale:
    """The built-in quantale ``name``, built once per process: quantale
    objects are immutable."""
    try:
        return BUILTIN_QUANTALES[name]()
    except KeyError:
        raise ValueError(
            f"unknown built-in quantale {name!r}; known: {sorted(BUILTIN_QUANTALES)}"
        )
