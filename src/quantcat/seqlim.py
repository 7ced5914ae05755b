"""Finitely presented sequences, Cauchy detection, and normed colimits.

A sequence is presented as an explicit prefix followed by a constant tail:
one tail object with one endomorphism iterated forever.  On a finite object
the iterates of the tail endomorphism are eventually periodic, so every
infinite meet or join in the Cauchy condition, the colimit norm formulas,
and the cocone conditions reduces to one transient-plus-period window and is
evaluated exactly.

Three ambients are supported: normed sets with arbitrary maps, distance sets
(arbitrary quantale-valued distance matrices) with arbitrary maps normed by
the residuation meet over ordered pairs, and a finite normed category.

Composite norms
---------------
The composite-norm law |s_{n,l}| ⊗ |s_{m,n}| ≤ |s_{m,l}| is a theorem in
every ambient, so ``validate_sequence`` reports it without computing a map
norm.  Residuation in a commutative quantale gives

    hom(v, w) ⊗ hom(u, v) ≤ hom(u, w),

since hom(v, w) ⊗ hom(u, v) ⊗ u ≤ hom(v, w) ⊗ v ≤ w (Lawvere 1973;
Hofmann–Seal–Tholen 2014, *Monoidal Topology*).  For maps f: A → B and
g: B → C of normed sets, |f| = ⋀_a hom(|a|, |f a|) is below
hom(|a|, |f a|), and |g| below hom(|f a|, |g f a|), for each a.  Since ⊗ is
monotone, |g| ⊗ |f| ≤ hom(|a|, |g f a|) for each a, hence
|g| ⊗ |f| ≤ |g ∘ f|.  The Lipschitz norm of a distance-set map is the same
meet over ordered pairs, taken in the norm quantale, and the argument is
the same there.  In a normed category the law is the category's own
submultiplicativity.  The precondition is that the quantales passed
``validate_quantale``, as every quantale the file front end builds does; the
window scan that checks the law by exhaustion is the tests' oracle.

Colimit norms
-------------
The colimit of a Cauchy sequence of normed sets is the quotient of its stages
carrying the final structure of one tail window of the cocone: each class is
normed by the join of the norms of the tail elements that the components of
one transient-plus-period window map onto it.  A distance-set colimit is the
same final structure taken on ordered pairs, in the distance quantale:
``colimit_dset`` folds each window component γ over the rows of the tail
object, joining X(x, y) into the apex entry (γ x, γ y).  A distance set is a
``VCategory`` read by its rows throughout: the Lipschitz norm of a map, the
forward Cauchy value and the forward-limit test index them by position.

Colimit classes
---------------
Let t be the tail endomap, T its transient and p its period, so that
t^(T+p) = t^T (``Sequence.tail_powers``).  Eventual-image lemma: the images
t^d(tail) shrink with d and agree at d = T and d = T + p, so t maps
E = t^T(tail) onto itself; t permutes the finite set E, and t^p is the
identity on E.  So a later agreement t^d x = t^d y with d ≥ T cancels down
to t^T x = t^T y: apply t^(kp - (d - T)) for any kp ≥ d - T.

Two stage elements name the same colimit class iff their images at some
later stage agree.  So two elements x, y of the first tail stage n0 do iff
t^T x = t^T y: the classes are the elements of E, labelled c0, c1, ... in
the order of their first member among the first-tail-stage elements.  An
element x of tail stage n0 + r, 0 < r < p, is identified with w = t^(p-r) x
at stage n0 + p, and w with z at stage n0 iff t^T w = t^(T+p) z = t^T z by
the lemma: x is in the class of t^(T+p-r) x.  An element x of prefix stage
n takes the class of its step image at stage n + 1.  So the quotient is
read off the cached tail powers, with no search.

Colimit cocone conditions
-------------------------
The ``colimit`` task reports the cocone conditions of the canonical cocone
γ that ``colimit_nset`` and ``colimit_dset`` build (and ``colimit_vlip``
through ``colimit_dset``), and on that cocone each one is a theorem:

* cocone-commutes: γ_n is the quotient map of stage n, and
  ``_build_quotient`` reads the class of x at stage n as the class of its
  step image at stage n + 1, so γ_{n+1} ∘ s_n = γ_n on every stage.
* (C1): γ factors through the quotient by itself, and the induced map on
  the classes is the identity on the labels, a bijection onto the apex.
* (C2b): let H be the final structure on the apex carrier (on its pairs,
  for distance sets) induced by γ's tail components in the norm quantale.
  The apex is the final structure of the same tail window on the same
  carrier, taken in the distance quantale.  A final structure reads only
  the join, and the two quantales share the lattice, so |a| = |a|_H for
  every apex element a.  By (⇒) below the probe check passes for every
  bound B, and the exact reduction holds.

So ``colimit_report`` computes only (C2a)'s meet of the tail component
norms, which the report prints.  It enumerates no probe, so no budget guard
fires; over a finite carrier the probe bound only names the (C2b) check.
The general verifier of a candidate cocone, which checks every condition
and enumerates the probes when the reduction fails, is the tests' oracle.

The (C2b) reduction
-------------------
The morphism-universal condition (C2b) for set-like ambients compares the
apex with H.  Since hom(⋁S, p) = ⋀_{s∈S} hom(s, p) in any quantale, the
meet over the tail components γ_i of |f ∘ γ_i| is the norm of f out of H;
an apex element that no tail element hits is normed bottom in H, and
hom(⊥, p) = ⊤.  Finite carriers state the check over every map f out of
the apex into normed sets of at most B elements (the probe bound) and
compare |f| out of H with |f| out of the apex.  Over an infinite
(extended-rational) carrier the maps cannot be enumerated, and the check
is the reduction |a| ≤ |a|_H for every apex element a.  The reduction
decides the probe check too:

* (⇒, every B ≥ 1) hom is antitone in its first argument, so if
  |a| ≤ |a|_H for every a then hom(|a|_H, |f a|) ≤ hom(|a|, |f a|) for
  every f, and |f| out of H is below |f| out of the apex.
* (⇐, B ≥ 2) if |a| ≰ |a|_H, let f send a to a point normed |a|_H and
  every other element to a point normed ⊤.  Out of H, |f| is
  hom(|a|_H, |a|_H), which is above the unit k; out of the apex it is
  hom(|a|, |a|_H), which is not.  So the probe check fails.
* At B = 1 every probe map is constant and only compares hom(⋁_a |a|, p)
  with hom(⋁_a |a|_H, p), so the probe check may pass while the reduction
  fails (over bool2, an apex {a: 1, b: 0} with H = {a: 0, b: 1}).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .common import (
    AMBIENTS,
    DSET,
    NCAT,
    NSET,
    ConstructionError,
    InputError,
    PreconditionError,
    Report,
    cached_property,
    lazily,
)
from .quantale import (
    INF,
    Quantale,
    lawvere_times,
    require_same_quantale,
    unit_approximated_from_totally_below,
)
from .vcat import VCategory

nset_mod = lazily("normed_set")  # only the nset ambient reads it


def same_lattice(p: Quantale, q: Quantale) -> bool:
    """Same carrier and order; the tensors may differ."""
    if p.is_finite and q.is_finite:
        return p.names == q.names and all(
            p.leq(u, v) == q.leq(u, v) for u in p.carrier() for v in p.carrier()
        )
    return not p.is_finite and not q.is_finite


def lip_norm(q_norm: Quantale, X: VCategory, Y: VCategory, mapping: Mapping):
    """The residuation meet of hom(X(x, x'), Y(f x, f x')) over ordered pairs
    of source points, read off the rows of X and of Y at the images."""
    image = [Y.index[mapping[x]] for x in X.objects]
    return q_norm.meet_of_homs(
        (d, Y.rows[i][j]) for row, i in zip(X.rows, image) for d, j in zip(row, image)
    )


class Sequence:
    """A prefix-plus-constant-tail sequence in one of the three ambients.
    It is not mutated once its shapes are validated, so its cached
    properties, shared by the tasks on it, hold for good.  A check across
    the arguments fails with an ``InputError`` at the instance-file field it
    reads: ``prefix[n].object``, ``prefix[n].step``, ``tail.object``,
    ``tail.endo`` or ``odot``; the ``ncat`` ambient takes a ``category``.
    A set-like step maps its stage into the next, as the reader checks."""

    def __init__(
        self,
        kind: str,
        prefix_objects,
        prefix_steps,
        tail_object,
        tail_endo,
        category: NormedCategory | None = None,
        norm_quantale: Quantale | None = None,
    ):
        if kind not in AMBIENTS:
            raise ValueError(f"unknown ambient {kind!r}")
        self.kind = kind
        self.prefix_objects = list(prefix_objects)
        self.prefix_steps = list(prefix_steps)
        if len(self.prefix_objects) != len(self.prefix_steps):
            raise ValueError("one step per prefix object is required")
        self.tail_object = tail_object
        self.tail_endo = tail_endo
        self.category = category
        if kind == NCAT:
            self.quantale = category.quantale
            self.norm_quantale = self.quantale
        elif kind == NSET:
            self.quantale = tail_object.quantale
            self.norm_quantale = self.quantale
        else:
            self.quantale = tail_object.quantale
            self.norm_quantale = norm_quantale or self.quantale
            if not same_lattice(self.quantale, self.norm_quantale):
                raise InputError("distance and norm quantales must share the lattice", "odot")
        self._validate_shapes()

    # -- shape plumbing -----------------------------------------------------

    @property
    def n0(self) -> int:
        return len(self.prefix_objects)

    def object_at(self, n):
        return self.prefix_objects[n] if n < self.n0 else self.tail_object

    def step_at(self, n):
        """The step map at stage n (into stage n + 1)."""
        return self.prefix_steps[n] if n < self.n0 else self.tail_endo

    def _elements(self, obj):
        if self.kind == NSET:
            return obj.elements
        if self.kind == DSET:
            return obj.objects
        raise ValueError("a normed-category stage has no element set")

    def _validate_shapes(self):
        if self.kind != NCAT:
            for obj in self.prefix_objects + [self.tail_object]:
                require_same_quantale(obj.quantale, self.quantale)
            return
        A = self.category
        for n, obj in enumerate(self.prefix_objects + [self.tail_object]):
            if obj not in A.objects:
                at = ("prefix", n) if n < len(self.prefix_objects) else ("tail",)
                raise InputError(f"unknown object {obj!r}", *at, "object")
        for n in range(self.n0 + 1):
            step, src, tgt = self.step_at(n), self.object_at(n), self.object_at(n + 1)
            if step not in A.dom or A.dom[step] != src or A.cod[step] != tgt:
                where = "tail" if n == self.n0 else n
                at = ("tail", "endo") if n == self.n0 else ("prefix", n, "step")
                raise InputError(f"step {where}: morphism {step!r} has wrong endpoints", *at)

    # -- map algebra ----------------------------------------------------------

    def _identity_map(self):
        if self.kind == NCAT:
            return self.category.identity[self.tail_object]
        return {x: x for x in self._elements(self.tail_object)}

    def _compose(self, g, f):
        """g after f (both tail-object endomaps or category morphisms)."""
        if self.kind == NCAT:
            return self.category.table[g, f]
        return {x: g[y] for x, y in f.items()}

    def _map_key(self, m):
        if self.kind == NCAT:
            return m
        return tuple(m[x] for x in self._elements(self.tail_object))

    def map_norm_of(self, step, src, tgt):
        if self.kind == NCAT:
            return self.category.norm[step]
        if self.kind == NSET:  # map_norm of a step checked at construction
            return src.quantale.meet_of_homs(
                (src.norms[x], tgt.norms[step[x]]) for x in src.elements
            )
        return lip_norm(self.norm_quantale, src, tgt, step)

    @cached_property
    def tail_powers(self) -> tuple[list, int, int]:
        """(powers, transient, period): powers[d] is the d-th iterate."""
        return self._iterate_tail()

    @cached_property
    def profile(self) -> NormProfile:
        """``norm_profile`` of the sequence, shared by every Cauchy check."""
        return norm_profile(self)

    @cached_property
    def quotient(self) -> _Quotient:
        """The canonical quotient of the stages."""
        return _build_quotient(self)

    def _iterate_tail(self):
        powers = []
        seen = {}
        current = self._identity_map()
        while True:
            key = self._map_key(current)
            if key in seen:
                transient = seen[key]
                period = len(powers) - transient
                return powers, transient, period
            seen[key] = len(powers)
            powers.append(current)
            current = self._compose(self.tail_endo, current)


# ---------------------------------------------------------------------------
# norm profiles and the Cauchy condition


class NormProfile:
    """Eventually periodic table of step norms |s_{m,n}| on the tail:
    ``tail_norms`` holds |t^d| for d < transient + period."""

    def __init__(self, n0: int, transient: int, period: int, tail_norms: tuple):
        self.n0, self.transient, self.period, self.tail_norms = n0, transient, period, tail_norms


def norm_profile(s: Sequence) -> NormProfile:
    powers, transient, period = s.tail_powers
    T = s.tail_object
    norms = tuple(s.map_norm_of(p, T, T) for p in powers)
    return NormProfile(s.n0, transient, period, norms)


def cauchy_value(s: Sequence):
    """The join over starting stages of the meet of all later step norms.

    With a constant tail the inner meet stabilizes to the meet over one
    transient-plus-period window of iterate norms, and the outer join
    reaches exactly that value.
    """
    return s.norm_quantale.meet(s.profile.tail_norms)


def validate_sequence(s: Sequence) -> Report:
    """Shape checks plus the composite-norm law, which holds by residuation
    (see the module docstring); the shapes were checked at construction."""
    report = Report()
    report.add("shapes", True)
    report.add("composite-norms", True, "category law" if s.kind == NCAT else None)
    return report


# ---------------------------------------------------------------------------
# cocones


class Cocone:
    """Apex plus components: explicit prefix components, and one component
    per tail position repeating with the listed period."""

    def __init__(self, apex, prefix: list, tail: list):
        self.apex, self.prefix, self.tail = apex, prefix, tail

    def component(self, n: int, n0: int):
        if n < n0:
            return self.prefix[n]
        return self.tail[(n - n0) % len(self.tail)]


# ---------------------------------------------------------------------------
# the canonical set-level quotient


class _Quotient:
    """``labels``: the colimit classes in first-occurrence order; ``gamma``:
    dicts element -> label, for stages 0 .. n0 + period - 1."""

    def __init__(self, labels: list, gamma: list, period: int):
        self.labels, self.gamma, self.period = labels, gamma, period


def _build_quotient(s: Sequence) -> _Quotient:
    """The colimit classes by the eventual-image lemma (module docstring)."""
    first = s._elements(s.tail_object)
    powers, transient, period = s.tail_powers
    eventual = powers[transient]
    label_of: dict = {}
    for x in first:
        label_of.setdefault(eventual[x], f"c{len(label_of)}")
    gamma = [
        {x: label_of[powers[transient + (period - r) % period][x]] for x in first}
        for r in range(period)
    ]
    for n in reversed(range(s.n0)):
        step, after = s.prefix_steps[n], gamma[0]
        gamma.insert(0, {x: after[step[x]] for x in s._elements(s.prefix_objects[n])})
    return _Quotient(list(label_of.values()), gamma, period)


def _tail_window(s: Sequence, quot: _Quotient) -> list:
    """The quotient's components on one tail period."""
    return [quot.gamma[s.n0 + r] for r in range(quot.period)]


def _quotient_cocone(s: Sequence, quot: _Quotient, apex) -> Cocone:
    return Cocone(
        apex, prefix=[quot.gamma[n] for n in range(s.n0)], tail=_tail_window(s, quot)
    )


# ---------------------------------------------------------------------------
# colimit constructions


def _require_cauchy(s: Sequence) -> None:
    q = s.norm_quantale
    value = cauchy_value(s)
    if not q.leq(q.unit, value):
        raise PreconditionError(
            f"sequence is not Cauchy: expression value {q.format(value)}", value
        )


def colimit_nset(s: Sequence) -> tuple[nset_mod.NormedSet, Cocone]:
    """The quotient carrier with the final structure of one tail window."""
    if s.kind != NSET:
        raise ValueError("colimit_nset needs a normed-set sequence")
    _require_cauchy(s)
    quot = s.quotient
    apex = nset_mod.final_structure(
        s.quantale, quot.labels, [(s.tail_object, g) for g in _tail_window(s, quot)]
    )
    return apex, _quotient_cocone(s, quot, apex)


def colimit_dset(s: Sequence) -> tuple[VCategory, Cocone]:
    """The point quotient whose distances are the final structure of one
    tail window on pairs, in the distance quantale."""
    if s.kind != DSET:
        raise ValueError("colimit_dset needs a distance-set sequence")
    _require_cauchy(s)
    quot, qd, T = s.quotient, s.quantale, s.tail_object
    position = {label: i for i, label in enumerate(quot.labels)}
    cells = [[[] for _ in quot.labels] for _ in quot.labels]
    for g in _tail_window(s, quot):
        image = [position[g[x]] for x in T.objects]
        for i, row in zip(image, T.rows):
            for j, v in zip(image, row):
                cells[i][j].append(v)
    rows = tuple(tuple(map(qd.join, line)) for line in cells)
    apex = VCategory.trusted(qd, quot.labels, rows)
    return apex, _quotient_cocone(s, quot, apex)


def colimit_vlip(s: Sequence) -> tuple[VCategory, Cocone]:
    """Distance-set colimit of a sequence of V-categories, asserted to be a
    V-category again.

    Requires the norm-quantale unit to be approximated from totally below.
    Finite carriers are machine-checked; for the extended-rational carriers
    the approximation holds analytically (every value numerically above the
    unit is totally below it, and their join is the unit), so the hypothesis
    is treated as satisfied.
    """
    if s.kind != DSET:
        raise ValueError("colimit_vlip needs a distance-set sequence")
    q_odot = s.norm_quantale
    if q_odot.is_finite:
        if not unit_approximated_from_totally_below(q_odot):
            raise PreconditionError(
                "norm-quantale unit is not approximated from totally below",
                False,
            )
    apex, gamma = colimit_dset(s)
    if not apex.report.ok:
        raise ConstructionError(
            f"colimit is not a V-category: {apex.report.describe()}"
        )
    return apex, gamma


# ---------------------------------------------------------------------------
# the colimit task's report


def colimit_report(s: Sequence, gamma: Cocone, probe_bound: int) -> Report:
    """The cocone conditions of the canonical cocone ``gamma`` of a
    set-like sequence, as theorems of its construction (module docstring):
    only (C2a) is computed, and over a finite carrier ``probe_bound`` names
    the (C2b) check."""
    q = s.norm_quantale
    report = Report()
    report.add("cocone-commutes", True)
    report.add("C1-factors-through-quotient", True)
    report.add("C1-bijective", True)
    c2a = q.meet(s.map_norm_of(g, s.tail_object, gamma.apex) for g in gamma.tail)
    report.add("C2a", q.leq(q.unit, c2a), f"tail component norm meet {q.format(c2a)}")
    if q.is_finite:
        report.add(f"C2b (probe bound {probe_bound})", True)
    else:
        report.add("C2b (exact reduction)", True)
    return report


# ---------------------------------------------------------------------------
# Lipschitz norms


class LogNorm:
    """max{0, log_base(ratio)} held exactly: the clipped ratio plus base."""

    def __init__(self, ratio, base: int = 2):
        if base < 2:
            raise ValueError("log base must be at least 2")
        if ratio is not INF:
            ratio = Fraction(ratio)
            if ratio <= 1:
                ratio = Fraction(1)  # the clip: the norm value is exactly 0
        self.ratio = ratio
        self.base = base

    def is_zero(self) -> bool:
        return self.ratio is not INF and self.ratio == 1

    def is_infinite(self) -> bool:
        return self.ratio is INF

    def exponent(self) -> Fraction | None:
        """The exact exponent when the ratio is a rational power of the
        base; None when it is not (the value stays a tagged expression).

        A rational b^x with x > 0 is an integer, so the ratio r > 1 must be
        one.  Euclid on logarithms: write r = b^k · r' with b ∤ r'.  If
        r' = 1, log_b r = k.  If r = b^x, r' = b^(x−k) is an integer b does
        not divide, so r' < b; hence r' > b means no exponent.  Otherwise
        log_b r = k + 1 / log_{r'} b: the counts k are a continued fraction."""
        if self.is_infinite():
            return None
        if self.is_zero():
            return Fraction(0)
        if self.ratio.denominator != 1:
            return None
        base, value, counts = self.base, self.ratio.numerator, []
        while True:
            k, value = _strip_factors(value, base)
            counts.append(k)
            if value == 1:
                break
            if value > base:
                return None
            base, value = value, base
        exponent = Fraction(counts.pop())
        for k in reversed(counts):
            exponent = k + 1 / exponent
        return exponent

    def __eq__(self, other):
        return (
            isinstance(other, LogNorm)
            and self.base == other.base
            and (
                (self.ratio is INF and other.ratio is INF)
                or (self.ratio is not INF and other.ratio is not INF and self.ratio == other.ratio)
            )
        )

    def __repr__(self):
        if self.is_infinite():
            return "LogNorm(inf)"
        e = self.exponent()
        if e is not None:
            return f"LogNorm({e} = log_{self.base} {self.ratio})"
        return f"LogNorm(log_{self.base} {self.ratio})"


def _strip_factors(value: int, base: int) -> tuple[int, int]:
    """(k, r) with value = base^k · r and base ∤ r, dividing by base^(2^i)
    from the largest i down: about 2 log2 k divisions rather than k."""
    squares = [base]
    while value % squares[-1] == 0:
        squares.append(squares[-1] * squares[-1])
    k = 0
    for i in reversed(range(len(squares) - 1)):
        if value % squares[i] == 0:
            value //= squares[i]
            k += 1 << i
    return k, value


def lipschitz_norm(
    source: VCategory,
    target: VCategory,
    mapping: Mapping,
    mode: str = "multiplicative",
    q_odot: Quantale | None = None,
    log_base: int = 2,
):
    """The expansion norm of a map between distance sets, ``mapping`` sending
    each source point into the target.

    * ``odot``: the residuation meet over ordered pairs in ``q_odot``.
    * ``multiplicative``: the supremum of distance ratios over the
      extended rationals, with 0/0 = 0, a/0 = inf, a/inf = inf/inf = 0.
    * ``log``: max{0, log of the multiplicative value}, kept symbolic.
    """
    if mode == "odot":
        if q_odot is None:
            raise ValueError("odot mode needs the norm quantale")
        return lip_norm(q_odot, source, target, mapping)
    if mode not in ("multiplicative", "log"):
        raise ValueError(f"unknown mode {mode!r}")
    if source.quantale.is_finite or target.quantale.is_finite:
        # indices of a finite carrier are not magnitudes; refuse the ratio
        raise InputError("ratio modes need extended-rational distances")
    ratio = lip_norm(lawvere_times(), source, target, mapping)
    return ratio if mode == "multiplicative" else LogNorm(ratio, log_base)


# ---------------------------------------------------------------------------
# metric sequences: forward Cauchy and forward limits


class MetricSequence:
    """A finitely presented point sequence: explicit prefix points plus an
    eventually periodic tail cycle, ``tail``, of period ``len(tail)``, not
    empty; a point outside the space is an ``InputError`` at its field."""

    def __init__(self, space: VCategory, prefix: list, tail: list):
        self.space, self.prefix, self.tail = space, prefix, tail
        if not tail:
            raise InputError("the tail cycle must be nonempty", "tail", "points")
        for where, listed in ((("prefix_points",), prefix), (("tail", "points"), tail)):
            for i, p in enumerate(listed):
                if p not in space.index:
                    raise InputError(f"point {p!r} not in the space", *where, i)


def forward_cauchy_value(ms: MetricSequence):
    """The join over starting stages of the meet of later-pair distances;
    exactly the meet over ordered tail-cycle residue pairs."""
    X, q = ms.space, ms.space.quantale
    tail = [X.index[p] for p in ms.tail]
    return q.meet(X.rows[i][j] for i in tail for j in tail)


def forward_limit_metric(ms: MetricSequence, x) -> bool:
    """Whether X(x, y), for a point x of the space, equals the
    tail-stabilized meet of X(x_n, y) for every probe point y."""
    X, q = ms.space, ms.space.quantale
    tail = [X.rows[X.index[p]] for p in ms.tail]
    return all(v == q.meet(column) for v, column in zip(X.rows[X.index[x]], zip(*tail)))
