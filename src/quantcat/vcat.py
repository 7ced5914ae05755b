"""V-categories (generalized metric spaces) and V-distributors.

A V-category is its matrix of distances and a distributor its matrix of
V-values (Lawvere 1973; Stubbe 2005), each held as the instance file writes
it: ``rows``, a tuple of rows indexed by object position, with ``index``
mapping an object to its position.  Every consumer reads the rows, and
``d(x, y)`` and ``at(x, y)`` look one entry up by name.  The composite of
two distributors is a join-of-tensors matrix product (min-plus style over
the additive Lawvere carrier, relational composition over the two-chain),
run by the quantale's ``compose_matrices`` on the rows of φ and the columns
of ψ: on table indices over a finite carrier, and on integers over the
additive extended rationals.  Scaling lemma:
multiplying every finite value by the lcm L > 0 of their denominators
preserves the order and turns u + v into L·u + L·v, so the min-plus product
is computed exactly on ``int``s and divided back once per distinct entry.
Packed-row lemma: the scaled values and their sums fit below the top bit of
fields w = bit_length(2·inf) + 1 bits wide, so one big-int add and one
borrow-free compare take the min over all p entries of a row at a middle
object, for any L (``quantale`` module docstring).  The composite is built
from the canonical values the hook returns and is not checked again.

Adjunction checking, Isbell conjugation, representability, and a
Lawvere-completeness decision over finite quantales live here.  The decision
searches weights only: right adjoints of distributors are unique, and a
weight's right adjoint is its Isbell conjugate (Lawvere 1973; Stubbe 2005).

The decision runs on index vectors over the quantale's tables, and builds no
distributor:

* ``matrix_weights(q, D, N)`` lists the x ∈ V^n with D[i][j] ⊗ x_i ≤ x_j for
  all i, j in the order of ``product``, checking each law when the later of
  x_i and x_j is assigned, and meets c_j = ⋀_i hom(x_i, N[i][j]) on the way.
  With D = X these are the weights φ: E ⇸ X (the bimodule laws of
  ``validate_vdist``); with N = Xᵀ, c is the conjugate
  φ⁺(a) = ⋀_b hom(φ(b), X(a,b)).
* One-join lemma: the counit φ·φ⁺ ≤ X holds for every weight, because
  φ⁺(x) ≤ hom(φ(y), X(x,y)) gives φ⁺(x)⊗φ(y) ≤ X(x,y).  So φ ⊣ φ⁺ iff
  k ≤ ⋁_x φ⁺(x)⊗φ(x), one join in place of the two composites of
  ``adjoint_report``.
* ``adjoint_weights(q, D, N, M, …)`` is the one priced search of both
  completeness decisions: it guards the |V|^n candidates, runs
  ``matrix_weights``, keeps the x with k ≤ ⋁_{(i,j)∈M} c_j⊗x_i, and names
  the first member (i, j) of M with k ≤ x_i and k ≤ c_j, or None.  Here M
  is the diagonal, so the member (a, a) is the witness of
  ``is_representable``.

Lemma (a normed functor on Φ_e is a weight on a distance matrix).  For an
idempotent e of a normed category and the elements ``flat`` of
Φ_e = {f : f∘e = f}, set D_e[i][j] = ⋁{|h| : h∘flat[i] = flat[j]} (⊥ where
there is no such h).  Because ⊗ preserves joins, norms x make Φ_e a normed
functor iff D_e[i][j] ⊗ x_i ≤ x_j for all i, j.  So ``ncat`` decides with the
same search: ``ncat.idempotent_inputs`` gives N[i][j] = |flat[i]∘y_j| over
the y of Φ_e's unit class, and M the class's (position of w, index of y)
pairs.  On the one-arrow-per-pair normed category of X (|(x, y)| = X(x, y);
``i_embed_cat`` in ``tests/helpers.py``) at e = (a, a) the inputs are
exactly X, Xᵀ and the diagonal.

Criterion lemma (Clementino–Hofmann 2009, *Lawvere completeness in
topology*).  Call "k ≪ k and k ≤ u⊗v ⇒ k ≤ u, k ≤ v" the criterion
(``FiniteQuantale.unit_criterion``, computed once per quantale; bool2, the
chains and Łukasiewicz-3 meet it, bool4 and the trivial quantale do not).
Under it, k ≤ ⋁_{(i,j)∈M} c_j⊗x_i gives one member with k ≤ c_j⊗x_i
(k ≪ k), hence k ≤ x_i and k ≤ c_j (the unit splits the tensor):
``adjoint_weights`` never yields a None member.  So every adjoint weight φ
has a witness a, and then φ = X(a,−): k ≤ φ(a) and φ ≤ X(a,−) (from
k ≤ φ⁺(a)) give X(a,c) ≤ X(a,c)⊗φ(a) ≤ φ(c).  Conversely each X(a,−) is
left adjoint to X(−,a), and the witnesses of X(b,−) are the a with
X(a,−) = X(b,−).  ``lawvere_complete_vcat`` then answers without the
search: PASS with the distinct rows X(a,−) in the order of ``product`` (the
order of their index tuples), each paired with the first object whose row
it is.  No weight is enumerated there, so no budget guard fires.

``validate_vdist``, ``isbell_conjugate_weight``, ``adjoint_report`` and
``is_representable`` are the distributor calculus that the ``validate``,
``adjoint``, ``isbell`` and ``representable`` tasks run.  With
``check_adjoint`` and the other distributor constructions in
``tests/helpers.py`` they are the tests' oracle of the decision.
"""

from __future__ import annotations

from collections.abc import Iterator

from .common import (
    DEFAULT_BUDGET,
    InputError,
    PreconditionError,
    Record,
    Report,
    cached_property,
    guard_count,
)
from .quantale import (
    FiniteQuantale,
    Quantale,
    require_finite,
    require_same_quantale,
)

POINT = "*"


class VCategory:
    """A finite object set with a quantale-valued distance matrix:
    ``rows[i][j]`` is X(objects[i], objects[j]), and ``index`` maps each
    object to its position.

    The container does not enforce the axioms; ``validate_vcat`` checks
    reflexivity and transitivity, so arbitrary "distance sets" can also be
    carried around and validated when needed.  ``report`` is that check, run
    once: a V-category is not mutated after construction.
    """

    def __init__(self, quantale: Quantale, objects, rows):
        objects = tuple(objects)
        self._build(quantale, objects, _checked_rows(quantale, rows, len(objects), len(objects)))

    @classmethod
    def trusted(cls, quantale: Quantale, objects, rows) -> VCategory:
        """A V-category whose ``rows`` are an n × n tuple of tuples of
        canonical values, as a parser or a quantale operation makes them:
        not checked again.  The objects must still be distinct (a
        ``InputError`` at ``objects``)."""
        X = cls.__new__(cls)
        X._build(quantale, objects, rows)
        return X

    def _build(self, quantale: Quantale, objects, rows) -> None:
        self.quantale, self.objects, self.rows = quantale, tuple(objects), rows
        self.index = {x: i for i, x in enumerate(self.objects)}
        if len(self.index) != len(self.objects):
            raise InputError("duplicate objects", "objects")

    def d(self, x, y):
        return self.rows[self.index[x]][self.index[y]]

    @cached_property
    def report(self) -> Report:
        """``validate_vcat`` of this V-category."""
        return validate_vcat(self)

    def __eq__(self, other):
        return (
            isinstance(other, VCategory)
            and self.quantale == other.quantale
            and self.objects == other.objects
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"VCategory(objects={list(self.objects)!r})"


def _checked_rows(q: Quantale, rows, n: int, m: int) -> tuple:
    """``rows`` as an n × m tuple of tuples of values checked by ``q``."""
    rows = tuple(map(tuple, rows))
    if len(rows) != n or any(len(row) != m for row in rows):
        raise ValueError(f"expected {n} rows of length {m}, got lengths {[*map(len, rows)]}")
    return tuple(tuple(map(q.check, row)) for row in rows)


def unit_vcat(q: Quantale) -> VCategory:
    """The one-object V-category with self-distance the unit."""
    return VCategory.trusted(q, (POINT,), ((q.unit,),))


class VDistributor:
    """A matrix X ⇸ Y of quantale values, contravariant in X, covariant in Y:
    ``rows[i][j]`` is φ(X.objects[i], Y.objects[j])."""

    def __init__(self, source: VCategory, target: VCategory, rows):
        require_same_quantale(source.quantale, target.quantale)
        rows = _checked_rows(source.quantale, rows, len(source.objects), len(target.objects))
        self.quantale, self.source, self.target, self.rows = source.quantale, source, target, rows

    @classmethod
    def trusted(cls, source: VCategory, target: VCategory, rows) -> VDistributor:
        """A distributor whose ``rows`` are a source × target tuple of tuples
        of canonical values, as a quantale operation returns them: not
        checked again."""
        phi = cls.__new__(cls)
        phi.quantale, phi.source, phi.target, phi.rows = source.quantale, source, target, rows
        return phi

    def at(self, x, y):
        return self.rows[self.source.index[x]][self.target.index[y]]

    def __eq__(self, other):
        return (
            isinstance(other, VDistributor)
            and self.source == other.source
            and self.target == other.target
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"VDistributor({len(self.source.objects)}x{len(self.target.objects)})"


class VWeightPair:
    """A candidate adjoint pair: φ: E ⇸ X together with ψ: X ⇸ E."""

    def __init__(self, phi: VDistributor, psi: VDistributor):
        if phi.target != psi.source:
            raise ValueError("weight pair must share the same V-category")
        self.phi, self.psi = phi, psi


# ---------------------------------------------------------------------------
# validation


def validate_vcat(X: VCategory) -> Report:
    """Reflexivity k ≤ X(x,x) and transitivity X(y,z) ⊗ X(x,y) ≤ X(x,z),
    each failure named by its first witness in object order.  The quantale's
    ``first_intransitive`` hook scans the distance matrix."""
    q, objects, rows = X.quantale, X.objects, X.rows
    report = Report()
    refl = next((i for i, row in enumerate(rows) if not q.leq(q.unit, row[i])), None)
    report.add(
        "reflexivity",
        refl is None,
        None if refl is None else f"{objects[refl]!r}: k ≰ {q.format(rows[refl][refl])}",
    )
    tri = q.first_intransitive(rows)
    report.add(
        "transitivity", tri is None, None if tri is None else tuple(objects[t] for t in tri)
    )
    return report


def validate_vdist(phi: VDistributor) -> Report:
    """Bimodule laws: Y(y,y') ⊗ φ(x,y) ⊗ X(x',x) ≤ φ(x',y')."""
    q, xs, ys = phi.quantale, phi.source.objects, phi.target.objects
    X, Y, rows = phi.source.rows, phi.target.rows, phi.rows
    report = Report()
    bad = next(
        (
            (xs[i], xs[ip], ys[j], ys[jp])
            for i, row in enumerate(rows)
            for ip, (X_ip, row_p) in enumerate(zip(X, rows))
            for j, (Y_j, v) in enumerate(zip(Y, row))
            for jp, w in enumerate(row_p)
            if not q.leq(q.tensor(Y_j[jp], q.tensor(v, X_ip[i])), w)
        ),
        None,
    )
    report.add("bimodule-laws", bad is None, bad)
    return report


# ---------------------------------------------------------------------------
# composition and adjunctions


def compose_vdist(psi: VDistributor, phi: VDistributor) -> VDistributor:
    """The composite ψ·φ: X ⇸ Z with (ψ·φ)(x,z) = ⋁_y ψ(y,z) ⊗ φ(x,y)."""
    if phi.target != psi.source:
        raise InputError("middle categories do not match")
    cols = tuple(zip(*psi.rows)) or ((),) * len(psi.target.objects)  # p columns when m = 0
    rows = phi.quantale.compose_matrices(phi.rows, cols)
    return VDistributor.trusted(phi.source, psi.target, tuple(map(tuple, rows)))


def _require_adjoint_shape(phi: VDistributor, psi: VDistributor) -> None:
    if phi.source != psi.target or phi.target != psi.source:
        raise ValueError("shapes do not form a candidate adjunction")


def adjoint_report(phi: VDistributor, psi: VDistributor) -> Report:
    """The unit X ≤ ψ·φ and the counit φ·ψ ≤ Y, each failure named by its
    first pair (x, y) in row-major order with lower[x][y] ≰ upper[x][y]."""
    report = Report()
    q, X, Y = phi.quantale, phi.source, phi.target
    for name, objects, lower, upper in (
        ("unit-inequality", X.objects, X.rows, compose_vdist(psi, phi).rows),
        ("counit-inequality", Y.objects, compose_vdist(phi, psi).rows, Y.rows),
    ):
        bad = next(
            (
                (objects[i], objects[j])
                for i, (low, up) in enumerate(zip(lower, upper))
                for j, (u, v) in enumerate(zip(low, up))
                if not q.leq(u, v)
            ),
            None,
        )
        report.add(name, bad is None, bad)
    return report


# ---------------------------------------------------------------------------
# Isbell conjugation


def isbell_conjugate_weight(phi: VDistributor) -> VDistributor:
    """The conjugate of a weight φ: E ⇸ X: the coweight ⋀_b hom(φ(b), X(a, b))."""
    q, X = phi.quantale, phi.target
    (vec,) = phi.rows  # the one row of a weight
    column = tuple((q.meet_of_homs(zip(vec, row)),) for row in X.rows)
    return VDistributor.trusted(X, unit_vcat(q), column)


# ---------------------------------------------------------------------------
# representability and Lawvere completeness


def is_representable(phi: VDistributor, psi: VDistributor):
    """A witness object a with k ≤ φ(a) and k ≤ ψ(a), or None.

    Requires the pair to be adjoint; by the representability criterion the
    witness exists iff φ is representable, and then φ = a_* and ψ = a^*.
    """
    _require_adjoint_shape(phi, psi)
    report = adjoint_report(phi, psi)
    if not report.ok:
        raise PreconditionError("is_representable requires an adjoint pair", report)
    q = phi.quantale
    for a, u, (v,) in zip(phi.target.objects, phi.rows[0], psi.rows):
        if q.leq(q.unit, u) and q.leq(q.unit, v):
            return a
    return None


def matrix_weights(q: FiniteQuantale, D, N) -> Iterator[tuple[tuple, tuple]]:
    """Every x ∈ V^n with D[i][j] ⊗ x_i ≤ x_j for all i, j, in the order of
    ``product``, each with its conjugate c_j = ⋀_i hom(x_i, N[i][j]) (N is
    n × m).  Coordinates are assigned in index order, each trying the carrier
    in order; the law for (i, j) is checked when the later of x_i and x_j is
    assigned, and c is met one coordinate at a time.  ⊥ entries of D impose
    nothing, since ⊥ ⊗ x = ⊥."""
    n = len(D)
    m = len(N[0]) if n else 0
    leq, tensor, hom, meet = q.leq_table, q.tensor_table, q.hom_table, q.meet_table
    size, bottom = q.size, q.bottom
    laws: list[list] = [[] for _ in range(n)]  # laws[max(i, j)]: (D[i][j] ⊗ −, i, j)
    for i, row in enumerate(D):
        for j, d in enumerate(row):
            if d != bottom:
                laws[max(i, j)].append((tensor[d], i, j))
    x = [bottom] * n
    conj = [(q.top,) * m] + [()] * n  # conj[t]: the meets over x_0 .. x_{t-1}
    tried = [0] * n  # per coordinate: how many carrier values were tried
    t = 0
    while t >= 0:
        if t == n:
            yield tuple(x), conj[n]
            t -= 1
            continue
        for v in range(tried[t], size):
            x[t] = v
            for row, i, j in laws[t]:
                if not leq[row[x[i]]][x[j]]:
                    break
            else:
                tried[t] = v + 1
                h = hom[v]
                conj[t + 1] = tuple([meet[c][h[d]] for c, d in zip(conj[t], N[t])])
                t += 1
                break
        else:
            tried[t] = 0
            t -= 1


def adjoint_weights(
    q: FiniteQuantale, D, N, M, budget: int, what: str, skipped: object = None
) -> Iterator[tuple[tuple, tuple, tuple | None]]:
    """(x, c, member) for each x of ``matrix_weights(q, D, N)`` with
    k ≤ ⋁_{(i,j)∈M} c_j ⊗ x_i, in the order of ``product``: ``member`` is
    the first (i, j) of M with k ≤ x_i and k ≤ c_j, or None (the one-join
    lemma in the module docstring).  The |V|^n candidates are guarded first,
    as ``what`` and ``skipped``."""
    guard_count(q.size ** len(D), budget, what, skipped)
    join, tensor, k_below = q.join_table, q.tensor_table, q.leq_table[q.unit]
    bottom = q.bottom
    for x, c in matrix_weights(q, D, N):
        unit = bottom
        for i, j in M:
            unit = join[unit][tensor[c[j]][x[i]]]
        if k_below[unit]:
            yield x, c, next(((i, j) for i, j in M if k_below[x[i]] and k_below[c[j]]), None)


class LawvereVerdict(Record):
    """The completeness decision: ``witness`` is a witness object per adjoint
    pair when complete, a failing pair otherwise."""

    _fields = ("complete", "witness")

    def __init__(self, complete: bool, witness=None):
        self.complete, self.witness = complete, witness

    def __bool__(self):
        return self.complete


def lawvere_complete_vcat(X: VCategory, budget: int = DEFAULT_BUDGET) -> LawvereVerdict:
    """Decide Lawvere completeness over the adjoint pairs (φ, φ⁺).

    Every left adjoint weight must have a representability witness; the first
    adjoint pair without one is returned as a counterexample certificate.
    X must be a V-category, since the conjugate is the right adjoint only
    there; otherwise ``PreconditionError`` carries the failed ``X.report``.

    Under the quantale's ``unit_criterion`` the verdict is read off the rows
    X(a, −) (the criterion lemma in the module docstring), with no budget
    guard; otherwise ``adjoint_weights`` searches (X, Xᵀ, the diagonal) on
    index vectors, after the guard of the ``|V|^n`` weights, and builds no
    distributor.
    """
    q = require_finite(X.quantale, "lawvere_complete_vcat")
    if not X.report.ok:
        raise PreconditionError("lawvere_complete_vcat requires a V-category", X.report)
    if q.unit_criterion:
        first: dict = {}  # row X(a, −) -> the first such a
        for a, row in zip(X.objects, X.rows):
            first.setdefault(row, a)
        return LawvereVerdict(
            True, [(dict(zip(X.objects, row)), first[row]) for row in sorted(first)]
        )
    n = len(X.objects)
    diagonal = [(i, i) for i in range(n)]
    witnesses = []
    for phi, psi, member in adjoint_weights(
        q, X.rows, tuple(zip(*X.rows)), diagonal, budget, f"weights |V|^{n}"
    ):
        phi_vec = dict(zip(X.objects, phi))
        if member is None:
            return LawvereVerdict(False, (phi_vec, dict(zip(X.objects, psi))))
        witnesses.append((phi_vec, X.objects[member[0]]))
    return LawvereVerdict(True, witnesses)
