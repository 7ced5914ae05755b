"""V-categories (generalized metric spaces) and V-distributors.

Distributors between finite V-categories are quantale-valued matrices; their
composite is a join-of-tensors matrix product (min-plus style over the
additive Lawvere carrier, relational composition over the two-chain), run by
the quantale's ``compose_matrices``: on table indices over a finite carrier,
and on integers over the additive extended rationals.  Scaling lemma:
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
  ``adjoint_report``.  ``unit_member`` folds it over the diagonal and names
  the first a with k ≤ φ(a) and k ≤ φ⁺(a), the witness of
  ``is_representable``.

Lemma (a normed functor on Φ_e is a weight on a distance matrix).  For an
idempotent e of a normed category and the elements ``flat`` of
Φ_e = {f : f∘e = f}, set D_e[i][j] = ⋁{|h| : h∘flat[i] = flat[j]} (⊥ where
there is no such h).  Because ⊗ preserves joins, norms x make Φ_e a normed
functor iff D_e[i][j] ⊗ x_i ≤ x_j for all i, j.  So ``ncat`` decides with the
same search: N[i][j] = |flat[i]∘y_j| over the y of Φ_e's unit class, and M
the class's (position of w, index of y) pairs.  On the one-arrow-per-pair
normed category of X (|(x, y)| = X(x, y); ``i_embed_cat`` in
``tests/helpers.py``) at e = (a, a) the inputs are exactly X, Xᵀ and the
diagonal.

Criterion lemma (Clementino–Hofmann 2009, *Lawvere completeness in
topology*).  Call "k ≪ k and k ≤ u⊗v ⇒ k ≤ u, k ≤ v" the criterion
(``unit_criterion``; bool2, the chains and Łukasiewicz-3 meet it, bool4 and
the trivial quantale do not).  Under it, k ≤ ⋁_{(i,j)∈M} c_j⊗x_i gives one
member with k ≤ c_j⊗x_i (k ≪ k), hence k ≤ x_i and k ≤ c_j (the unit
splits the tensor): ``unit_member`` never returns (True, None).  So every
adjoint weight φ has a witness a, and then φ = X(a,−): k ≤ φ(a) and
φ ≤ X(a,−) (from k ≤ φ⁺(a)) give X(a,c) ≤ X(a,c)⊗φ(a) ≤ φ(c).  Conversely
each X(a,−) is left adjoint to X(−,a), and the witnesses of X(b,−) are the
a with X(a,−) = X(b,−).  ``lawvere_complete_vcat`` then answers without the
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

from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from .common import (
    DEFAULT_BUDGET,
    PreconditionError,
    Report,
    cached_property,
    guard_count,
)
from .quantale import (
    FiniteQuantale,
    Quantale,
    require_finite,
    require_same_quantale,
    totally_below,
)

POINT = "*"


class VCategory:
    """A finite object set with a quantale-valued distance matrix.

    The container does not enforce the axioms; ``validate_vcat`` checks
    reflexivity and transitivity, so arbitrary "distance sets" can also be
    carried around and validated when needed.  ``report`` is that check, run
    once: a V-category is not mutated after construction.
    """

    def __init__(self, quantale: Quantale, objects, dist: Mapping):
        self._build(quantale, objects, dist, quantale.check)

    @classmethod
    def trusted(cls, quantale: Quantale, objects, dist: Mapping) -> VCategory:
        """A V-category whose distances are canonical, as a parser or a
        quantale operation makes them: not checked again.  The objects must
        still be distinct and the distances total."""
        X = cls.__new__(cls)
        X._build(quantale, objects, dist, None)
        return X

    def _build(self, quantale: Quantale, objects, dist: Mapping, check) -> None:
        self.quantale = quantale
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate objects")
        self.dist = {}
        for x in self.objects:
            for y in self.objects:
                if (x, y) not in dist:
                    raise ValueError(f"distance missing for pair {(x, y)!r}")
                v = dist[(x, y)]
                self.dist[(x, y)] = v if check is None else check(v)

    def d(self, x, y):
        return self.dist[(x, y)]

    @cached_property
    def report(self) -> Report:
        """``validate_vcat`` of this V-category."""
        return validate_vcat(self)

    def __eq__(self, other):
        return (
            isinstance(other, VCategory)
            and self.quantale == other.quantale
            and self.objects == other.objects
            and self.dist == other.dist
        )

    def __repr__(self):
        return f"VCategory(objects={list(self.objects)!r})"


def unit_vcat(q: Quantale) -> VCategory:
    """The one-object V-category with self-distance the unit."""
    return VCategory(q, [POINT], {(POINT, POINT): q.unit})


class VDistributor:
    """A matrix X ⇸ Y of quantale values, contravariant in X, covariant in Y."""

    def __init__(self, source: VCategory, target: VCategory, values: Mapping):
        require_same_quantale(source.quantale, target.quantale)
        self.quantale = source.quantale
        self.source = source
        self.target = target
        self.values = {}
        for x in source.objects:
            for y in target.objects:
                if (x, y) not in values:
                    raise ValueError(f"value missing for pair {(x, y)!r}")
                self.values[(x, y)] = self.quantale.check(values[(x, y)])

    @classmethod
    def trusted(cls, source: VCategory, target: VCategory, values: dict) -> VDistributor:
        """A distributor whose ``values`` are canonical and given for every
        (x, y), as a quantale operation returns them: not checked again."""
        phi = cls.__new__(cls)
        phi.quantale, phi.source, phi.target, phi.values = (
            source.quantale, source, target, values
        )
        return phi

    def at(self, x, y):
        return self.values[(x, y)]

    def __eq__(self, other):
        return (
            isinstance(other, VDistributor)
            and self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __repr__(self):
        return f"VDistributor({len(self.source.objects)}x{len(self.target.objects)})"


def identity_vdist(X: VCategory) -> VDistributor:
    return VDistributor(X, X, dict(X.dist))


def right_weight(X: VCategory, vector: Mapping) -> VDistributor:
    """A coweight X ⇸ E given by one value per object."""
    E = unit_vcat(X.quantale)
    return VDistributor(X, E, {(x, POINT): vector[x] for x in X.objects})


def weight_vector(phi: VDistributor) -> dict:
    """Read a weight E ⇸ X back as an object-indexed vector."""
    if len(phi.source.objects) != 1:
        raise ValueError("not a weight out of the unit category")
    (star,) = phi.source.objects
    return {x: phi.at(star, x) for x in phi.target.objects}


def coweight_vector(psi: VDistributor) -> dict:
    if len(psi.target.objects) != 1:
        raise ValueError("not a coweight into the unit category")
    (star,) = psi.target.objects
    return {x: psi.at(x, star) for x in psi.source.objects}


@dataclass
class VWeightPair:
    """A candidate adjoint pair: φ: E ⇸ X together with ψ: X ⇸ E."""

    phi: VDistributor
    psi: VDistributor

    def __post_init__(self):
        if self.phi.target != self.psi.source:
            raise ValueError("weight pair must share the same V-category")


# ---------------------------------------------------------------------------
# validation


def validate_vcat(X: VCategory) -> Report:
    """Reflexivity k ≤ X(x,x) and transitivity X(y,z) ⊗ X(x,y) ≤ X(x,z),
    each failure named by its first witness in object order.  The quantale's
    ``first_intransitive`` hook scans the distance matrix."""
    q = X.quantale
    objects = X.objects
    report = Report()
    refl = next((x for x in objects if not q.leq(q.unit, X.d(x, x))), None)
    report.add(
        "reflexivity",
        refl is None,
        None if refl is None else f"{refl!r}: k ≰ {q.format(X.d(refl, refl))}",
    )
    tri = q.first_intransitive([[X.dist[(x, y)] for y in objects] for x in objects])
    report.add(
        "transitivity", tri is None, None if tri is None else tuple(objects[t] for t in tri)
    )
    return report


def validate_vdist(phi: VDistributor) -> Report:
    """Bimodule laws: Y(y,y') ⊗ φ(x,y) ⊗ X(x',x) ≤ φ(x',y')."""
    q = phi.quantale
    X, Y = phi.source, phi.target
    report = Report()
    bad = next(
        (
            (x, xp, y, yp)
            for x in X.objects
            for xp in X.objects
            for y in Y.objects
            for yp in Y.objects
            if not q.leq(
                q.tensor(Y.d(y, yp), q.tensor(phi.at(x, y), X.d(xp, x))),
                phi.at(xp, yp),
            )
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
        raise ValueError("middle categories do not match")
    X, mid, Z = phi.source.objects, phi.target.objects, psi.target.objects
    rows = [[phi.values[(x, y)] for y in mid] for x in X]
    cols = [[psi.values[(y, z)] for y in mid] for z in Z]
    matrix = phi.quantale.compose_matrices(rows, cols)
    values = {(x, z): v for x, row in zip(X, matrix) for z, v in zip(Z, row)}
    return VDistributor.trusted(phi.source, psi.target, values)


def _require_adjoint_shape(phi: VDistributor, psi: VDistributor) -> None:
    if phi.source != psi.target or phi.target != psi.source:
        raise ValueError("shapes do not form a candidate adjunction")


def adjoint_report(phi: VDistributor, psi: VDistributor) -> Report:
    report = Report()
    q = phi.quantale
    unit = compose_vdist(psi, phi)
    idX = identity_vdist(phi.source)
    bad_unit = next(
        (key for key in idX.values if not q.leq(idX.values[key], unit.values[key])),
        None,
    )
    report.add("unit-inequality", bad_unit is None, bad_unit)
    counit = compose_vdist(phi, psi)
    idY = identity_vdist(phi.target)
    bad_counit = next(
        (key for key in idY.values if not q.leq(counit.values[key], idY.values[key])),
        None,
    )
    report.add("counit-inequality", bad_counit is None, bad_counit)
    return report


# ---------------------------------------------------------------------------
# Isbell conjugation


def isbell_conjugate_weight(phi: VDistributor) -> VDistributor:
    """The conjugate of a weight φ: E ⇸ X: the coweight ⋀_b hom(φ(b), X(a, b))."""
    q = phi.quantale
    X = phi.target
    vec = weight_vector(phi)
    out = {a: q.meet_of_homs((vec[b], X.dist[a, b]) for b in X.objects) for a in X.objects}
    return right_weight(X, out)


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
    pv, cv = weight_vector(phi), coweight_vector(psi)
    for a in phi.target.objects:
        if q.leq(q.unit, pv[a]) and q.leq(q.unit, cv[a]):
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


def unit_member(q: FiniteQuantale, x, c, M) -> tuple[bool, tuple | None]:
    """Whether k ≤ ⋁_{(i,j)∈M} c_j ⊗ x_i, and if so the first member (i, j)
    of M with k ≤ x_i and k ≤ c_j (None if there is none)."""
    join, tensor, k_below = q.join_table, q.tensor_table, q.leq_table[q.unit]
    unit = q.bottom
    for i, j in M:
        unit = join[unit][tensor[c[j]][x[i]]]
    if not k_below[unit]:
        return False, None
    return True, next(((i, j) for i, j in M if k_below[x[i]] and k_below[c[j]]), None)


def _adjoint_weights(X: VCategory, budget: int) -> Iterator[tuple[tuple, tuple, Any]]:
    """(φ, φ⁺, member) as index vectors for every weight φ with φ ⊣ φ⁺, in
    the order of φ in ``product``: ``matrix_weights`` on (X, Xᵀ) and
    ``unit_member`` on the diagonal, whose member (a, a) names the first
    object with k ≤ φ(a) and k ≤ φ⁺(a), or is None."""
    q = require_finite(X.quantale, "weight enumeration")
    n = len(X.objects)
    guard_count(q.size ** n, budget, f"weights |V|^{n}")
    D = [[X.dist[(x, y)] for y in X.objects] for x in X.objects]
    diagonal = [(i, i) for i in range(n)]
    for phi, psi in matrix_weights(q, D, list(zip(*D))):
        adjoint, member = unit_member(q, phi, psi, diagonal)
        if adjoint:
            yield phi, psi, member


@dataclass
class LawvereVerdict:
    complete: bool
    #: a witness object per adjoint pair when complete; a failing pair otherwise
    witness: Any = None

    def __bool__(self):
        return self.complete


def lawvere_complete_vcat(X: VCategory, budget: int = DEFAULT_BUDGET) -> LawvereVerdict:
    """Decide Lawvere completeness over the adjoint pairs (φ, φ⁺).

    Every left adjoint weight must have a representability witness; the first
    adjoint pair without one is returned as a counterexample certificate.
    X must be a V-category, since the conjugate is the right adjoint only
    there; otherwise ``PreconditionError`` carries the failed ``X.report``.

    Under ``unit_criterion`` the verdict is read off the rows X(a, −) (the
    criterion lemma in the module docstring), with no budget guard;
    otherwise the search runs on index vectors, after the guard of the
    ``|V|^n`` weights, and builds no distributor.
    """
    q = require_finite(X.quantale, "lawvere_complete_vcat")
    if not X.report.ok:
        raise PreconditionError("lawvere_complete_vcat requires a V-category", X.report)
    if unit_criterion(q):
        first: dict[tuple, Any] = {}  # row X(a, −) -> the first such a
        for a in X.objects:
            first.setdefault(tuple([X.dist[(a, y)] for y in X.objects]), a)
        return LawvereVerdict(
            True, [(dict(zip(X.objects, row)), first[row]) for row in sorted(first)]
        )
    witnesses = []
    for phi, psi, member in _adjoint_weights(X, budget):
        phi_vec = dict(zip(X.objects, phi))
        if member is None:
            return LawvereVerdict(False, (phi_vec, dict(zip(X.objects, psi))))
        witnesses.append((phi_vec, X.objects[member[0]]))
    return LawvereVerdict(True, witnesses)


def totally_compact_unit(q: Quantale) -> bool:
    """Whether k ≤ ⋁S forces k ≤ s for some member s, for every subset S."""
    q = require_finite(q, "totally_compact_unit")
    return totally_below(q, q.unit, q.unit)


def unit_tensor_splits(q: Quantale) -> bool:
    """Whether k ≤ u ⊗ v forces k ≤ u and k ≤ v."""
    q = require_finite(q, "unit_tensor_splits")
    k_below = q.leq_table[q.unit]
    return all(
        k_below[u] and k_below[v]
        for u, row in enumerate(q.tensor_table)
        for v, uv in enumerate(row)
        if k_below[uv]
    )


def unit_criterion(q: Quantale) -> bool:
    """The criterion k ≪ k and k ≤ u⊗v ⇒ k ≤ u, k ≤ v.  Under it every
    V-category over the carrier is Lawvere complete and ``unit_member``
    never returns (True, None) (the criterion lemma in the module
    docstring); both completeness decisions compute it once and skip their
    weight search when it holds."""
    return totally_compact_unit(q) and unit_tensor_splits(q)
