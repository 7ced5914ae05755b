"""Finite V-normed categories, normed distributors, and the completeness
decision through presentable units.

A normed category is a finite ordinary category with a quantale-valued norm
on morphisms: identities are normed at least by the unit and composition is
submultiplicative.  Distributors out of / into the one-arrow category are
normed-set-valued functors with covariant / contravariant element actions.
Composition of such a pair at the point is a coend: a disjoint-set quotient
of the pairs, carrying the final-structure norm (class norm = join of member
norms).  The set of natural transformations between two of them is an end:
the naturality-filtered family set, carrying the initial-structure norm
(the meet of component norms).

Completeness decision
---------------------
``is_lawvere_complete_ncat`` decides, once the category's ``ncat_report``
(``validate_ncat``) has passed:

1. every idempotent of the strict (unit-normed) subcategory splits;
2. every left adjoint distributor out of the one-arrow category has a
   presentable unit: some representative (v, u) of the unit's coend class
   has both components normed at least by the unit.

Clause (2) is decided by an idempotent-indexed enumeration.  A left adjoint
presheaf is a retract of a representable (Street 1983, *Absolute colimits
in enriched categories*; Borceux 1994, *Handbook of Categorical Algebra* 1,
§6.5); a retract of A(a, -) is cut out by an idempotent e: a -> a, so it is
isomorphic to Phi_e(b) = {f: a -> b | f . e = f} with post-composition.
Norms transport along the isomorphism and presentable units are invariant
under it, so every idempotent e with every norm assignment making Phi_e a
normed functor covers every left adjoint up to isomorphism.

Closed-form lemma (Yoneda for a retract of a representable; Kelly 1982,
*Basic Concepts of Enriched Category Theory*, §§1.9, 5.5).  For Phi_e:

* the conjugate at c is {y: c -> a | e . y = y}, y standing for the family
  w |-> w . y (a natural family beta is fixed by y = beta_a(e));
* (a, e, e) satisfies both splitting equations;
* the coend classes are the fibres of (x, y, w) |-> y . w, since the
  generator at h = w joins (x, y, w) to (a, y . w, e); so the unit class is
  {(x, y, w) : e . y = y, w . e = w, y . w = e};
* the conjugate norm of y is the meet over x and w in Phi_e(x) of
  hom(|w|, |w . y|).

The norm assignments that make Phi_e a normed functor are the weights on a
matrix D_e (the lemma in the ``vcat`` docstring), so clause (2) runs the
V-category decision's search, ``vcat.matrix_weights`` and
``vcat.unit_member``.  Per idempotent, after the assignment-count guard,
the conjugate's natural-transformation guards fire (the all-top assignment
is always normed, so the search always yields) and the unit class is built
once.  The decision builds no distributor or coend; ``left_adjoint_unit``
is the general path and the tests' oracle.

Under ``vcat.unit_criterion`` (k ≪ k and the unit splits the tensor)
clause (2) cannot fail: ``unit_member`` never returns (True, None), by the
criterion lemma in the ``vcat`` docstring.  The decision is then
``validate_ncat``, clause (1) and the per-idempotent guards, fired in the
same order, with no unit class, N or D_e built.

Associativity lemma.  Once every composite has the right endpoints, both
(h∘g)∘f and h∘(g∘f) lie in A(dom f, cod h), so a triple can fail only when
that hom-set has two or more morphisms.  ``validate_category`` counts the
hom-sets once and skips every h whose codomain receives no such hom-set,
which names the same first witness; on a thin category (``i_embed_cat``)
it visits no triple.

All values are immutable after construction and every operation is a pure
function; searches iterate objects, morphisms, and assignments in
declaration order, so certificates are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Any, Iterator, Mapping

from .common import (
    ConstructionError,
    DEFAULT_BUDGET,
    PreconditionError,
    Report,
    UnionFind,
    cached_property,
    guard_count,
)
from .normed_set import NormedSet
from .quantale import Quantale, require_finite, require_same_quantale
from .vcat import VCategory, matrix_weights, unit_criterion, unit_member


class PlainCategory:
    """A finite category: objects, named morphisms, identities, a total
    composition table keyed (g, f) for cod f = dom g."""

    def __init__(self, objects, morphisms, dom, cod, identity, table):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate objects")
        if len(set(self.morphisms)) != len(self.morphisms):
            raise ValueError("duplicate morphism names")
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.identity = dict(identity)
        self.table = dict(table)
        for f in self.morphisms:
            if f not in self.dom or f not in self.cod:
                raise ValueError(f"morphism {f!r} missing dom/cod")
            if self.dom[f] not in self.objects or self.cod[f] not in self.objects:
                raise ValueError(f"morphism {f!r} has unknown endpoints")
        for a in self.objects:
            if a not in self.identity:
                raise ValueError(f"object {a!r} has no identity")
            i = self.identity[a]
            if self.dom.get(i) != a or self.cod.get(i) != a:
                raise ValueError(f"identity of {a!r} has wrong endpoints")
        self._into = {
            b: tuple(f for f in self.morphisms if self.cod[f] == b) for b in self.objects
        }
        for g in self.morphisms:
            for f in self._into[self.dom[g]]:
                if (g, f) not in self.table:
                    raise ValueError(f"composition missing for {(g, f)!r}")
        self._hom: dict[tuple, tuple] = {}

    def compose(self, g, f):
        """g after f."""
        return self.table[(g, f)]

    def into(self, b) -> tuple:
        """The morphisms into b, in declaration order."""
        return self._into[b]

    def hom(self, a, b) -> tuple:
        key = (a, b)
        if key not in self._hom:
            self._hom[key] = tuple(f for f in self._into[b] if self.dom[f] == a)
        return self._hom[key]

    def idempotents(self) -> Iterator:
        for e in self.morphisms:
            if self.dom[e] == self.cod[e] and self.compose(e, e) == e:
                yield e

    @cached_property
    def report(self) -> Report:
        """``validate_category`` of this category."""
        return validate_category(self)

    def __repr__(self):
        return (
            f"{type(self).__name__}({len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )


class NormedCategory(PlainCategory):
    """A plain category with a quantale-valued norm on morphisms."""

    def __init__(self, quantale: Quantale, objects, morphisms, dom, cod, identity, table, norm):
        super().__init__(objects, morphisms, dom, cod, identity, table)
        self.quantale = quantale
        self.norm = {f: quantale.check(norm[f]) for f in self.morphisms}
        if set(norm.keys()) != set(self.morphisms):
            raise ValueError("norm is not total on morphisms")

    def hom_set(self, a, b) -> NormedSet:
        """The hom-set as a normed set (declaration order)."""
        fs = self.hom(a, b)
        return NormedSet(self.quantale, {f: self.norm[f] for f in fs}, fs)

    @cached_property
    def ncat_report(self) -> Report:
        """``validate_ncat`` of this normed category, from its ``report``."""
        return norm_checks(self, self.report)


def validate_category(C: PlainCategory) -> Report:
    """Composite endpoints, identity laws and associativity.  Composable
    pairs (g, f) are walked with g in declaration order and f over the
    morphisms into dom g: the order of a scan over all pairs that filters
    on cod f = dom g, so each check names that scan's first witness.
    Associativity is checked only when every composite has the right
    endpoints; otherwise (h∘g)∘f may name a pair the table does not have.
    It then skips the h whose codomain receives no hom-set of two or more
    morphisms (the associativity lemma in the module docstring)."""
    report = Report()
    bad_shape = next(
        (
            (g, f)
            for g in C.morphisms
            for f in C.into(C.dom[g])
            for gf in (C.compose(g, f),)
            if C.dom.get(gf) != C.dom[f] or C.cod.get(gf) != C.cod[g]
        ),
        None,
    )
    report.add("composition-endpoints", bad_shape is None, bad_shape)

    bad_id = next(
        (
            f
            for f in C.morphisms
            if C.compose(f, C.identity[C.dom[f]]) != f
            or C.compose(C.identity[C.cod[f]], f) != f
        ),
        None,
    )
    report.add("identity-laws", bad_id is None, bad_id)
    if bad_shape is not None:
        return report

    sizes = Counter((C.dom[f], C.cod[f]) for f in C.morphisms)
    wide = {b for (_, b), size in sizes.items() if size >= 2}
    t = C.table  # (h∘g)∘f = h∘(g∘f), read in the order of the two sides
    bad_assoc = next(
        (
            (h, g, f)
            for h in C.morphisms
            if C.cod[h] in wide
            for g in C.into(C.dom[h])
            for hg in (t[h, g],)
            for f in C.into(C.dom[g])
            if t[hg, f] != t[h, t[g, f]]
        ),
        None,
    )
    report.add("associativity", bad_assoc is None, bad_assoc)
    return report


def validate_ncat(A: NormedCategory) -> Report:
    """``validate_category``, identity norms and submultiplicativity; the
    last is checked only when every composite has the right endpoints."""
    return norm_checks(A, validate_category(A))


def norm_checks(A: NormedCategory, category: Report) -> Report:
    """``validate_ncat`` of A from its ``validate_category`` report: a copy
    of that report with the identity-norm and submultiplicativity checks
    added."""
    report = Report(list(category.checks))
    q = A.quantale
    bad_unit = next(
        (a for a in A.objects if not q.leq(q.unit, A.norm[A.identity[a]])), None
    )
    report.add("identity-norms", bad_unit is None, bad_unit)
    if any(c.name == "composition-endpoints" for c in report.failures()):
        return report

    bad_sub = next(
        (
            (g, f)
            for g in A.morphisms
            for f in A.into(A.dom[g])
            if not q.leq(q.tensor(A.norm[g], A.norm[f]), A.norm[A.compose(g, f)])
        ),
        None,
    )
    report.add("composition-submultiplicative", bad_sub is None, bad_sub)
    return report


@dataclass
class NormedFunctor:
    source: NormedCategory
    target: NormedCategory
    obj_map: dict
    mor_map: dict

    def __post_init__(self):
        require_same_quantale(self.source.quantale, self.target.quantale)


def validate_nfunctor(F: NormedFunctor) -> Report:
    report = Report()
    A, B = F.source, F.target
    total = set(F.obj_map) == set(A.objects) and set(F.mor_map) == set(A.morphisms)
    report.add("totality", total)
    if not total:
        return report
    bad_shape = next(
        (
            f
            for f in A.morphisms
            if B.dom[F.mor_map[f]] != F.obj_map[A.dom[f]]
            or B.cod[F.mor_map[f]] != F.obj_map[A.cod[f]]
        ),
        None,
    )
    report.add("endpoint-compatibility", bad_shape is None, bad_shape)
    bad_id = next(
        (a for a in A.objects if F.mor_map[A.identity[a]] != B.identity[F.obj_map[a]]),
        None,
    )
    report.add("preserves-identities", bad_id is None, bad_id)
    bad_comp = next(
        (
            (g, f)
            for g in A.morphisms
            for f in A.into(A.dom[g])
            if F.mor_map[A.compose(g, f)] != B.compose(F.mor_map[g], F.mor_map[f])
        ),
        None,
    )
    report.add("preserves-composition", bad_comp is None, bad_comp)
    q = A.quantale
    bad_norm = next(
        (f for f in A.morphisms if not q.leq(A.norm[f], B.norm[F.mor_map[f]])), None
    )
    report.add("norm-increase", bad_norm is None, bad_norm)
    return report


# ---------------------------------------------------------------------------
# change of base


def strict_subcategory(A: NormedCategory) -> PlainCategory:
    """The wide subcategory of morphisms normed at least by the unit."""
    q = A.quantale
    kept = [f for f in A.morphisms if q.leq(q.unit, A.norm[f])]
    kept_set = set(kept)
    for a in A.objects:
        if A.identity[a] not in kept_set:
            raise ConstructionError(f"identity of {a!r} is not unit-normed")
    table = {}
    for g in kept:
        for f in A.into(A.dom[g]):
            if f in kept_set:
                gf = A.compose(g, f)
                if gf not in kept_set:
                    raise ConstructionError(
                        f"strict morphisms not closed under composition at {(g, f)!r}"
                    )
                table[(g, f)] = gf
    return PlainCategory(
        A.objects,
        kept,
        {f: A.dom[f] for f in kept},
        {f: A.cod[f] for f in kept},
        dict(A.identity),
        table,
    )


def sup_change_of_base(A: NormedCategory) -> VCategory:
    """The V-category with distances the joins of hom-set norms."""
    q = A.quantale
    dist = {
        (a, b): q.join(A.norm[f] for f in A.hom(a, b))
        for a in A.objects
        for b in A.objects
    }
    return VCategory(q, A.objects, dist)


def i_embed_cat(X: VCategory) -> NormedCategory:
    """The one-arrow-per-pair normed category with |(x, y)| = X(x, y)."""
    objects = X.objects
    morphisms = [(x, y) for x in objects for y in objects]
    table = {((y, z), (x, y)): (x, z) for x in objects for y in objects for z in objects}
    return NormedCategory(
        X.quantale,
        objects,
        morphisms,
        {m: m[0] for m in morphisms},
        {m: m[1] for m in morphisms},
        {x: (x, x) for x in objects},
        table,
        {m: X.d(*m) for m in morphisms},
    )


# ---------------------------------------------------------------------------
# normed distributors


class NormedDistributor:
    """A distributor between the one-arrow category and A.

    Covariant: out of the one-arrow category (element actions go along
    morphisms); contravariant: into it (actions go against morphisms).
    """

    def __init__(self, category: NormedCategory, covariant: bool, sets, action):
        self.category = category
        self.quantale = category.quantale
        self.covariant = bool(covariant)
        self.sets = dict(sets)
        if set(self.sets) != set(category.objects):
            raise ValueError("a normed set is required for every object")
        for a, S in self.sets.items():
            require_same_quantale(S.quantale, self.quantale)
        self.action = {h: dict(action[h]) for h in category.morphisms}
        for h in category.morphisms:
            src, tgt = self._action_shape(h)
            if set(self.action[h].keys()) != set(src.elements):
                raise ValueError(f"action of {h!r} is not total")
            for x, y in self.action[h].items():
                if y not in tgt:
                    raise ValueError(f"action of {h!r} leaves the target set")

    def _action_shape(self, h):
        a, b = self.category.dom[h], self.category.cod[h]
        return (self.sets[a], self.sets[b]) if self.covariant else (self.sets[b], self.sets[a])

    def set_at(self, a) -> NormedSet:
        return self.sets[a]

    def apply(self, h, x):
        return self.action[h][x]

    def __repr__(self):
        kind = "covariant" if self.covariant else "contravariant"
        sizes = {a: len(S) for a, S in self.sets.items()}
        return f"NormedDistributor({kind}, sizes={sizes})"


def validate_ndist(Phi: NormedDistributor) -> Report:
    """Action identities, functoriality over the composable pairs in the
    order of ``validate_category``, and action norms: each morphism's norm
    is below the residuation meet of its action."""
    A = Phi.category
    q = Phi.quantale
    report = Report()
    bad_id = next(
        (
            a
            for a in A.objects
            if any(Phi.apply(A.identity[a], x) != x for x in Phi.set_at(a))
        ),
        None,
    )
    report.add("action-identities", bad_id is None, bad_id)

    def functorial(g, f):
        gf = A.compose(g, f)
        if Phi.covariant:
            return all(
                Phi.apply(gf, x) == Phi.apply(g, Phi.apply(f, x))
                for x in Phi.set_at(A.dom[f])
            )
        return all(
            Phi.apply(gf, x) == Phi.apply(f, Phi.apply(g, x))
            for x in Phi.set_at(A.cod[g])
        )

    bad_comp = next(
        (
            (g, f)
            for g in A.morphisms
            for f in A.into(A.dom[g])
            if not functorial(g, f)
        ),
        None,
    )
    report.add("action-functorial", bad_comp is None, bad_comp)

    def action_norm(h):
        src, tgt = Phi._action_shape(h)
        act = Phi.action[h]
        return q.meet_of_homs((src.norms[x], tgt.norms[act[x]]) for x in src.elements)

    bad_norm = next(
        (h for h in A.morphisms if not q.leq(A.norm[h], action_norm(h))), None
    )
    report.add("action-normed", bad_norm is None, bad_norm)
    return report


def representable_cov(A: NormedCategory, a) -> NormedDistributor:
    """The covariant distributor of morphisms out of a, acting by
    post-composition."""
    sets = {b: A.hom_set(a, b) for b in A.objects}
    action = {
        h: {f: A.compose(h, f) for f in A.hom(a, A.dom[h])} for h in A.morphisms
    }
    return NormedDistributor(A, True, sets, action)


def representable_contra(A: NormedCategory, a) -> NormedDistributor:
    """The contravariant distributor of morphisms into a, acting by
    pre-composition."""
    sets = {b: A.hom_set(b, a) for b in A.objects}
    action = {
        h: {f: A.compose(f, h) for f in A.hom(A.cod[h], a)} for h in A.morphisms
    }
    return NormedDistributor(A, False, sets, action)


# ---------------------------------------------------------------------------
# natural transformations (the end construction)


def _nat_count(sizes) -> int:
    """The candidate families an end enumerates, from the pairs
    (|Φ(a)|, |Ψ(a)|) per object: ∏ |Ψ(a)|^|Φ(a)|, 1 where Φ(a) is empty."""
    count = 1
    for n_src, n_tgt in sizes:
        count *= n_tgt ** n_src if n_src else 1
        if count == 0:
            return 0
    return count


def enumerate_nat_families(
    Phi: NormedDistributor, Psi: NormedDistributor, budget: int = DEFAULT_BUDGET
) -> list[dict]:
    """All natural families of functions Φ(a) → Ψ(a), both covariant."""
    if Phi.category is not Psi.category and Phi.category != Psi.category:
        raise ValueError("distributors live over different categories")
    if not (Phi.covariant and Psi.covariant):
        raise ValueError("natural families are enumerated between covariant distributors")
    A = Phi.category
    sizes = ((len(Phi.set_at(a)), len(Psi.set_at(a))) for a in A.objects)
    guard_count(_nat_count(sizes), budget, "natural-transformation enumeration")
    # one component space per object; the families are streamed
    components = [
        [dict(zip(Phi.set_at(a), images))
         for images in product(Psi.set_at(a), repeat=len(Phi.set_at(a)))]
        for a in A.objects
    ]
    natural = []
    for comps in product(*components):
        fam = dict(zip(A.objects, comps))
        if all(
            fam[A.cod[h]][Phi.apply(h, x)] == Psi.apply(h, fam[A.dom[h]][x])
            for h in A.morphisms
            for x in Phi.set_at(A.dom[h])
        ):
            natural.append(fam)
    return natural


def nat_key(Phi: NormedDistributor, family: Mapping) -> tuple:
    """Canonical hashable form of a family, aligned with declaration order."""
    return tuple(
        tuple(family[a][x] for x in Phi.set_at(a).elements)
        for a in Phi.category.objects
    )


def nat_family(Phi: NormedDistributor, key: tuple) -> dict:
    return {
        a: dict(zip(Phi.set_at(a).elements, images))
        for a, images in zip(Phi.category.objects, key)
    }


def nat_norm(Phi: NormedDistributor, Psi: NormedDistributor, family: Mapping):
    """The meet over objects of the component map norms, as one meet over
    every object's elements, since meet is associative."""
    return Phi.quantale.meet_of_homs(
        (Phi.set_at(a).norms[x], Psi.set_at(a).norms[y])
        for a in Phi.category.objects
        for x, y in family[a].items()
    )


def nat_transformations(
    Phi: NormedDistributor, Psi: NormedDistributor, budget: int = DEFAULT_BUDGET
) -> NormedSet:
    """The normed set of all natural transformations Φ → Ψ."""
    families = enumerate_nat_families(Phi, Psi, budget)
    norms = {}
    order = []
    for fam in families:
        key = nat_key(Phi, fam)
        order.append(key)
        norms[key] = nat_norm(Phi, Psi, fam)
    return NormedSet(Phi.quantale, norms, order)


def isbell_conjugate_ndist(
    Phi: NormedDistributor, budget: int = DEFAULT_BUDGET
) -> NormedDistributor:
    """The conjugate of a covariant distributor: at a, all natural
    transformations into the representable at a; contravariant action by
    whiskering with pre-composition."""
    if not Phi.covariant:
        raise ValueError("the conjugate is taken of a covariant distributor")
    A = Phi.category
    reprs = {a: representable_cov(A, a) for a in A.objects}
    sets = {a: nat_transformations(Phi, reprs[a], budget) for a in A.objects}
    action = {}
    for h in A.morphisms:
        a, b = A.dom[h], A.cod[h]
        table = {}
        for key in sets[b].elements:
            fam = nat_family(Phi, key)
            moved = {
                x: {w: A.compose(fam[x][w], h) for w in fam[x]} for x in A.objects
            }
            table[key] = nat_key(Phi, moved)
        action[h] = table
    return NormedDistributor(A, False, sets, action)


# ---------------------------------------------------------------------------
# coends


class CoendClasses:
    """The coend of a contravariant/covariant pair at the point: the
    disjoint-set quotient of all (object, element-of-Ψ, element-of-Φ)
    triples, with the final-structure norm on classes."""

    def __init__(self, Psi: NormedDistributor, Phi: NormedDistributor):
        if Phi.category is not Psi.category and Phi.category != Psi.category:
            raise ValueError("distributors live over different categories")
        if Phi.covariant == Psi.covariant:
            raise ValueError("a coend pairs a contravariant with a covariant distributor")
        if Phi.covariant:
            self.phi, self.psi = Phi, Psi
        else:
            self.phi, self.psi = Psi, Phi
        A = Phi.category
        self.category = A
        q = Phi.quantale
        self.quantale = q
        self.pairs = [
            (a, v, u)
            for a in A.objects
            for v in self.psi.set_at(a)
            for u in self.phi.set_at(a)
        ]
        index = {p: i for i, p in enumerate(self.pairs)}
        quotient = UnionFind(len(self.pairs))
        for h in A.morphisms:
            a, b = A.dom[h], A.cod[h]
            for u in self.phi.set_at(a):
                for v in self.psi.set_at(b):
                    left = (b, v, self.phi.apply(h, u))
                    right = (a, self.psi.apply(h, v), u)
                    quotient.union(index[left], index[right])

        self._rep = {p: self.pairs[quotient.find(index[p])] for p in self.pairs}
        self.classes: dict[tuple, list] = {}
        for p in self.pairs:  # declaration order
            self.classes.setdefault(self._rep[p], []).append(p)
        self.norms = {
            rep: q.join(
                q.tensor(self.psi.set_at(a).norm(v), self.phi.set_at(a).norm(u))
                for (a, v, u) in members
            )
            for rep, members in self.classes.items()
        }

    def rep_of(self, pair):
        return self._rep[pair]

    def class_members(self, pair) -> list:
        return self.classes[self._rep[pair]]

    def class_norm(self, pair):
        return self.norms[self._rep[pair]]


def coend_unit(Psi: NormedDistributor, Phi: NormedDistributor) -> CoendClasses:
    """The composite of a contravariant and a covariant distributor at the
    point, as explicit quotient classes."""
    return CoendClasses(Psi, Phi)


# ---------------------------------------------------------------------------
# adjunction certificates


@dataclass
class AdjunctionCertificate:
    """Counit family plus a splitting triple presenting an adjunction.

    ``eps[(a, b)]`` maps pairs (y in Φ(b), x in Ψ(a)) to morphisms a → b;
    ``c`` is an object with ``u`` in Φ(c) and ``v`` in Ψ(c).
    """

    phi: NormedDistributor
    psi: NormedDistributor
    eps: dict
    c: Any
    u: Any
    v: Any


def check_adjunction_cert(cert: AdjunctionCertificate, normed: bool = False) -> Report:
    Phi, Psi = cert.phi, cert.psi
    A = Phi.category
    q = Phi.quantale
    report = Report()

    def shape_defect(a, b):
        table = cert.eps.get((a, b))
        if table is None:
            return "missing"
        expected = {(y, x) for y in Phi.set_at(b) for x in Psi.set_at(a)}
        if set(table.keys()) != expected:
            return "not total"
        if any(m not in A.hom(a, b) for m in table.values()):
            return "value outside hom"
        return None

    shape_bad = next(
        (
            (a, b, d)
            for a in A.objects
            for b in A.objects
            if (d := shape_defect(a, b))
        ),
        None,
    )
    report.add("counit-shape", shape_bad is None, shape_bad)
    if shape_bad:
        return report

    nat_tgt = next(
        (
            (g, a, y, x)
            for g in A.morphisms
            for a in A.objects
            for y in Phi.set_at(A.dom[g])
            for x in Psi.set_at(a)
            if cert.eps[(a, A.cod[g])][(Phi.apply(g, y), x)]
            != A.compose(g, cert.eps[(a, A.dom[g])][(y, x)])
        ),
        None,
    )
    report.add("counit-natural-in-target", nat_tgt is None, nat_tgt)

    nat_src = next(
        (
            (h, b, y, x)
            for h in A.morphisms
            for b in A.objects
            for y in Phi.set_at(b)
            for x in Psi.set_at(A.cod[h])
            if cert.eps[(A.dom[h], b)][(y, Psi.apply(h, x))]
            != A.compose(cert.eps[(A.cod[h], b)][(y, x)], h)
        ),
        None,
    )
    report.add("counit-natural-in-source", nat_src is None, nat_src)

    split_x = next(
        (
            (a, x)
            for a in A.objects
            for x in Psi.set_at(a)
            if Psi.apply(cert.eps[(a, cert.c)][(cert.u, x)], cert.v) != x
        ),
        None,
    )
    report.add("splitting-through-v", split_x is None, split_x)

    split_y = next(
        (
            (b, y)
            for b in A.objects
            for y in Phi.set_at(b)
            if Phi.apply(cert.eps[(cert.c, b)][(y, cert.v)], cert.u) != y
        ),
        None,
    )
    report.add("splitting-through-u", split_y is None, split_y)

    if normed:
        eps_bad = next(
            (
                (a, b, y, x)
                for a in A.objects
                for b in A.objects
                for y in Phi.set_at(b)
                for x in Psi.set_at(a)
                if not q.leq(
                    q.tensor(Phi.set_at(b).norm(y), Psi.set_at(a).norm(x)),
                    A.norm[cert.eps[(a, b)][(y, x)]],
                )
            ),
            None,
        )
        report.add("counit-normed", eps_bad is None, eps_bad)

        coend = coend_unit(Psi, Phi)
        unit_norm = coend.class_norm((cert.c, cert.v, cert.u))
        report.add(
            "unit-class-normed",
            q.leq(q.unit, unit_norm),
            f"class norm {q.format(unit_norm)}",
        )
    return report


# ---------------------------------------------------------------------------
# left adjoints through the canonical conjugate


@dataclass
class LeftAdjointData:
    phi: NormedDistributor
    conjugate: NormedDistributor
    triple: tuple | None  # (c, u, v-key) satisfying the splitting equations
    coend: CoendClasses | None
    unit_norm: Any

    @property
    def plain(self) -> bool:
        return self.triple is not None

    @property
    def normed(self) -> bool:
        if self.triple is None:
            return False
        q = self.phi.quantale
        return q.leq(q.unit, self.unit_norm)


def left_adjoint_unit(Phi: NormedDistributor, budget: int = DEFAULT_BUDGET) -> LeftAdjointData:
    """Search a splitting triple against the canonical conjugate.

    The counit is evaluation (automatically normed); the triple (c, u, v)
    must satisfy both splitting equations.  Every triple that satisfies them
    presents the same unit class, whose coend norm is the unit norm.
    """
    A = Phi.category
    conjugate = isbell_conjugate_ndist(Phi, budget)
    # each conjugate element's natural family, built once
    family = {
        key: nat_family(Phi, key) for a in A.objects for key in conjugate.set_at(a)
    }

    def splits(c, u, v):
        return all(
            Phi.apply(v[b][y], u) == y for b in A.objects for y in Phi.set_at(b)
        ) and all(
            x[z][w] == A.compose(v[z][w], x[c][u])
            for x in family.values()
            for z in A.objects
            for w in Phi.set_at(z)
        )

    triple = next(
        (
            (c, u, v_key)
            for c in A.objects
            for u in Phi.set_at(c)
            for v_key in conjugate.set_at(c)
            if splits(c, u, family[v_key])
        ),
        None,
    )
    if triple is None:
        return LeftAdjointData(Phi, conjugate, None, None, None)
    c, u, v_key = triple
    coend = coend_unit(conjugate, Phi)
    return LeftAdjointData(Phi, conjugate, triple, coend, coend.class_norm((c, v_key, u)))


def has_presentable_unit(Phi: NormedDistributor, budget: int = DEFAULT_BUDGET):
    """Scan the unit's coend class for a representative with both components
    normed at least by the unit.  Requires Φ left adjoint (normed)."""
    data = left_adjoint_unit(Phi, budget)
    if not data.normed:
        raise PreconditionError(
            "has_presentable_unit requires a left adjoint distributor",
            None if data.triple is None else data.unit_norm,
        )
    return presentable_unit_scan(data)


def presentable_unit_scan(data: LeftAdjointData):
    """The first unit-class member (a, v, w) with both component norms
    |w| and |v| at least the unit."""
    q = data.phi.quantale
    c, u, v_key = data.triple
    for a, v, w in data.coend.class_members((c, v_key, u)):
        if q.leq(q.unit, data.phi.set_at(a).norm(w)) and q.leq(
            q.unit, data.conjugate.set_at(a).norm(v)
        ):
            return True, (a, v, w)
    return False, None


def check_normed_retract(Phi: NormedDistributor, budget: int = DEFAULT_BUDGET):
    """Search an object a and unit-normed natural transformations
    α: repr(a) → Φ and β: Φ → repr(a) with α after β the identity on Φ."""
    A = Phi.category
    q = Phi.quantale
    for a in A.objects:
        Ra = representable_cov(A, a)
        betas = enumerate_nat_families(Phi, Ra, budget)
        for u in Phi.set_at(a):
            alpha = {
                x: {f: Phi.apply(f, u) for f in A.hom(a, x)} for x in A.objects
            }
            if not q.leq(q.unit, nat_norm(Ra, Phi, alpha)):
                continue
            for beta in betas:
                if not q.leq(q.unit, nat_norm(Phi, Ra, beta)):
                    continue
                if all(
                    alpha[x][beta[x][w]] == w
                    for x in A.objects
                    for w in Phi.set_at(x)
                ):
                    return a, u, nat_key(Phi, beta)
    return None


# ---------------------------------------------------------------------------
# idempotents and the completeness decision


def split_idempotents_check(C: PlainCategory):
    """Whether every idempotent splits; the first unsplit one otherwise."""
    def splits(e):
        a = C.dom[e]
        return any(
            C.compose(s, r) == e and C.compose(r, s) == C.identity[b]
            for b in C.objects
            for r in C.hom(a, b)
            for s in C.hom(b, a)
        )

    bad = next((e for e in C.idempotents() if not splits(e)), None)
    return bad is None, bad


def idempotent_distributor_sets(A: PlainCategory, e) -> dict:
    """Elements of the splitting candidate at an idempotent e: per object b,
    the morphisms f out of dom e with f after e equal to f."""
    a = A.dom[e]
    return {
        b: tuple(f for f in A.hom(a, b) if A.compose(f, e) == f) for b in A.objects
    }


def idempotent_conjugate_sets(A: PlainCategory, e) -> dict:
    """The conjugate of Φ_e in closed form: per object c, the y: c → dom e
    with e∘y = y; y stands for the natural family w ↦ w∘y."""
    a = A.dom[e]
    return {c: tuple(y for y in A.hom(c, a) if A.compose(e, y) == y) for c in A.objects}


def idempotent_unit_class(A: PlainCategory, e) -> list:
    """The unit class of Φ_e in closed form: the (x, y, w) with y in the
    conjugate at x, w in Φ_e(x) and y∘w = e, in declaration order."""
    elems = idempotent_distributor_sets(A, e)
    conj = idempotent_conjugate_sets(A, e)
    return [
        (x, y, w)
        for x in A.objects
        for y in conj[x]
        for w in elems[x]
        if A.compose(y, w) == e
    ]


def _conjugate_guards(A: NormedCategory, elems, budget: int) -> None:
    """Per object c, the guard of the conjugate's ∏_x |A(c, x)|^|Φ_e(x)|
    natural families."""
    for c in A.objects:
        sizes = ((len(elems[x]), len(A.hom(c, x))) for x in A.objects)
        guard_count(_nat_count(sizes), budget, "natural-transformation enumeration")


def _unit_class_slots(A: NormedCategory, e, elems, flat, budget: int):
    """The unit class of Φ_e as ``matrix_weights`` inputs: M pairs (position
    of w in ``flat``, index j of y), and N[i][j] = |flat[i]∘y_j|, so that
    c_j = ⋀_i hom(x_i, N[i][j]) is y_j's conjugate norm.  First the
    conjugate's guards (``_conjugate_guards``)."""
    _conjugate_guards(A, elems, budget)
    pos = {f: i for i, f in enumerate(flat)}
    index: dict = {}  # y -> j
    M = [
        (pos[w], index.setdefault(y, len(index)))
        for _, y, w in idempotent_unit_class(A, e)
    ]
    N = [[A.norm[A.compose(w, y)] for y in index] for w in flat]
    return M, N


def _weight_matrix(A: NormedCategory, elems, flat) -> list:
    """D_e on positions of ``flat``: D_e[i][j] = ⋁{|h| : h∘flat[i] = flat[j]},
    ⊥ where no such h exists.  Norms x make Φ_e a normed functor iff
    D_e[i][j] ⊗ x_i ≤ x_j for all i, j (the lemma in the ``vcat``
    docstring)."""
    q = A.quantale
    join = q.join_table
    pos = {f: i for i, f in enumerate(flat)}
    D = [[q.bottom] * len(flat) for _ in flat]
    for h in A.morphisms:
        for f in elems[A.dom[h]]:
            i, j = pos[f], pos[A.compose(h, f)]
            D[i][j] = join[D[i][j]][A.norm[h]]
    return D


@dataclass
class NcatLawvereVerdict:
    complete: bool
    clause: int | None = None  # which clause failed
    certificate: Any = None

    def __bool__(self):
        return self.complete


def is_lawvere_complete_ncat(
    A: NormedCategory, budget: int = DEFAULT_BUDGET
) -> NcatLawvereVerdict:
    """Decide completeness: idempotents of the strict part split, and every
    enumerated left adjoint has a presentable unit.

    See the module docstring for the coverage argument behind the
    idempotent-indexed enumeration of clause (2) and for the closed form of
    each Φ_e's unit class.  A must be a normed category; otherwise
    ``PreconditionError`` carries the failed ``A.ncat_report``.  Under
    ``unit_criterion`` clause (2) cannot fail, so only its guards fire.
    """
    q = require_finite(A.quantale, "is_lawvere_complete_ncat")
    if not A.ncat_report.ok:
        raise PreconditionError(
            "is_lawvere_complete_ncat requires a normed category", A.ncat_report
        )
    ok1, bad_e = split_idempotents_check(strict_subcategory(A))
    if not ok1:
        return NcatLawvereVerdict(False, clause=1, certificate=bad_e)

    search = not unit_criterion(q)
    idems = list(A.idempotents())
    for pos, e in enumerate(idems):
        elems = idempotent_distributor_sets(A, e)
        flat = [f for b in A.objects for f in elems[b]]
        count = q.size ** len(flat) if flat else 1
        guard_count(
            count,
            budget,
            f"norm assignments |V|^{len(flat)} at idempotent {e!r}",
            skipped=f"{len(idems) - pos} idempotents, {count} assignments",
        )
        if not search:
            _conjugate_guards(A, elems, budget)
            continue
        M, N = _unit_class_slots(A, e, elems, flat, budget)
        D = _weight_matrix(A, elems, flat)
        for values, conj in matrix_weights(q, D, N):
            adjoint, member = unit_member(q, values, conj, M)
            if adjoint and member is None:
                named = {f: q.format(v) for f, v in zip(flat, values)}
                return NcatLawvereVerdict(False, clause=2, certificate=(e, named))
    return NcatLawvereVerdict(True)
