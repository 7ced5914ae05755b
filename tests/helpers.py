"""Shared fixture builders and brute-force oracles for the test suite.

The first sections hold the library calculus that no instance file reaches:
normed maps and their constructions, V-functors and induced distributors,
normed functors, change of base, the general left-adjoint path, the Cauchy
predicates and the verifier of a candidate colimit cocone.  They are the
oracles of the decisions and constructions in ``quantcat``."""

from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Iterable, Mapping

from quantcat.cli import InputError, _ser_normed_set, _ser_vcat
from quantcat.common import (
    ConstructionError,
    DEFAULT_BUDGET,
    PreconditionError,
    Report,
    cached_property,
    guard_count,
)
from quantcat.ncat import (
    AdjunctionCertificate,
    NcatLawvereVerdict,
    NormedCategory,
    NormedDistributor,
    _class_norm,
    idempotent_distributor_sets,
    norm_checks,
    split_idempotents_check,
    unit_class,
    validate_category,
)
from quantcat.normed_set import NormedSet, final_structure
from quantcat.quantale import (
    BUILTIN_QUANTALES,
    Quantale,
    require_finite,
    require_same_quantale,
)
from quantcat.seqlim import (
    NCAT,
    NSET,
    Cocone,
    MetricSequence,
    Sequence,
    _Quotient,
    cauchy_value,
    forward_cauchy_value,
)
from quantcat.vcat import (
    POINT,
    LawvereVerdict,
    VCategory,
    VDistributor,
    _adjoint_weights,
    _require_adjoint_shape,
    adjoint_report,
    is_representable,
    isbell_conjugate_weight,
    unit_vcat,
    validate_vcat,
    validate_vdist,
)


# ---------------------------------------------------------------------------
# normed sets and maps (the normed_set calculus)


def unit_normed_set(q: Quantale) -> NormedSet:
    """The one-point set whose point is normed by the unit."""
    return NormedSet(q, {POINT: q.unit})


class NormedMap:
    """An arbitrary function between normed sets, with its computed norm.

    The carrier function need not respect norms; it is a morphism of the
    strict layer exactly when ``is_strict`` holds.
    """

    def __init__(self, source: NormedSet, target: NormedSet, mapping: Mapping):
        require_same_quantale(source.quantale, target.quantale)
        self.source = source
        self.target = target
        if set(mapping.keys()) != set(source.elements):
            raise ValueError("mapping is not total on the source")
        for a, b in mapping.items():
            if b not in target:
                raise ValueError(f"image {b!r} of {a!r} not in the target")
        self.mapping = dict(mapping)

    def __call__(self, a):
        return self.mapping[a]

    @cached_property
    def norm(self):
        """``map_norm`` of this map."""
        return map_norm(self)

    def is_strict(self) -> bool:
        q = self.source.quantale
        return q.leq(q.unit, self.norm)

    def then(self, other: "NormedMap") -> "NormedMap":
        if other.source is not self.target and other.source != self.target:
            raise ValueError("maps are not composable")
        return NormedMap(
            self.source, other.target, {a: other(self(a)) for a in self.source}
        )

    def __eq__(self, other):
        return (
            isinstance(other, NormedMap)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __repr__(self):
        return f"NormedMap({self.mapping!r})"


def identity_map(A: NormedSet) -> NormedMap:
    return NormedMap(A, A, {a: a for a in A})


def compose(g: NormedMap, f: NormedMap) -> NormedMap:
    """g after f."""
    return f.then(g)


def map_norm(phi: NormedMap):
    """The meet over source elements of hom(|a|, |φ a|)."""
    A, B, f = phi.source, phi.target, phi.mapping
    return A.quantale.meet_of_homs((A.norms[a], B.norms[f[a]]) for a in A.elements)


def tensor(A: NormedSet, B: NormedSet) -> NormedSet:
    """Cartesian product carrier, normed by |(a, b)| = |a| ⊗ |b|."""
    require_same_quantale(A.quantale, B.quantale)
    q = A.quantale
    norms = {(a, b): q.tensor(A.norm(a), B.norm(b)) for a in A for b in B}
    return NormedSet(q, norms, [(a, b) for a in A for b in B])


def all_functions(A: NormedSet, B: NormedSet, budget: int = DEFAULT_BUDGET):
    """Every function A → B, as an image tuple aligned with A.elements."""
    require_same_quantale(A.quantale, B.quantale)
    guard_count(len(B) ** len(A), budget, f"function space of size {len(B)}^{len(A)}")
    yield from product(B.elements, repeat=len(A))


def function_as_map(A: NormedSet, B: NormedSet, images: tuple) -> NormedMap:
    return NormedMap(A, B, dict(zip(A.elements, images)))


def internal_hom(A: NormedSet, B: NormedSet, budget: int = DEFAULT_BUDGET) -> NormedSet:
    """All functions A → B, normed by their map norm.

    Elements are image tuples aligned with ``A.elements``.
    """
    norms = {}
    order = []
    for images in all_functions(A, B, budget):
        order.append(images)
        norms[images] = function_as_map(A, B, images).norm
    return NormedSet(A.quantale, norms, order)


def curry(phi: NormedMap, A: NormedSet, B: NormedSet, budget: int = DEFAULT_BUDGET) -> NormedMap:
    """Transpose φ: A ⊗ B → C into A → [B, C]."""
    if tuple(phi.source.elements) != tuple(tensor(A, B).elements):
        raise ValueError("source of the map is not the tensor of A and B")
    C = phi.target
    H = internal_hom(B, C, budget)
    mapping = {a: tuple(phi((a, b)) for b in B.elements) for a in A}
    return NormedMap(A, H, mapping)


def initial_structure(
    q: Quantale, carrier: Iterable, maps: Iterable[tuple[Mapping, NormedSet]]
) -> NormedSet:
    """Norm each a by the meet of |f_i(a)| over the family of maps into
    normed sets; the empty family norms everything by top."""
    carrier = list(carrier)
    maps = list(maps)
    norms = {}
    for a in carrier:
        values = []
        for f, target in maps:
            require_same_quantale(q, target.quantale)
            values.append(target.norm(f[a]))
        norms[a] = q.meet(values)
    return NormedSet(q, norms, carrier)


def strict_part(A: NormedSet) -> tuple:
    """The elements whose norm dominates the unit."""
    q = A.quantale
    return tuple(a for a in A if q.leq(q.unit, A.norm(a)))


def s_value(A: NormedSet):
    """The join of all element norms (the sup change of base on objects)."""
    return A.quantale.join(A.norm(a) for a in A)


def i_embed(q: Quantale, v) -> NormedSet:
    """The one-point normed set carrying the value v."""
    return NormedSet(q, {POINT: q.check(v)})

# ---------------------------------------------------------------------------
# V-functors, induced distributors and weights (the vcat calculus)


@dataclass
class VFunctor:
    source: VCategory
    target: VCategory
    obj_map: dict

    def __post_init__(self):
        require_same_quantale(self.source.quantale, self.target.quantale)
        if set(self.obj_map.keys()) != set(self.source.objects):
            raise ValueError("object map is not total")
        for x, fx in self.obj_map.items():
            if fx not in self.target.objects:
                raise ValueError(f"image {fx!r} of {x!r} not in the target")

    def __call__(self, x):
        return self.obj_map[x]


def left_weight(X: VCategory, vector: Mapping) -> VDistributor:
    """A weight E ⇸ X given by one value per object: a 1 × n row."""
    return VDistributor(unit_vcat(X.quantale), X, [[vector[x] for x in X.objects]])


def right_weight(X: VCategory, vector: Mapping) -> VDistributor:
    """A coweight X ⇸ E given by one value per object: an n × 1 column."""
    return VDistributor(X, unit_vcat(X.quantale), [[vector[x]] for x in X.objects])


def weight_vector(phi: VDistributor) -> dict:
    """Read a weight E ⇸ X back as an object-indexed vector."""
    if len(phi.source.objects) != 1:
        raise ValueError("not a weight out of the unit category")
    return dict(zip(phi.target.objects, phi.rows[0]))


def coweight_vector(psi: VDistributor) -> dict:
    """Read a coweight X ⇸ E back as an object-indexed vector."""
    if len(psi.target.objects) != 1:
        raise ValueError("not a coweight into the unit category")
    return {x: v for x, (v,) in zip(psi.source.objects, psi.rows)}


def identity_vdist(X: VCategory) -> VDistributor:
    """The identity distributor X ⇸ X, whose matrix is X's."""
    return VDistributor(X, X, X.rows)


def validate_vfunctor(f: VFunctor) -> Report:
    q = f.source.quantale
    report = Report()
    bad = next(
        (
            (x, y)
            for x in f.source.objects
            for y in f.source.objects
            if not q.leq(f.source.d(x, y), f.target.d(f(x), f(y)))
        ),
        None,
    )
    report.add("functor-contracts-distances", bad is None, bad)
    return report


def f_lower(f: VFunctor) -> VDistributor:
    """The induced distributor X ⇸ Y with matrix Y(f x, y)."""
    Y = f.target
    return VDistributor(f.source, Y, [Y.rows[Y.index[f(x)]] for x in f.source.objects])


def f_upper(f: VFunctor) -> VDistributor:
    """The induced distributor Y ⇸ X with matrix Y(y, f x)."""
    Y = f.target
    image = [Y.index[f(x)] for x in f.source.objects]
    return VDistributor(Y, f.source, [[row[i] for i in image] for row in Y.rows])


def object_lower(X: VCategory, a) -> VDistributor:
    """The representable weight X(a, −)."""
    return left_weight(X, {x: X.d(a, x) for x in X.objects})


def object_upper(X: VCategory, a) -> VDistributor:
    """The representable coweight X(−, a)."""
    return right_weight(X, {x: X.d(x, a) for x in X.objects})


def check_adjoint(phi: VDistributor, psi: VDistributor) -> bool:
    """Whether φ: X ⇸ Y is left adjoint to ψ: Y ⇸ X.

    In the thin setting this is the unit inequality X ≤ ψ·φ together with
    the counit inequality φ·ψ ≤ Y (``adjoint_report``); triangle identities
    are automatic.
    """
    _require_adjoint_shape(phi, psi)
    return adjoint_report(phi, psi).ok


def isbell_conjugate_coweight(psi: VDistributor) -> VDistributor:
    """The conjugate of a coweight ψ: X ⇸ E: the weight ⋀_b hom(ψ(b), X(b, a))."""
    q = psi.quantale
    X = psi.source
    vec = coweight_vector(psi)
    out = {a: q.meet_of_homs((vec[b], X.d(b, a)) for b in X.objects) for a in X.objects}
    return left_weight(X, out)

# ---------------------------------------------------------------------------
# normed functors, change of base, the general left-adjoint path


def validate_ncat(A: NormedCategory) -> Report:
    """``validate_category``, identity norms and submultiplicativity; the
    last is checked only when every composite has the right endpoints."""
    return norm_checks(A, validate_category(A))


@dataclass
class NormedFunctor:
    source: NormedCategory
    target: NormedCategory
    obj_map: dict
    mor_map: dict

    def __post_init__(self):
        require_same_quantale(self.source.quantale, self.target.quantale)


def validate_nfunctor(F: NormedFunctor) -> Report:
    """Totality (every image a target object or morphism), endpoints,
    identities, composition and norms.  Composition is checked only when
    every image has the right endpoints; otherwise F g and F f may not
    compose in the target."""
    report = Report()
    A, B = F.source, F.target
    total = (
        set(F.obj_map) == set(A.objects)
        and set(F.mor_map) == set(A.morphisms)
        and set(F.obj_map.values()) <= set(B.objects)
        and set(F.mor_map.values()) <= set(B.morphisms)
    )
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
    if bad_shape is None:
        bad_comp = next(
            (
                (g, f)
                for g in A.morphisms
                for f in A.into[A.dom[g]]
                if F.mor_map[A.table[g, f]] != B.table[F.mor_map[g], F.mor_map[f]]
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


def sup_change_of_base(A: NormedCategory) -> VCategory:
    """The V-category with distances the joins of hom-set norms."""
    q = A.quantale
    rows = [[q.join(A.norm[f] for f in A.hom(a, b)) for b in A.objects] for a in A.objects]
    return VCategory(q, A.objects, rows)


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


def representable_cov(A: NormedCategory, a) -> NormedDistributor:
    """The covariant distributor of morphisms out of a, acting by
    post-composition."""
    sets = {b: hom_set(A, a, b) for b in A.objects}
    action = {
        h: {f: A.table[h, f] for f in A.hom(a, A.dom[h])} for h in A.morphisms
    }
    return NormedDistributor(A, True, sets, action)


def representable_contra(A: NormedCategory, a) -> NormedDistributor:
    """The contravariant distributor of morphisms into a, acting by
    pre-composition."""
    sets = {b: hom_set(A, b, a) for b in A.objects}
    action = {
        h: {f: A.table[f, h] for f in A.hom(A.cod[h], a)} for h in A.morphisms
    }
    return NormedDistributor(A, False, sets, action)


def hom_set(A: NormedCategory, a, b) -> NormedSet:
    """The hom-set A(a, b) as a normed set (declaration order)."""
    fs = A.hom(a, b)
    return NormedSet(A.quantale, {f: A.norm[f] for f in fs}, fs)


def strict_subcategory(A: NormedCategory) -> NormedCategory:
    """The wide subcategory of morphisms normed at least by the unit, built
    and validated as a normed category of its own: the oracle of clause (1)
    over ``strict_morphisms``.  ``ConstructionError`` when it is not one."""
    q = A.quantale
    kept = [f for f in A.morphisms if q.leq(q.unit, A.norm[f])]
    kept_set = set(kept)
    for a in A.objects:
        if A.identity[a] not in kept_set:
            raise ConstructionError(f"identity of {a!r} is not unit-normed")
    table = {}
    for g in kept:
        for f in A.into[A.dom[g]]:
            if f in kept_set:
                gf = A.table[g, f]
                if gf not in kept_set:
                    raise ConstructionError(
                        f"strict morphisms not closed under composition at {(g, f)!r}"
                    )
                table[(g, f)] = gf
    return NormedCategory(
        q,
        A.objects,
        kept,
        {f: A.dom[f] for f in kept},
        {f: A.cod[f] for f in kept},
        dict(A.identity),
        table,
        {f: A.norm[f] for f in kept},
    )


def enumerate_nat_families(
    Phi: NormedDistributor, Psi: NormedDistributor, budget: int = DEFAULT_BUDGET
) -> list[dict]:
    """All natural families of functions Φ(a) → Ψ(a), both covariant: every
    family of component functions, filtered for naturality (the oracle of
    ``ncat.conjugate_families``)."""
    if Phi.category is not Psi.category and Phi.category != Psi.category:
        raise ValueError("distributors live over different categories")
    if not (Phi.covariant and Psi.covariant):
        raise ValueError("natural families are enumerated between covariant distributors")
    A = Phi.category
    count = 1
    for a in A.objects:
        count *= len(Psi.sets[a]) ** len(Phi.sets[a])
    guard_count(count, budget, "natural-transformation enumeration")
    components = [
        [dict(zip(Phi.sets[a], images))
         for images in product(Psi.sets[a], repeat=len(Phi.sets[a]))]
        for a in A.objects
    ]
    natural = []
    for comps in product(*components):
        fam = dict(zip(A.objects, comps))
        if all(
            fam[A.cod[h]][Phi.action[h][x]] == Psi.action[h][fam[A.dom[h]][x]]
            for h in A.morphisms
            for x in Phi.sets[A.dom[h]]
        ):
            natural.append(fam)
    return natural


def nat_key(Phi: NormedDistributor, family: Mapping) -> tuple:
    """Canonical hashable form of a family, aligned with declaration order."""
    return tuple(
        tuple(family[a][x] for x in Phi.sets[a].elements)
        for a in Phi.category.objects
    )


def nat_norm(Phi: NormedDistributor, Psi: NormedDistributor, family: Mapping):
    """The meet over objects of the component map norms, as one meet over
    every object's elements, since meet is associative."""
    return Phi.quantale.meet_of_homs(
        (Phi.sets[a].norms[x], Psi.sets[a].norms[y])
        for a in Phi.category.objects
        for x, y in family[a].items()
    )


def nat_transformations(
    Phi: NormedDistributor, Psi: NormedDistributor, budget: int = DEFAULT_BUDGET
) -> NormedSet:
    """The normed set of all natural transformations Φ → Ψ."""
    families = enumerate_nat_families(Phi, Psi, budget)
    norms = {nat_key(Phi, fam): nat_norm(Phi, Psi, fam) for fam in families}
    return NormedSet(Phi.quantale, norms, list(norms))


def nat_family(Phi: NormedDistributor, key: tuple) -> dict:
    """The natural family whose ``nat_key`` is ``key``."""
    return {
        a: dict(zip(Phi.sets[a].elements, images))
        for a, images in zip(Phi.category.objects, key)
    }


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
        table = {}
        for key in sets[A.cod[h]].elements:
            fam = nat_family(Phi, key)
            moved = {
                x: {w: A.table[fam[x][w], h] for w in fam[x]} for x in A.objects
            }
            table[key] = nat_key(Phi, moved)
        action[h] = table
    return NormedDistributor(A, False, sets, action)


@dataclass
class LeftAdjointData:
    phi: NormedDistributor
    conjugate: NormedDistributor
    triple: tuple | None  # (c, u, v-key) satisfying the splitting equations
    unit_class: list | None  # its (a, v-key, w), as ``unit_class`` lists them
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

    The counit is evaluation, ε(y, β) = β_b(y) (automatically normed); the
    triple (c, u, v) must satisfy both splitting equations.  Every triple
    that satisfies them presents the same unit class, read off
    ``unit_class``, whose coend norm is the unit norm.  The category must
    pass ``validate_category``; otherwise ``PreconditionError`` carries its
    ``report``.
    """
    A = Phi.category
    if not A.report.ok:
        raise PreconditionError("left_adjoint_unit requires a category", A.report)
    conjugate = isbell_conjugate_ndist(Phi, budget)
    # each conjugate element's natural family, built once
    family = {
        key: nat_family(Phi, key) for a in A.objects for key in conjugate.sets[a]
    }

    def splits(c, u, v):
        return all(
            Phi.action[v[b][y]][u] == y for b in A.objects for y in Phi.sets[b]
        ) and all(
            x[z][w] == A.table[v[z][w], x[c][u]]
            for x in family.values()
            for z in A.objects
            for w in Phi.sets[z]
        )

    triple = next(
        (
            (c, u, v_key)
            for c in A.objects
            for u in Phi.sets[c]
            for v_key in conjugate.sets[c]
            if splits(c, u, family[v_key])
        ),
        None,
    )
    if triple is None:
        return LeftAdjointData(Phi, conjugate, None, None, None)
    c, u, _ = triple
    evaluation = {
        (a, c): {(u, x): family[x][c][u] for x in conjugate.sets[a]} for a in A.objects
    }
    members = unit_class(Phi, conjugate, evaluation, c, u)
    return LeftAdjointData(
        Phi, conjugate, triple, members, _class_norm(Phi, conjugate, members)
    )


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
    for a, v, w in data.unit_class:
        if q.leq(q.unit, data.phi.sets[a].norm(w)) and q.leq(
            q.unit, data.conjugate.sets[a].norm(v)
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
        for u in Phi.sets[a]:
            alpha = {
                x: {f: Phi.action[f][u] for f in A.hom(a, x)} for x in A.objects
            }
            if not q.leq(q.unit, nat_norm(Ra, Phi, alpha)):
                continue
            for beta in betas:
                if not q.leq(q.unit, nat_norm(Phi, Ra, beta)):
                    continue
                if all(
                    alpha[x][beta[x][w]] == w
                    for x in A.objects
                    for w in Phi.sets[x]
                ):
                    return a, u, nat_key(Phi, beta)
    return None

# ---------------------------------------------------------------------------
# the Cauchy predicates and the norm profile's periodic read-off


def is_cauchy(s: Sequence) -> bool:
    q = s.norm_quantale
    return q.leq(q.unit, cauchy_value(s))


def forward_cauchy_metric(ms: MetricSequence) -> bool:
    q = ms.space.quantale
    return q.leq(q.unit, forward_cauchy_value(ms))


def tail_norm(profile, d: int):
    """|t^d| read off an eventually periodic ``NormProfile``."""
    if d < len(profile.tail_norms):
        return profile.tail_norms[d]
    return profile.tail_norms[profile.transient + (d - profile.transient) % profile.period]

# ---------------------------------------------------------------------------
# the normed-colimit verifier: every cocone condition of a candidate cocone
#
# For set-like ambients, a cocone that commutes on its first n0 + L stages
# (L the length of its tail) commutes on every stage, since its components
# and the steps repeat with period L from stage n0 on.  A commuting cocone is
# then constant on every class the steps generate, so it factors through the
# quotient; ``verify_normed_colimit`` checks (C1) only after the cocone
# commutes, and reads the induced map off the first tail stage, where every
# class has a member.  (C1) holds iff that map is a bijection onto the apex.
#
# For a normed-category ambient (C1) uses the eventual image of the
# pre-composition endomap u = (- . t) on each hom-set out of the tail object:
# a tail-compatible cocone component family takes values in the eventual
# image E of u, on which u is bijective, so tail cocones to y correspond
# exactly to elements of E via their value at the first tail stage; (C1)
# holds iff pre-composition with that component is a bijection onto E for
# every object y.  The images of u^d = (- . t^d) shrink with d and agree at
# d = T and d = T + p, so E = {f . t^T : f in A(T, y)}.
#
# (C2b) for set-like ambients is decided by the reduction in the ``seqlim``
# docstring.  On the canonical cocone every condition but (C2a) holds by
# construction, and ``seqlim.colimit_report`` reports them so; this verifier
# is its oracle.


def _check_components(s: Sequence, gamma: Cocone) -> None:
    """Each component of a set-like cocone maps its stage into the apex;
    the first stage and element where one does not is a ``ValueError``."""
    apex = set(s._elements(gamma.apex))
    for n in range(s.n0 + len(gamma.tail)):
        comp = gamma.component(n, s.n0)
        elems = s._elements(s.object_at(n))
        for x in elems:
            if x not in comp:
                raise ValueError(f"stage {n} component: no image for {x!r}")
            if comp[x] not in apex:
                raise ValueError(
                    f"stage {n} component: image {comp[x]!r} of {x!r} not in the target"
                )
        if len(comp) != len(elems):
            stray = next(x for x in comp if x not in set(elems))
            raise ValueError(f"stage {n} component: {stray!r} is not a stage element")


def cocone_commutes(s: Sequence, gamma: Cocone) -> tuple[bool, Any]:
    if len(gamma.prefix) != s.n0 or not gamma.tail:
        return False, "component count mismatch"
    if s.kind != NCAT:
        _check_components(s, gamma)
    horizon = s.n0 + len(gamma.tail)
    for n in range(horizon):
        left = gamma.component(n, s.n0)
        right_next = gamma.component(n + 1, s.n0)
        step = s.step_at(n)
        if s.kind == NCAT:
            if s.category.table[right_next, step] != left:
                return False, n
        else:
            src = s.object_at(n)
            for x in s._elements(src):
                if right_next[step[x]] != left[x]:
                    return False, (n, x)
    return True, None


def component_norm(s: Sequence, gamma: Cocone, n: int):
    return s.map_norm_of(gamma.component(n, s.n0), s.object_at(n), gamma.apex)


def pair_set(q: Quantale, X: VCategory) -> NormedSet:
    """The ordered pairs of a distance set, each normed by its distance."""
    norms = {(x, y): v for x, row in zip(X.objects, X.rows) for y, v in zip(X.objects, row)}
    return NormedSet.trusted(q, norms, list(norms))


def pair_map(f: Mapping) -> dict:
    """A map of points as the map of the ordered pairs of points."""
    return {(x, y): (f[x], f[y]) for x in f for y in f}


def _c2b_sets(s: Sequence, gamma: Cocone) -> tuple[NormedSet, NormedSet]:
    """The apex as a normed set (its pair set, for distance sets) and H, the
    final structure on the same carrier from the cocone's tail components."""
    q = s.norm_quantale
    if s.kind == NSET:
        apex, T, maps = gamma.apex, s.tail_object, gamma.tail
    else:
        apex, T = pair_set(q, gamma.apex), pair_set(q, s.tail_object)
        maps = [pair_map(g) for g in gamma.tail]
    return apex, final_structure(q, apex.elements, [(T, g) for g in maps])


def _first_above_final(q: Quantale, apex: NormedSet, H: NormedSet):
    """The first apex element a with |a| ≰ |a|_H, or None."""
    return next(
        (a for a in apex.elements if not q.leq(apex.norm(a), H.norm(a))), None
    )


def _probe_guards(q: Quantale, n: int, probe_bound: int, budget: int):
    """The budget guards of the (C2b) probe enumeration out of an apex of n
    elements, in its order: the probe normed sets up to ``probe_bound``
    elements, then the s^n probe maps at each probe size s, yielded after
    its guard."""
    total = sum(q.size ** size for size in range(1, probe_bound + 1))
    guard_count(total, budget, f"probe normed sets up to size {probe_bound}")
    for size in range(1, probe_bound + 1):
        guard_count(size**n, budget, "probe maps out of the apex")
        yield size


def _c2b_probe_check(
    q: Quantale, apex: NormedSet, H: NormedSet, probe_bound: int, budget: int
):
    """(C2b) over every map f out of the apex into a normed set of at most
    B = ``probe_bound`` elements: |f| out of H must be below |f| out of the
    apex.  By the lemma in the ``seqlim`` docstring the check fails iff some
    apex element has |a| ≰ |a|_H: (⇒) holds for every B, (⇐) for B ≥ 2; at
    B = 1 the check may pass while some |a| ≰ |a|_H.

    So when no apex element is above its H norm the check passes after the
    guards of the enumeration (``_probe_guards``), in its order: the
    probe normed sets, then the probe maps out of the apex at each probe
    size s, s^|apex| of them.  Otherwise the probes are enumerated (value
    tuples in product order, then image tuples) and the first failing (f,
    |f| out of the apex, |f| out of H) is the witness.  A probe is its value tuple p_0 .. p_{s-1}, a map
    its image tuple, and |f| = ⋀_a hom(|a|, |p_{f(a)}|).
    """
    n = len(apex)
    search = _first_above_final(q, apex, H) is not None
    norms = [apex.norm(a) for a in apex]
    h_norms = [H.norm(a) for a in apex]
    for size in _probe_guards(q, n, probe_bound, budget):
        if not search:
            continue
        for values in product(q.carrier(), repeat=size):
            for image in product(range(size), repeat=n):
                ps = [values[j] for j in image]  # p_{f(a)} per apex element a
                lhs = q.meet_of_homs(zip(norms, ps))
                rhs = q.meet_of_homs(zip(h_norms, ps))
                if not q.leq(rhs, lhs):
                    f = {a: f"p{j}" for a, j in zip(apex.elements, image)}
                    return False, (f, q.format(lhs), q.format(rhs))
    return True, None


def verify_normed_colimit(
    s: Sequence,
    gamma: Cocone,
    probe_bound: int = 3,
    budget: int = DEFAULT_BUDGET,
) -> Report:
    """Check (C1), (C2a), and (C2b) for a candidate cocone.

    A set-like cocone must map each stage into its apex (``ValueError``
    otherwise).  (C1) runs only on a commuting cocone: it compares the
    induced map on the quotient's classes with the apex (set-like
    ambients) or runs the eventual-image bijection per object (category
    ambient).  (C2a)/(C2b) evaluate the tail windows exactly; (C2b) probes
    normed sets up to ``probe_bound`` over finite carriers and uses the
    exact single-element reduction over infinite ones.
    """
    report = Report()
    ok, witness = cocone_commutes(s, gamma)
    report.add("cocone-commutes", ok, witness)
    if not ok:
        return report
    q = s.norm_quantale

    if s.kind == NCAT:
        _verify_c1_ncat(s, gamma, report)
    else:
        _verify_c1_sets(s, gamma, report)

    c2a = q.meet(component_norm(s, gamma, s.n0 + i) for i in range(len(gamma.tail)))
    report.add(
        "C2a",
        q.leq(q.unit, c2a),
        f"tail component norm meet {q.format(c2a)}",
    )

    if s.kind == NCAT:
        _verify_c2b_ncat(s, gamma, report)
        return report
    apex, H = _c2b_sets(s, gamma)
    if q.is_finite:
        ok, witness = _c2b_probe_check(q, apex, H, probe_bound, budget)
        report.add(f"C2b (probe bound {probe_bound})", ok, witness)
    else:
        bad = _first_above_final(q, apex, H)
        report.add("C2b (exact reduction)", bad is None, bad)
    return report


def _verify_c1_sets(s: Sequence, gamma: Cocone, report: Report) -> None:
    """(C1) of a commuting cocone: it factors through the quotient (section
    comment), so only the induced map, read off the first tail stage, is
    checked."""
    report.add("C1-factors-through-quotient", True)
    labels, comp = s.quotient.gamma[s.n0], gamma.tail[0]
    induced = {labels[x]: comp[x] for x in labels}
    image = set(induced.values())
    apex_elems = s._elements(gamma.apex)
    bijective = len(image) == len(induced) and image == set(apex_elems)
    report.add(
        "C1-bijective",
        bijective,
        None if bijective else f"classes {len(induced)}, apex {len(apex_elems)}",
    )


def _verify_c1_ncat(s: Sequence, gamma: Cocone, report: Report) -> None:
    A = s.category
    T = s.tail_object
    powers, transient, _ = s.tail_powers
    eventual = powers[transient]
    apex = gamma.apex
    first_tail = gamma.tail[0]

    def defect(y):
        E = {A.table[f, eventual] for f in A.hom(T, y)}
        assigned = [A.table[f, first_tail] for f in A.hom(apex, y)]
        if any(h not in E for h in assigned):
            return "component leaves the eventual image"
        if len(set(assigned)) != len(assigned) or set(assigned) != E:
            return f"hom size {len(assigned)} vs eventual image {len(E)}"
        return None

    bad = next(((y, d) for y in A.objects if (d := defect(y))), None)
    report.add("C1-eventual-image-bijection", bad is None, bad)


def _verify_c2b_ncat(s: Sequence, gamma: Cocone, report: Report) -> None:
    A = s.category
    q = s.norm_quantale
    bad = next(
        (
            (y, f)
            for y in A.objects
            for f in A.hom(gamma.apex, y)
            if not q.leq(q.meet(A.norm[A.table[f, g]] for g in gamma.tail), A.norm[f])
        ),
        None,
    )
    report.add("C2b-all-morphisms", bad is None, bad)

# ---------------------------------------------------------------------------
# fixtures and oracles

def subsets(q):
    """All subsets of a finite carrier, smallest masks first."""
    n = q.size
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def all_vcategories(q, objects, budget=DEFAULT_BUDGET):
    """Every V-category structure on the given objects (axioms filtered)."""
    objects = list(objects)
    n = len(objects)
    count = q.size ** (n * n) if n else 1
    guard_count(count, budget, f"distance matrices |V|^{n * n}")
    for assignment in product(list(q.carrier()), repeat=n * n):
        X = VCategory(q, objects, [assignment[i * n:(i + 1) * n] for i in range(n)])
        if validate_vcat(X).ok:
            yield X


def adjoint_weight_pairs(X, budget=DEFAULT_BUDGET):
    """The adjoint pairs (φ, ψ) out of the unit, in the order of φ.

    Right adjoints are unique, and a weight φ that has one is left adjoint to
    its Isbell conjugate φ⁺ (Lawvere 1973; Stubbe 2005), so only the weights
    are enumerated and ψ := φ⁺.  Requires X to be a V-category over a
    quantale.
    """
    for phi, psi, _ in _adjoint_weights(X, budget):
        yield (
            left_weight(X, dict(zip(X.objects, phi))),
            right_weight(X, dict(zip(X.objects, psi))),
        )


def idempotent_distributor(A, e, norms):
    """The covariant distributor on the e-fixed morphisms with the
    post-composition action and the given norm assignment."""
    elems = idempotent_distributor_sets(A, e)
    sets = {
        b: NormedSet(A.quantale, {f: norms[f] for f in elems[b]}, elems[b])
        for b in A.objects
    }
    action = {
        h: {f: A.table[h, f] for f in elems[A.dom[h]]} for h in A.morphisms
    }
    return NormedDistributor(A, True, sets, action)


def brute_adjoint_pairs(X):
    """Every adjoint pair (φ, ψ) of a weight and a coweight on X, found by
    exhausting all |V|^(2n) candidates, φ in the outer loop."""
    q = X.quantale
    carrier = list(q.carrier())
    for pvec in product(carrier, repeat=len(X.objects)):
        for cvec in product(carrier, repeat=len(X.objects)):
            phi = left_weight(X, dict(zip(X.objects, pvec)))
            psi = right_weight(X, dict(zip(X.objects, cvec)))
            if (
                validate_vdist(phi).ok
                and validate_vdist(psi).ok
                and check_adjoint(phi, psi)
            ):
                yield phi, psi


def brute_lawvere_vcat(X, budget=DEFAULT_BUDGET) -> LawvereVerdict:
    """The V-category completeness decision through the distributor
    calculus: every weight in product order is validated, paired with its
    Isbell conjugate, tested with ``check_adjoint`` and, when adjoint,
    handed to ``is_representable``; same preconditions and guard as the
    decision."""
    q = require_finite(X.quantale, "lawvere_complete_vcat")
    report = validate_vcat(X)
    if not report.ok:
        raise PreconditionError("lawvere_complete_vcat requires a V-category", report)
    n = len(X.objects)
    guard_count(q.size ** n, budget, f"weights |V|^{n}")
    witnesses = []
    for pvec in product(q.carrier(), repeat=n):
        phi = left_weight(X, dict(zip(X.objects, pvec)))
        if not validate_vdist(phi).ok:
            continue
        psi = isbell_conjugate_weight(phi)
        if not check_adjoint(phi, psi):
            continue
        a = is_representable(phi, psi)
        if a is None:
            return LawvereVerdict(False, (weight_vector(phi), coweight_vector(psi)))
        witnesses.append((weight_vector(phi), a))
    return LawvereVerdict(True, witnesses)


def join_of_tensors(q, rows, cols):
    """The matrix product of ``compose_matrices`` by its definition: entry
    (x, z) is the join over y of cols[z][y] ⊗ rows[x][y], one ``tensor``
    and one ``join`` per term."""
    return [
        [q.join(q.tensor(c, r) for r, c in zip(row, col)) for col in cols]
        for row in rows
    ]


def scan_first_intransitive(q, matrix):
    """``first_intransitive`` by its definition: the first (i, j, k) in
    row-major order with matrix[j][k] ⊗ matrix[i][j] ≰ matrix[i][k], one
    ``tensor`` and one ``leq`` per triple; None if there is none."""
    return next(
        (
            (i, j, k)
            for i, row in enumerate(matrix)
            for j, xy in enumerate(row)
            for k, (yz, xz) in enumerate(zip(matrix[j], row))
            if not q.leq(q.tensor(yz, xy), xz)
        ),
        None,
    )


def method_validate_vcat(X) -> Report:
    """``validate_vcat`` by n³ calls of ``X.d``, ``q.tensor`` and ``q.leq``
    in object order: the reference first witnesses on every carrier."""
    q = X.quantale
    report = Report()
    refl = next((x for x in X.objects if not q.leq(q.unit, X.d(x, x))), None)
    report.add(
        "reflexivity",
        refl is None,
        None if refl is None else f"{refl!r}: k ≰ {q.format(X.d(refl, refl))}",
    )
    tri = next(
        (
            (x, y, z)
            for x in X.objects
            for y in X.objects
            for z in X.objects
            if not q.leq(q.tensor(X.d(y, z), X.d(x, y)), X.d(x, z))
        ),
        None,
    )
    report.add("transitivity", tri is None, tri)
    return report


def method_validate_quantale(q) -> Report:
    """``validate_quantale`` by n³ calls of ``q.leq`` and ``q.tensor`` and a
    ``q.join`` per subset: the reference names, verdicts and witnesses.

    Join-distributivity is checked over the empty set and all pairs: on a
    finite lattice every join is an iterated binary join or the empty one,
    so this is exact.
    """
    report = Report()
    els = list(q.carrier())

    refl = next((u for u in els if not q.leq(u, u)), None)
    report.add("order-reflexive", refl is None, None if refl is None else q.name(refl))

    antisym = next(
        ((u, v) for u in els for v in els if u != v and q.leq(u, v) and q.leq(v, u)),
        None,
    )
    report.add(
        "order-antisymmetric",
        antisym is None,
        None if antisym is None else tuple(q.name(x) for x in antisym),
    )

    trans = next(
        (
            (u, v, w)
            for u in els
            for v in els
            for w in els
            if q.leq(u, v) and q.leq(v, w) and not q.leq(u, w)
        ),
        None,
    )
    report.add(
        "order-transitive",
        trans is None,
        None if trans is None else tuple(q.name(x) for x in trans),
    )

    if not report.ok:
        return report

    # the witness is the last missing pair in row-major order
    missing_join = next(
        ((u, v) for u in reversed(els) for v in reversed(els) if q._join[u][v] is None),
        None,
    )
    missing_meet = next(
        ((u, v) for u in reversed(els) for v in reversed(els) if q._meet[u][v] is None),
        None,
    )
    if q._bottom is None:
        missing_join = missing_join or ("empty",)
    if q._top is None:
        missing_meet = missing_meet or ("empty",)
    report.add(
        "lattice-joins",
        missing_join is None,
        None if missing_join is None else str(missing_join),
    )
    report.add(
        "lattice-meets",
        missing_meet is None,
        None if missing_meet is None else str(missing_meet),
    )
    if not report.ok:
        return report

    comm = next(
        ((u, v) for u in els for v in els if q.tensor(u, v) != q.tensor(v, u)), None
    )
    report.add(
        "tensor-commutative",
        comm is None,
        None if comm is None else tuple(q.name(x) for x in comm),
    )

    assoc = next(
        (
            (u, v, w)
            for u in els
            for v in els
            for w in els
            if q.tensor(q.tensor(u, v), w) != q.tensor(u, q.tensor(v, w))
        ),
        None,
    )
    report.add(
        "tensor-associative",
        assoc is None,
        None if assoc is None else tuple(q.name(x) for x in assoc),
    )

    unit_bad = next((u for u in els if q.tensor(q.unit, u) != u), None)
    report.add(
        "tensor-unit", unit_bad is None, None if unit_bad is None else q.name(unit_bad)
    )

    # pairs in ascending-mask order: (0, 1), (0, 2), (1, 2), (0, 3), ...
    subsets = [()] + [(u, v) for v in els for u in els if u < v]
    dist_bad = next(
        (
            (q.name(u), tuple(q.name(s) for s in S))
            for u in els
            for S in subsets
            if q.tensor(u, q.join(S)) != q.join(q.tensor(u, s) for s in S)
        ),
        None,
    )
    report.add("tensor-join-distributive", dist_bad is None, dist_bad)
    return report


def join_hom_table(q):
    """``q.hom_table`` by its definition: hom(u, v) is ``q.join`` of
    {w : w ⊗ u ≤ v} in carrier order, None where that join raises."""

    def residual(u, v):
        try:
            return q.join(w for w in q.carrier() if q.leq(q.tensor(w, u), v))
        except ValueError:
            return None

    return tuple(tuple(residual(u, v) for v in q.carrier()) for u in q.carrier())


def pairwise_lattice_tables(q):
    """``(join_table, meet_table, bottom, top)`` of a ``FiniteQuantale`` as
    its constructor once built them, one carrier scan per pair: the least
    element of the bitmask S = up[u] & up[v] (down[u] & down[v]) that has
    all of S above (below) it, None where there is none."""
    leq, els = q.leq_table, range(q.size)
    up = [sum(1 << w for w in els if leq[u][w]) for u in els]
    down = [sum(1 << w for w in els if leq[w][u]) for u in els]

    def least(cover, S):
        return next((c for c in els if S >> c & 1 and cover[c] & S == S), None)

    full = (1 << q.size) - 1
    join = tuple(tuple(least(up, up[u] & up[v]) for v in els) for u in els)
    meet = tuple(tuple(least(down, down[u] & down[v]) for v in els) for u in els)
    return join, meet, least(up, full), least(down, full)


# ---------------------------------------------------------------------------
# residuation meets by the quantale methods: the oracles of ``meet_of_homs``
# and of the map norms that fold it


def fold_meet_of_homs(q, pairs):
    """``q.meet_of_homs(pairs)`` by its definition."""
    return q.meet(q.hom(u, v) for u, v in pairs)


def fold_map_norm(phi):
    """``map_norm``: the meet over source elements of hom(|a|, |φ a|)."""
    q = phi.source.quantale
    return q.meet(
        q.hom(phi.source.norm(a), phi.target.norm(phi(a))) for a in phi.source
    )


def fold_lip_norm(q_norm, X, Y, mapping):
    """``seqlim.lip_norm``: the meet over ordered pairs of source points."""
    return q_norm.meet(
        q_norm.hom(X.d(x, xp), Y.d(mapping[x], mapping[xp]))
        for x in X.objects
        for xp in X.objects
    )


def fold_nat_norm(Phi, Psi, family):
    """``nat_norm``: the meet over objects of the component map norms."""
    return Phi.quantale.meet(
        fold_map_norm(NormedMap(Phi.sets[a], Psi.sets[a], family[a]))
        for a in Phi.category.objects
    )


def fold_isbell_vector(X, vec, weight):
    """The vector of the Isbell conjugate of a weight (``weight`` true:
    ⋀_b hom(vec[b], X(a, b))) or of a coweight (⋀_b hom(vec[b], X(b, a)))."""
    q = X.quantale
    return {
        a: q.meet(q.hom(vec[b], X.d(a, b) if weight else X.d(b, a)) for b in X.objects)
        for a in X.objects
    }


def norm_assignment_ok(A, Phi) -> bool:
    """Whether Φ's norms make it a normed functor: |h| ⊗ |f| ≤ |h∘f|."""
    q = A.quantale
    return all(
        q.leq(q.tensor(A.norm[h], Phi.sets[A.dom[h]].norm(f)),
              Phi.sets[A.cod[h]].norm(Phi.action[h][f]))
        for h in A.morphisms
        for f in Phi.sets[A.dom[h]]
    )


def filtered_norm_assignments(A, e):
    """Every norm assignment on the elements of Φ_e that passes
    ``norm_assignment_ok``, in product order."""
    elems = idempotent_distributor_sets(A, e)
    flat = [f for b in A.objects for f in elems[b]]
    for values in product(list(A.quantale.carrier()), repeat=len(flat)):
        if norm_assignment_ok(A, idempotent_distributor(A, e, dict(zip(flat, values)))):
            yield values


class UnionFind:
    """Disjoint sets over ``0 .. n-1``; the root of a class is its smallest
    index, so class representatives do not depend on the union order."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


class CoendClasses:
    """The coend of a contravariant/covariant pair at the point by brute
    force: the disjoint-set quotient of all (object, element-of-Ψ,
    element-of-Φ) triples under every generator, with the final-structure
    norm on classes.  The oracle of ``ncat.unit_class``."""

    def __init__(self, Psi, Phi):
        if Phi.category is not Psi.category and Phi.category != Psi.category:
            raise ValueError("distributors live over different categories")
        if Phi.covariant == Psi.covariant:
            raise ValueError("a coend pairs a contravariant with a covariant distributor")
        if Phi.covariant:
            self.phi, self.psi = Phi, Psi
        else:
            self.phi, self.psi = Psi, Phi
        A = Phi.category
        q = Phi.quantale
        self.pairs = [
            (a, v, u)
            for a in A.objects
            for v in self.psi.sets[a]
            for u in self.phi.sets[a]
        ]
        index = {p: i for i, p in enumerate(self.pairs)}
        quotient = UnionFind(len(self.pairs))
        for h in A.morphisms:
            a, b = A.dom[h], A.cod[h]
            for u in self.phi.sets[a]:
                for v in self.psi.sets[b]:
                    left = (b, v, self.phi.action[h][u])
                    right = (a, self.psi.action[h][v], u)
                    quotient.union(index[left], index[right])

        self._rep = {p: self.pairs[quotient.find(index[p])] for p in self.pairs}
        self.classes: dict[tuple, list] = {}
        for p in self.pairs:  # declaration order
            self.classes.setdefault(self._rep[p], []).append(p)
        self.norms = {
            rep: q.join(
                q.tensor(self.psi.sets[a].norm(v), self.phi.sets[a].norm(u))
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


def coend_unit(Psi, Phi) -> CoendClasses:
    """The composite of a contravariant and a covariant distributor at the
    point, as explicit quotient classes."""
    return CoendClasses(Psi, Phi)


def dist_leq(phi, psi) -> bool:
    """Pointwise order of parallel V-distributors."""
    if phi.source != psi.source or phi.target != psi.target:
        raise ValueError("distributors are not parallel")
    q = phi.quantale
    return all(
        q.leq(u, v) for low, up in zip(phi.rows, psi.rows) for u, v in zip(low, up)
    )


def brute_left_adjoints(A, budget=DEFAULT_BUDGET):
    """(e, norms, Φ_e, left_adjoint_unit data) for every idempotent e and
    every normed-functor assignment on Φ_e: the whole product, filtered, one
    conjugate per assignment, under the decision's assignment-count guard."""
    q = A.quantale
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
        for values in filtered_norm_assignments(A, e):
            norms = dict(zip(flat, values))
            Phi = idempotent_distributor(A, e, norms)
            yield e, norms, Phi, left_adjoint_unit(Phi, budget)


def brute_lawvere_ncat(A, budget=DEFAULT_BUDGET) -> NcatLawvereVerdict:
    """The completeness decision by exhaustion: clause 1 on the strict part,
    then the presentable-unit scan of every enumerated left adjoint, over
    its unit class and norm from the union-find coend; same precondition as
    the decision."""
    q = require_finite(A.quantale, "brute_lawvere_ncat")
    report = validate_ncat(A)
    if not report.ok:
        raise PreconditionError("is_lawvere_complete_ncat requires a normed category", report)
    A0 = strict_subcategory(A)
    ok1, bad_e = split_idempotents_check(A0, A0.morphisms)
    if not ok1:
        return NcatLawvereVerdict(False, clause=1, certificate=bad_e)
    for e, norms, _, data in brute_left_adjoints(A, budget):
        if not data.plain:
            continue
        # normed iff the unit's coend class, normed from the whole conjugate,
        # is above the unit
        c, u, v_key = data.triple
        coend = coend_unit(data.conjugate, data.phi)
        normed = q.leq(q.unit, coend.class_norm((c, v_key, u)))
        brute = replace(data, unit_class=coend.class_members((c, v_key, u)))
        if normed and not presentable_unit_scan(brute)[0]:
            named = {f: q.format(v) for f, v in norms.items()}
            return NcatLawvereVerdict(False, clause=2, certificate=(e, named))
    return NcatLawvereVerdict(True)


def unindexed_validate_ncat(A) -> Report:
    """``validate_ncat`` by a scan over all pairs and triples of morphisms
    with a codomain filter: the reference order of first witnesses.  As
    there, a failed endpoint check skips associativity and
    submultiplicativity."""
    C, q = A, A.quantale
    report = Report()
    bad_shape = next(
        (
            (g, f)
            for g in C.morphisms
            for f in C.morphisms
            if C.cod[f] == C.dom[g]
            for gf in (C.table[g, f],)
            if C.dom.get(gf) != C.dom[f] or C.cod.get(gf) != C.cod[g]
        ),
        None,
    )
    report.add("composition-endpoints", bad_shape is None, bad_shape)
    bad_id = next(
        (
            f
            for f in C.morphisms
            if C.table[f, C.identity[C.dom[f]]] != f
            or C.table[C.identity[C.cod[f]], f] != f
        ),
        None,
    )
    report.add("identity-laws", bad_id is None, bad_id)
    if bad_shape is None:
        bad_assoc = next(
            (
                (h, g, f)
                for h in C.morphisms
                for g in C.morphisms
                if C.cod[g] == C.dom[h]
                for f in C.morphisms
                if C.cod[f] == C.dom[g]
                and C.table[C.table[h, g], f] != C.table[h, C.table[g, f]]
            ),
            None,
        )
        report.add("associativity", bad_assoc is None, bad_assoc)
    bad_unit = next(
        (a for a in A.objects if not q.leq(q.unit, A.norm[A.identity[a]])), None
    )
    report.add("identity-norms", bad_unit is None, bad_unit)
    if bad_shape is not None:
        return report
    bad_sub = next(
        (
            (g, f)
            for g in A.morphisms
            for f in A.morphisms
            if A.cod[f] == A.dom[g]
            and not q.leq(q.tensor(A.norm[g], A.norm[f]), A.norm[A.table[g, f]])
        ),
        None,
    )
    report.add("composition-submultiplicative", bad_sub is None, bad_sub)
    return report


def pairs_normed_set(q, X) -> NormedSet:
    """The ordered pairs of a distance set, each normed by its distance."""
    elems = [(x, y) for x in X.objects for y in X.objects]
    return NormedSet(q, {(x, y): X.d(x, y) for x, y in elems}, elems)


def pairs_map(f) -> dict:
    return {(x, y): (f[x], f[y]) for x in f for y in f}


def brute_colimit_nset(s):
    """(labels, norms) of the normed-set colimit, each class normed by the
    join of the norms of the tail-window elements in it."""
    quot = s.quotient
    T, q = s.tail_object, s.quantale
    norms = {
        label: q.join(
            T.norm(x)
            for r in range(quot.period)
            for x in T.elements
            if quot.gamma[s.n0 + r][x] == label
        )
        for label in quot.labels
    }
    return quot.labels, norms


def brute_colimit_dset(s):
    """(labels, rows) of the distance-set colimit, each pair of classes at
    the join of the tail-window distances between their members."""
    quot = s.quotient
    T, q = s.tail_object, s.quantale
    rows = tuple(
        tuple(
            q.join(
                T.d(x, y)
                for r in range(quot.period)
                for x in T.objects
                for y in T.objects
                if quot.gamma[s.n0 + r][x] == l1 and quot.gamma[s.n0 + r][y] == l2
            )
            for l2 in quot.labels
        )
        for l1 in quot.labels
    )
    return quot.labels, rows


def unrolled_quotient(s) -> _Quotient:
    """The colimit classes by a union-find over the stages unrolled to
    n0 + transient + period, each element joined to its step image; the
    classes are labelled in the order of the first-tail-stage elements."""
    powers, transient, period = s.tail_powers
    n0 = s.n0
    horizon = n0 + period  # stages whose classes are read off
    depth = n0 + transient + period  # union-find runs this far

    stage_elems = [list(s._elements(s.object_at(n))) for n in range(depth + 1)]
    index = {}
    for n, elems in enumerate(stage_elems):
        for x in elems:
            index[(n, x)] = len(index)
    stages = UnionFind(len(index))
    for n in range(depth):
        step = s.step_at(n)
        for x in stage_elems[n]:
            stages.union(index[(n, x)], index[(n + 1, step[x])])

    labels = {}
    order = []
    for x in stage_elems[n0]:
        root = stages.find(index[(n0, x)])
        if root not in labels:
            labels[root] = f"c{len(labels)}"
            order.append(labels[root])

    gamma = []
    for n in range(horizon):
        comp = {}
        for x in stage_elems[n]:
            root = stages.find(index[(n, x)])
            if root not in labels:
                raise ConstructionError(
                    f"stage {n} element {x!r} missed every colimit class"
                )
            comp[x] = labels[root]
        gamma.append(comp)
    return _Quotient(order, gamma, period)


def c1_sets_scan(s, gamma) -> list:
    """(name, ok, witness) of the set-like (C1) checks by scanning every
    element of the first n0 + period stages for one whose class already
    took another value under the cocone, against ``unrolled_quotient``."""
    quot = unrolled_quotient(s)
    value_of = {}
    bad = next(
        (
            (n, x)
            for n in range(s.n0 + quot.period)
            for comp in (gamma.component(n, s.n0),)
            for x in s._elements(s.object_at(n))
            if value_of.setdefault(quot.gamma[n][x], comp[x]) != comp[x]
        ),
        None,
    )
    checks = [("C1-factors-through-quotient", bad is None, bad)]
    if bad:
        return checks
    apex_elems = list(s._elements(gamma.apex))
    image = [value_of[label] for label in quot.labels]
    ok = len(set(image)) == len(image) and set(image) == set(apex_elems)
    witness = None if ok else f"classes {len(quot.labels)}, apex {len(apex_elems)}"
    return checks + [("C1-bijective", ok, witness)]


def eventual_image_fixpoint(values, endo) -> set:
    """Apply ``endo`` to the set until it stops shrinking."""
    current = set(values)
    while True:
        nxt = {endo(v) for v in current}
        if nxt == current:
            return current
        current = nxt


def c1_ncat_scan(s, gamma) -> tuple:
    """(name, ok, witness) of the normed-category (C1) check, with each
    eventual image found by ``eventual_image_fixpoint``."""
    A, T, t = s.category, s.tail_object, s.tail_endo

    def defect(y):
        E = eventual_image_fixpoint(A.hom(T, y), lambda f: A.table[f, t])
        assigned = [A.table[f, gamma.tail[0]] for f in A.hom(gamma.apex, y)]
        if any(h not in E for h in assigned):
            return "component leaves the eventual image"
        if len(set(assigned)) != len(assigned) or set(assigned) != E:
            return f"hom size {len(assigned)} vs eventual image {len(E)}"
        return None

    bad = next(((y, d) for y in A.objects if (d := defect(y))), None)
    return "C1-eventual-image-bijection", bad is None, bad


def transformation_monoid(q, n) -> NormedCategory:
    """Every endomap of n points as one object's morphisms, named by their
    image strings ("01" is the identity on two points), all normed k."""
    maps = ["".join(map(str, images)) for images in product(range(n), repeat=n)]
    table = {(g, f): "".join(g[int(i)] for i in f) for g in maps for f in maps}
    ident = "".join(map(str, range(n)))
    return NormedCategory(
        q, ["*"], maps, dict.fromkeys(maps, "*"), dict.fromkeys(maps, "*"),
        {"*": ident}, table, dict.fromkeys(maps, q.unit),
    )


def scan_validate_ndist(Phi) -> Report:
    """``validate_ndist`` over every ordered pair of morphisms, filtered on
    cod f = dom g, with each action norm taken from a ``NormedMap``."""
    A = Phi.category
    q = Phi.quantale
    report = Report()
    bad_id = next(
        (a for a in A.objects if any(Phi.action[A.identity[a]][x] != x for x in Phi.sets[a])),
        None,
    )
    report.add("action-identities", bad_id is None, bad_id)

    def functorial(g, f):
        gf = A.table[g, f]
        if Phi.covariant:
            return all(Phi.action[gf][x] == Phi.action[g][Phi.action[f][x]]
                       for x in Phi.sets[A.dom[f]])
        return all(Phi.action[gf][x] == Phi.action[f][Phi.action[g][x]]
                   for x in Phi.sets[A.cod[g]])

    bad_comp = next(
        ((g, f) for g in A.morphisms for f in A.morphisms
         if A.cod[f] == A.dom[g] and not functorial(g, f)),
        None,
    )
    report.add("action-functorial", bad_comp is None, bad_comp)

    def action_map(h):
        src, tgt = Phi._action_shape(h)
        return NormedMap(src, tgt, Phi.action[h])

    bad_norm = next(
        (h for h in A.morphisms if not q.leq(A.norm[h], action_map(h).norm)), None
    )
    report.add("action-normed", bad_norm is None, bad_norm)
    return report


def scan_preserves_composition(F):
    """The first (g, f) with cod f = dom g, over every ordered pair of
    morphisms, whose composite F does not preserve; None if there is none."""
    A, B = F.source, F.target
    return next(
        ((g, f) for g in A.morphisms for f in A.morphisms
         if A.cod[f] == A.dom[g]
         and F.mor_map[A.table[g, f]] != B.table[F.mor_map[g], F.mor_map[f]]),
        None,
    )


def _probe_each_component(q, apex, sources, maps, probe_bound, budget):
    """Every map f out of the apex into a normed set of at most
    ``probe_bound`` elements, compared against ⋀_i |f ∘ γ_i| with one map
    norm per tail component γ_i; the first (f, |f|, ⋀_i |f ∘ γ_i|) that
    fails is the witness."""
    carrier = list(q.carrier())
    total = sum(q.size ** size for size in range(1, probe_bound + 1))
    guard_count(total, budget, f"probe normed sets up to size {probe_bound}")
    for size in range(1, probe_bound + 1):
        elems = [f"p{i}" for i in range(size)]
        for values in product(carrier, repeat=size):
            probe = NormedSet(q, dict(zip(elems, values)), elems)
            guard_count(
                len(probe) ** len(apex) if len(apex) else 1,
                budget,
                "probe maps out of the apex",
            )
            if not apex.elements:
                continue
            for image in product(probe.elements, repeat=len(apex)):
                f = dict(zip(apex.elements, image))
                lhs = NormedMap(apex, probe, f).norm
                rhs = q.meet(
                    NormedMap(src, probe, {x: f[g[x]] for x in src.elements}).norm
                    for src, g in zip(sources, maps)
                )
                if not q.leq(rhs, lhs):
                    return False, (dict(f), q.format(lhs), q.format(rhs))
    return True, None


def _hit_join_reduction(q, apex, sources, maps):
    """|a| ≤ ⋁{|x| : γ_i x = a} for every apex element, first failure named."""
    hits = {}
    for src, g in zip(sources, maps):
        for x in src.elements:
            hits.setdefault(g[x], []).append(src.norm(x))
    bad = next(
        (a for a in apex.elements if not q.leq(apex.norm(a), q.join(hits.get(a, [])))),
        None,
    )
    return bad is None, bad


def _c2b_data(s, gamma):
    q = s.norm_quantale
    if s.kind == "nset":
        return q, gamma.apex, [s.tail_object] * len(gamma.tail), gamma.tail
    tail_pairs = pairs_normed_set(q, s.tail_object)
    return (
        q,
        pairs_normed_set(q, gamma.apex),
        [tail_pairs] * len(gamma.tail),
        [pairs_map(c) for c in gamma.tail],
    )


def brute_c2b_check(s, gamma, probe_bound=3, budget=DEFAULT_BUDGET):
    """(name, ok, witness) of (C2b) for a set-like cocone: probes with one map
    norm per tail component over finite carriers, the join of hit norms over
    infinite ones; distance sets go through their pair sets."""
    q, apex, sources, maps = _c2b_data(s, gamma)
    if q.is_finite:
        ok, witness = _probe_each_component(q, apex, sources, maps, probe_bound, budget)
        return f"C2b (probe bound {probe_bound})", ok, witness
    ok, witness = _hit_join_reduction(q, apex, sources, maps)
    return "C2b (exact reduction)", ok, witness


def brute_c2b_reduction(s, gamma) -> bool:
    """The hit-join reduction of (C2b) on any carrier."""
    return _hit_join_reduction(*_c2b_data(s, gamma))[0]


def c2b_reduction_check(s, gamma) -> bool:
    """The single-element reduction of (C2b), |a| ≤ |a|_H for every apex
    element, exact on any carrier.  It shares H with the probe route, so the
    independent oracle for both is the per-component check in the tests."""
    if s.kind == NCAT:
        raise ValueError("the reduction applies to set-like ambients")
    return _first_above_final(s.norm_quantale, *_c2b_sets(s, gamma)) is None


def i_embed_weight(phi_vec, NA) -> NormedDistributor:
    """Interpret an object-indexed vector of values as a one-point-per-object
    covariant distributor over a one-arrow category."""
    star = "*"
    sets = {x: NormedSet(NA.quantale, {star: phi_vec[x]}) for x in NA.objects}
    action = {h: {star: star} for h in NA.morphisms}
    return NormedDistributor(NA, True, sets, action)


def representable_certificate(A, a) -> AdjunctionCertificate:
    """The certificate for the representable adjunction at a: the counit is
    composition and the splitting triple is (a, 1_a, 1_a)."""
    Phi = representable_cov(A, a)
    Psi = representable_contra(A, a)
    eps = {
        (x, y): {
            (f, g): A.table[f, g]
            for f in A.hom(a, y)
            for g in A.hom(x, a)
        }
        for x in A.objects
        for y in A.objects
    }
    one = A.identity[a]
    return AdjunctionCertificate(Phi, Psi, eps, a, one, one)


def is_representable_ndist(Phi):
    """An object b and element u presenting Φ as normed-isomorphic to the
    representable at b, or None."""
    A = Phi.category
    q = Phi.quantale
    for b in A.objects:
        Rb = representable_cov(A, b)
        for u in Phi.sets[b]:
            alpha = {x: {f: Phi.action[f][u] for f in A.hom(b, x)} for x in A.objects}
            if not all(
                len(set(alpha[x].values())) == len(A.hom(b, x)) == len(Phi.sets[x])
                for x in A.objects
            ):
                continue
            inverse = {x: {w: f for f, w in alpha[x].items()} for x in A.objects}
            if q.leq(q.unit, nat_norm(Rb, Phi, alpha)) and q.leq(
                q.unit, nat_norm(Phi, Rb, inverse)
            ):
                return b, u
    return None


def monoid_cat(q, norm_one, norm_e) -> NormedCategory:
    """One object, one idempotent e besides the identity."""
    table = {
        ("1", "1"): "1",
        ("1", "e"): "e",
        ("e", "1"): "e",
        ("e", "e"): "e",
    }
    return NormedCategory(
        q,
        ["a"],
        ["1", "e"],
        {"1": "a", "e": "a"},
        {"1": "a", "e": "a"},
        {"a": "1"},
        table,
        {"1": norm_one, "e": norm_e},
    )


def cyclic_cat(q, n, s=1) -> NormedCategory:
    """The cyclic group Z/n as one object's morphisms "0" .. "n-1", composed
    by addition mod n; the multiples of s are normed k, the rest ⊥."""
    ms = [str(k) for k in range(n)]
    table = {(g, f): str((int(g) + int(f)) % n) for g in ms for f in ms}
    return NormedCategory(
        q, ["o"], ms, dict.fromkeys(ms, "o"), dict.fromkeys(ms, "o"), {"o": "0"}, table,
        {m: q.unit if int(m) % s == 0 else q.bottom for m in ms},
    )


def cyclic_action(A, orbits, norm, reverse=False) -> NormedDistributor:
    """Z/n of ``cyclic_cat`` acting on a disjoint union of cycles, one of
    length d (a divisor of n) per entry of ``orbits``, k moving (i, r) to
    (i, (r + k) mod d); the cycle of length n is the free orbit.  Element
    (i, r) is normed ``norm(i, r)``; ``reverse`` declares the elements in
    reverse order."""
    elements = [(i, r) for i, d in enumerate(orbits) for r in range(d)]
    if reverse:
        elements.reverse()
    S = NormedSet(A.quantale, {x: norm(*x) for x in elements}, elements)
    action = {
        h: {(i, r): (i, (r + int(h)) % orbits[i]) for i, r in elements} for h in A.morphisms
    }
    return NormedDistributor(A, True, {"o": S}, action)


def split_monoid_cat(q) -> NormedCategory:
    """The two-object extension where e = s.r splits through b."""
    morphisms = ["1a", "1b", "e", "r", "s"]
    dom = {"1a": "a", "1b": "b", "e": "a", "r": "a", "s": "b"}
    cod = {"1a": "a", "1b": "b", "e": "a", "r": "b", "s": "a"}
    table = {
        ("1a", "1a"): "1a", ("1b", "1b"): "1b",
        ("e", "1a"): "e", ("1a", "e"): "e", ("e", "e"): "e",
        ("r", "1a"): "r", ("1b", "r"): "r",
        ("s", "1b"): "s", ("1a", "s"): "s",
        ("s", "r"): "e", ("r", "s"): "1b",
        ("r", "e"): "r", ("e", "s"): "s",
    }
    k = q.unit
    return NormedCategory(
        q, ["a", "b"], morphisms, dom, cod, {"a": "1a", "b": "1b"}, table,
        {m: k for m in morphisms},
    )


def is_symmetric(X) -> bool:
    return all(X.d(x, y) == X.d(y, x) for x in X.objects for y in X.objects)


def ordered_pair_vcat(q):
    """Two objects with one nontrivial relation (x below y)."""
    return VCategory(q, ["x", "y"], [[q.unit, q.unit], [q.bottom, q.unit]])


def bool4_split_witness_vcat(q4bool):
    """Two far-apart points over the Boolean diamond: adjoint mass splits
    between the atoms, so no single representability witness exists."""
    return VCategory(q4bool, ["x1", "x2"], [["top", "bot"], ["bot", "top"]])


def brute_composite_norms(s, window=None) -> Report:
    """The composite-norm law |s_{n,l}| ⊗ |s_{m,n}| ≤ |s_{m,l}| by exhaustion
    on a finite window (default prefix + transient + period): one map norm
    per window pair, then every triple.  A normed-category ambient reports
    the category law without a scan."""
    report = Report()
    report.add("shapes", True)
    if s.kind == "ncat":
        report.add("composite-norms", True, "category law")
        return report
    powers, transient, period = s.tail_powers
    window = window if window is not None else s.n0 + transient + period
    q = s.norm_quantale
    # |s_{m,n}| for m ≤ n < window, one map norm each, row by row:
    # s_{m,m} = id and s_{m,n+1} = step_n ∘ s_{m,n}
    norm = {}
    for m in range(window):
        acc = {x: x for x in s._elements(s.object_at(m))}
        for n in range(m, window):
            if n > m:
                acc = s._compose(s.step_at(n - 1), acc)
            norm[m, n] = s.map_norm_of(acc, s.object_at(m), s.object_at(n))

    bad = next(
        (
            (m, n, l)
            for m in range(window)
            for n in range(m, window)
            for l in range(n, window)
            if not q.leq(q.tensor(norm[n, l], norm[m, n]), norm[m, l])
        ),
        None,
    )
    report.add("composite-norms", bad is None, bad)
    return report


# ---------------------------------------------------------------------------
# serialization of parsed instances (round-trip support)


def serialize_instance(inst) -> dict:
    objects = {}
    for name, (kind, value) in inst.objects.items():
        objects[name] = _SERIALIZERS[kind](inst, value)
        objects[name]["kind"] = kind
    return {"quantale": inst.quantale_spec, "objects": objects, "tasks": inst.tasks}


def _find_name(inst, value) -> str:
    for name, (_, v) in inst.objects.items():
        if v is value or v == value:
            return name
    raise InputError("object cannot be serialized: no name refers to it")


def _ser_ncat(inst, A) -> dict:
    q = A.quantale
    return {
        "objects": list(A.objects),
        "morphisms": [
            {"id": m, "dom": A.dom[m], "cod": A.cod[m], "norm": q.format(A.norm[m])}
            for m in A.morphisms
        ],
        "identities": dict(A.identity),
        "compose": sorted([g, f, gf] for (g, f), gf in A.table.items()),
    }


def _ser_vdist(inst, d) -> dict:
    q = d.quantale
    return {
        "source": _find_name(inst, d.source),
        "target": _find_name(inst, d.target),
        "values": [
            [q.format(d.at(x, y)) for y in d.target.objects]
            for x in d.source.objects
        ],
    }


def _ser_weight_pair(inst, wp) -> dict:
    q = wp.phi.quantale
    return {
        "space": _find_name(inst, wp.phi.target),
        "phi": {x: q.format(v) for x, v in weight_vector(wp.phi).items()},
        "psi": {x: q.format(v) for x, v in coweight_vector(wp.psi).items()},
    }


def _ser_ndist(inst, Phi) -> dict:
    q = Phi.quantale
    return {
        "category": _find_name(inst, Phi.category),
        "variance": "covariant" if Phi.covariant else "contravariant",
        "sets": {
            a: [{"id": e, "norm": q.format(S.norm(e))} for e in S]
            for a, S in Phi.sets.items()
        },
        "action": {h: dict(t) for h, t in Phi.action.items()},
    }


def _ser_certificate(inst, cert) -> dict:
    return {
        "phi": _find_name(inst, cert.phi),
        "psi": _find_name(inst, cert.psi),
        "eps": [
            {"a": a, "b": b, "map": sorted([y, x, m] for (y, x), m in table.items())}
            for (a, b), table in sorted(cert.eps.items())
        ],
        "c": cert.c,
        "u": cert.u,
        "v": cert.v,
    }


def _ser_sequence(inst, s) -> dict:
    if s.kind == "ncat":
        return {
            "ambient": s.kind,
            "category": _find_name(inst, s.category),
            "prefix": [
                {"object": o, "step": st}
                for o, st in zip(s.prefix_objects, s.prefix_steps)
            ],
            "tail": {"object": s.tail_object, "endo": s.tail_endo},
        }
    ser_obj = _ser_normed_set if s.kind == "nset" else _ser_vcat
    out = {
        "ambient": s.kind,
        "prefix": [
            {"object": ser_obj(o), "step": st}
            for o, st in zip(s.prefix_objects, s.prefix_steps)
        ],
        "tail": {"object": ser_obj(s.tail_object), "endo": s.tail_endo},
    }
    if s.kind == "dset" and s.norm_quantale != s.quantale:
        out["odot"] = quantale_spec_of(s.norm_quantale)
    return out


def quantale_spec_of(q):
    """A file-format spec naming q: a built-in name when one matches, else
    the full table."""
    for name, factory in BUILTIN_QUANTALES.items():
        if factory() == q:
            return name
    return {
        "elements": list(q.names),
        "leq": [[q.leq(u, v) for v in q.carrier()] for u in q.carrier()],
        "tensor": [[q.name(q.tensor(u, v)) for v in q.carrier()] for u in q.carrier()],
        "unit": q.name(q.unit),
    }


def _ser_metric_sequence(inst, ms) -> dict:
    return {
        "space": _find_name(inst, ms.space),
        "prefix_points": list(ms.prefix),
        "tail": {"points": list(ms.tail), "period": len(ms.tail)},
    }


_SERIALIZERS = {
    "normed_set": lambda inst, A: _ser_normed_set(A),
    "vcat": lambda inst, X: _ser_vcat(X),
    "ncat": _ser_ncat,
    "vdist": _ser_vdist,
    "weight_pair": _ser_weight_pair,
    "ndist": _ser_ndist,
    "certificate": _ser_certificate,
    "sequence": _ser_sequence,
    "metric_sequence": _ser_metric_sequence,
}
