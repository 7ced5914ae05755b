"""V-normed sets and maps: tensor, internal hom, initial/final structures,
and the change-of-base triple (strict part, sup-of-norms, one-point embedding).

A normed set is a finite carrier with a norm function into a quantale.  Maps
between normed sets are arbitrary functions; the norm of a map is the meet of
the residuals hom(|a|, |f a|), and the map lives in the strict (norm-compatible)
layer exactly when the unit lies below that meet.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Iterable, Mapping

from .common import DEFAULT_BUDGET, cached_property, guard_count
from .quantale import Quantale, require_same_quantale

POINT = "*"


class NormedSet:
    """A finite set with a quantale-valued norm on its elements."""

    def __init__(self, quantale: Quantale, norms: Mapping[Any, Any], elements=None):
        self._build(quantale, norms, elements)
        self.norms = {e: quantale.check(v) for e, v in norms.items()}

    @classmethod
    def trusted(cls, quantale: Quantale, norms: dict, elements=None) -> NormedSet:
        """A normed set whose ``norms`` are canonical, as a parser or a
        quantale operation makes them: not checked again.  The elements must
        still be distinct and the norms total."""
        A = cls.__new__(cls)
        A._build(quantale, norms, elements)
        A.norms = norms
        return A

    def _build(self, quantale: Quantale, norms: Mapping, elements) -> None:
        self.quantale = quantale
        if elements is None:
            elements = list(norms.keys())
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate elements in normed set")
        if set(self.elements) != set(norms.keys()):
            raise ValueError("norm function is not total on the elements")

    def norm(self, e):
        try:
            return self.norms[e]
        except KeyError:
            raise KeyError(f"element {e!r} not in normed set")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        return e in self.norms

    def __eq__(self, other):
        return (
            isinstance(other, NormedSet)
            and self.quantale == other.quantale
            and self.elements == other.elements
            and self.norms == other.norms
        )

    def __repr__(self):
        q = self.quantale
        inner = ", ".join(f"{e!r}: {q.format(v)}" for e, v in self.norms.items())
        return "NormedSet({" + inner + "})"


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


def final_structure(
    q: Quantale, carrier: Iterable, maps: Iterable[tuple[NormedSet, Mapping]]
) -> NormedSet:
    """Norm each b by the join of |a| over all a mapped onto b; empty fibres
    get bottom."""
    carrier = list(carrier)
    maps = list(maps)
    norms = {b: [] for b in carrier}
    for source, g in maps:
        require_same_quantale(q, source.quantale)
        for a in source:
            b = g[a]
            if b not in norms:
                raise ValueError(f"image {b!r} not in the declared carrier")
            norms[b].append(source.norm(a))
    return NormedSet.trusted(q, {b: q.join(vs) for b, vs in norms.items()}, carrier)


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
