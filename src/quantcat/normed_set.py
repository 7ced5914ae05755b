"""V-normed sets and their final structures.

A normed set is a finite carrier with a norm function into a quantale.  The
final structure of a family of maps out of normed sets norms each element of
the carrier by the join of the norms of its preimages.  Norms of maps between
normed sets are folded where they are needed, through the quantale's
``meet_of_homs`` hook (``Sequence.map_norm_of``, ``ncat.conjugate_families``); the
general calculus of normed maps (tensor, internal hom, initial structures,
the change-of-base triple) is the tests' oracle, in ``tests/helpers.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .common import InputError
from .quantale import Quantale, require_same_quantale


class NormedSet:
    """A finite set with a quantale-valued norm on its elements.  Elements
    that are not distinct fail with an ``InputError`` at ``elements``."""

    def __init__(self, quantale: Quantale, norms: Mapping, elements=None):
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
            raise InputError("duplicate elements in normed set", "elements")
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

