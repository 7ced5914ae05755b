"""Shared fixture builders and brute-force oracles for the test suite."""

from itertools import product

from quantcat.ncat import NormedCategory
from quantcat.vcat import (
    check_adjoint,
    left_weight,
    right_weight,
    validate_vdist,
    vcat_from_matrix,
)


def subsets(q):
    """All subsets of a finite carrier, smallest masks first."""
    n = q.size
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


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


def ordered_pair_vcat(q):
    """Two objects with one nontrivial relation (x below y)."""
    return vcat_from_matrix(q, ["x", "y"], [[q.unit, q.unit], [q.bottom, q.unit]])


def bool4_split_witness_vcat(q4bool):
    """Two far-apart points over the Boolean diamond: adjoint mass splits
    between the atoms, so no single representability witness exists."""
    return vcat_from_matrix(q4bool, ["x1", "x2"], [["top", "bot"], ["bot", "top"]])
