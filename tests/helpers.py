"""Shared fixture builders and brute-force oracles for the test suite."""

from itertools import product

from quantcat.common import DEFAULT_BUDGET, guard_count
from quantcat.ncat import (
    NcatLawvereVerdict,
    NormedCategory,
    idempotent_distributor,
    idempotent_distributor_sets,
    left_adjoint_unit,
    presentable_unit_scan,
    split_idempotents_check,
    strict_subcategory,
)
from quantcat.quantale import require_finite
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


def norm_assignment_ok(A, Phi) -> bool:
    """Whether Φ's norms make it a normed functor: |h| ⊗ |f| ≤ |h∘f|."""
    q = A.quantale
    return all(
        q.leq(q.tensor(A.norm[h], Phi.set_at(A.dom[h]).norm(f)),
              Phi.set_at(A.cod[h]).norm(Phi.apply(h, f)))
        for h in A.morphisms
        for f in Phi.set_at(A.dom[h])
    )


def filtered_norm_assignments(A, e):
    """Every norm assignment on the elements of Φ_e that passes
    ``norm_assignment_ok``, in product order."""
    elems = idempotent_distributor_sets(A, e)
    flat = [f for b in A.objects for f in elems[b]]
    for values in product(list(A.quantale.carrier()), repeat=len(flat)):
        if norm_assignment_ok(A, idempotent_distributor(A, e, dict(zip(flat, values)))):
            yield values


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
    then the presentable-unit scan of every enumerated left adjoint."""
    q = require_finite(A.quantale, "brute_lawvere_ncat")
    ok1, bad_e = split_idempotents_check(strict_subcategory(A))
    if not ok1:
        return NcatLawvereVerdict(False, clause=1, certificate=bad_e)
    for e, norms, _, data in brute_left_adjoints(A, budget):
        if not data.plain:
            continue
        # normed iff the unit's coend class, normed from the whole conjugate,
        # is above the unit
        c, u, v_key = data.triple
        normed = q.leq(q.unit, data.coend.class_norm((c, v_key, u)))
        if normed and not presentable_unit_scan(data)[0]:
            named = {f: q.format(v) for f, v in norms.items()}
            return NcatLawvereVerdict(False, clause=2, certificate=(e, named))
    return NcatLawvereVerdict(True)


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
