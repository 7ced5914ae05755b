import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from quantcat import vcat
from quantcat.common import BudgetExceeded, PreconditionError
from quantcat.ncat import NormedCategory, NormedDistributor
from quantcat.normed_set import NormedSet
from quantcat.quantale import INF
from quantcat.vcat import (
    VCategory,
    VDistributor,
    adjoint_report,
    compose_vdist,
    is_representable,
    isbell_conjugate_weight,
    lawvere_complete_vcat,
    matrix_weights,
    totally_compact_unit,
    unit_tensor_splits,
    unit_vcat,
    validate_vcat,
    validate_vdist,
)

import helpers
from helpers import (
    VFunctor,
    adjoint_weight_pairs,
    all_vcategories,
    brute_adjoint_pairs,
    brute_lawvere_vcat,
    check_adjoint,
    coweight_vector,
    dist_leq,
    f_lower,
    f_upper,
    identity_vdist,
    isbell_conjugate_coweight,
    left_weight,
    object_lower,
    object_upper,
    ordered_pair_vcat,
    right_weight,
    validate_vfunctor,
    weight_vector,
)

# ---------------------------------------------------------------------------
# oracles


def oracle_min_plus(A, B):
    """(B·A)[i][k] = min_j (B[j][k] + A[i][j]) with inf absorbing."""
    rows, mid, cols = len(A), len(A[0]) if A else 0, len(B[0]) if B else 0
    out = []
    for i in range(rows):
        row = []
        for k in range(cols):
            best = INF
            for j in range(mid):
                a, b = A[i][j], B[j][k]
                s = INF if (a is INF or b is INF) else a + b
                if s is not INF and (best is INF or s < best):
                    best = s
            row.append(best)
        out.append(row)
    return out


def oracle_bool_relcomp(A, B):
    """Relational composition of boolean matrices."""
    rows, mid, cols = len(A), len(A[0]) if A else 0, len(B[0]) if B else 0
    return [
        [any(A[i][j] and B[j][k] for j in range(mid)) for k in range(cols)]
        for i in range(rows)
    ]


def brute_force_representable(X, phi, psi):
    """Objects a with a_* = φ and a^* = ψ, by matrix equality."""
    return [
        a
        for a in X.objects
        if object_lower(X, a) == phi and object_upper(X, a) == psi
    ]


# ---------------------------------------------------------------------------
# fixtures


def metric2(qplus, d_ab=Fraction(1), d_ba=Fraction(1)):
    return VCategory(qplus, ["a", "b"], [[0, d_ab], [d_ba, 0]])


# ---------------------------------------------------------------------------
# validation


def _two_by_one(qplus, rows):
    return VDistributor(metric2(qplus), VCategory(qplus, ["z"], [[0]]), rows)


def _one_arrow(qplus, norm):
    """The one-object category on its identity '1', normed by ``norm``."""
    return NormedCategory(qplus, ["a"], ["1"], {"1": "a"}, {"1": "a"}, {"a": "1"},
                          {("1", "1"): "1"}, norm)


@pytest.mark.parametrize("build, problem", [
    (lambda q: VCategory(q, ["a", "b"], [[0, 1], [1]]),
     "expected 2 rows of length 2, got lengths [2, 1]"),
    (lambda q: VCategory(q, ["a", "b"], [[0, 1]]),
     "expected 2 rows of length 2, got lengths [2]"),
    (lambda q: VCategory(q, ["a", "b"], [[0, 1], [1, 0], [0, 0]]),
     "expected 2 rows of length 2, got lengths [2, 2, 2]"),
    (lambda q: _two_by_one(q, [[0, 1], [1, 0]]),
     "expected 2 rows of length 1, got lengths [2, 2]"),
    (lambda q: _two_by_one(q, [[0]]),
     "expected 2 rows of length 1, got lengths [1]"),
    (lambda q: VCategory(q, ["a", "a"], [[0, 0], [0, 0]]), "duplicate objects"),
    (lambda q: VCategory.trusted(q, ["a", "a"], ((0, 0), (0, 0))), "duplicate objects"),
    (lambda q: _one_arrow(q, {}), "norm is not total on morphisms"),
    (lambda q: NormedDistributor(_one_arrow(q, {"1": 0}), True, {"a": NormedSet(q, {"p": 0})}, {}),
     "action of '1' is not total"),
], ids=["ragged", "too-few-rows", "too-many-rows", "distributor-row-length",
        "distributor-row-count", "duplicate-objects", "trusted-duplicate-objects",
        "ncat-norm-not-total", "ndist-action-not-total"])
def test_matrix_constructors_check_their_shape(qplus, build, problem):
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        build(qplus)


def test_validate_metric_space(qplus):
    assert validate_vcat(metric2(qplus)).ok


def test_validate_reflexivity_failure(qplus):
    X = VCategory(qplus, ["a", "b"], [[1, 1], [1, 0]])
    report = validate_vcat(X)
    assert not report.ok
    assert report.failures()[0].name == "reflexivity"


def test_validate_triangle_failure(qplus):
    X = VCategory(qplus, ["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [1, 1, 0]])
    report = validate_vcat(X)
    assert not report.ok
    assert ("a", "b", "c") in [c.witness for c in report.failures()]


def test_validate_vcat_row_scan_matches_the_method_scan(
    q2, q3, q4chain, q4bool, qluka, qabove, qplus, qtimes
):
    import random

    from quantcat.quantale import FiniteQuantale

    # an unvalidated table whose tensor u ⊗ v = u is not commutative, so the
    # scan must read X(y,z) ⊗ X(x,y) in that order
    left = FiniteQuantale(["0", "1", "2"], [[i <= j for j in range(3)] for i in range(3)],
                          [[u] * 3 for u in range(3)], "2")
    rng = random.Random(3)
    for q, exhaustive in ((q2, 3), (q3, 2), (q4chain, 2), (q4bool, 2), (qluka, 2),
                          (qabove, 2), (left, 2)):
        matrices = [
            [list(v[i * n:(i + 1) * n]) for i in range(n)]
            for n in range(exhaustive + 1)
            for v in product(q.carrier(), repeat=n * n)
        ]
        # random larger ones, half of them reflexive so the scan goes deeper
        matrices += [
            [[q.unit if i == j and reflexive else rng.choice(q.carrier())
              for j in range(n)] for i in range(n)]
            for n in (4, 5) for reflexive in (False, True) for _ in range(100)
        ]
        for matrix in matrices:
            X = VCategory(q, [f"o{i}" for i in range(len(matrix))], matrix)
            assert validate_vcat(X) == helpers.method_validate_vcat(X), (q, matrix)
    # the extended rationals: values with small denominators, 0 and inf
    values = [INF, Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)]
    for q in (qplus, qtimes):
        for n in (2, 3, 4, 5):
            for reflexive in (False, True):
                for _ in range(100):
                    matrix = [[q.unit if i == j and reflexive else rng.choice(values)
                               for j in range(n)] for i in range(n)]
                    X = VCategory(q, [f"o{i}" for i in range(n)], matrix)
                    assert validate_vcat(X) == helpers.method_validate_vcat(X), (q, matrix)


def test_first_intransitive_matches_the_scan_near_every_small_vcategory(
    q2, q3, q4chain, q4bool, qluka
):
    # every V-category on up to three objects (two over the four-element
    # carriers), and every matrix one entry away from one: the hook names the
    # same first failing triple as the scan
    for q, max_objects in ((q2, 3), (q3, 3), (qluka, 3), (q4chain, 2), (q4bool, 2)):
        for n in range(max_objects + 1):
            objects = [f"o{i}" for i in range(n)]
            for X in all_vcategories(q, objects, budget=10**6):
                D = [[X.d(x, y) for y in objects] for x in objects]
                assert q.first_intransitive(D) is None
                for i, j in product(range(n), repeat=2):
                    for v in q.carrier():
                        E = [row[:] for row in D]
                        E[i][j] = v
                        expected = helpers.scan_first_intransitive(q, E)
                        assert q.first_intransitive(E) == expected, (q, E)


def test_validate_vcat_reports_the_hook_witness(q3, qplus, qtimes, monkeypatch):
    # the transitivity check has one path: the quantale's hook, by index
    for q in (q3, qplus, qtimes):
        monkeypatch.setattr(type(q), "first_intransitive", lambda self, m: (1, 0, 1))
        X = VCategory(q, ["a", "b"], [[q.unit, q.unit], [q.unit, q.unit]])
        assert validate_vcat(X).failures()[0].witness == ("b", "a", "b")
        monkeypatch.undo()


def test_validate_vfunctor(qplus):
    X = metric2(qplus, Fraction(2), Fraction(2))
    Y = metric2(qplus, Fraction(1), Fraction(1))
    assert validate_vfunctor(VFunctor(X, Y, {"a": "a", "b": "b"})).ok
    assert not validate_vfunctor(VFunctor(Y, X, {"a": "a", "b": "b"})).ok


# ---------------------------------------------------------------------------
# composition


def test_compose_identity_is_unit_law(q2, qplus):
    for q, X in ((q2, VCategory(q2, ["x", "y"], [["1", "0"], ["0", "1"]])),
                 (qplus, metric2(qplus))):
        phi = left_weight(X, {o: q.unit for o in X.objects})
        assert compose_vdist(identity_vdist(X), phi) == phi


def test_compose_is_boolean_relational_product(q2):
    X = VCategory(q2, ["x0", "x1"], [["1", "1"], ["0", "1"]])
    phi = left_weight(X, {"x0": "1", "x1": "1"})  # E ⇸ X
    psi_rows = [["0", "1"], ["1", "1"]]  # rows x0, x1; columns y0, y1
    Y = VCategory(q2, ["y0", "y1"], [["1", "0"], ["0", "1"]])
    from quantcat.vcat import VDistributor

    psi = VDistributor(X, Y, psi_rows)
    got = compose_vdist(psi, phi)
    A = [[True, True]]  # phi as 1x2 boolean matrix
    B = [[False, True], [True, True]]
    expected = oracle_bool_relcomp(A, B)
    for j, y in enumerate(Y.objects):
        assert (got.at("*", y) == q2.el("1")) == expected[0][j]


def test_compose_is_min_plus_product(qplus):
    X = metric2(qplus)
    from quantcat.vcat import VDistributor

    phi = VDistributor(X, X, [[0, 1], [2, 0]])
    psi = VDistributor(X, X, [[3, 1], [0, 5]])
    got = compose_vdist(psi, phi)
    A = [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]]
    B = [[Fraction(3), Fraction(1)], [Fraction(0), Fraction(5)]]
    expected = oracle_min_plus(A, B)
    for i, x in enumerate(X.objects):
        for k, z in enumerate(X.objects):
            assert got.at(x, z) == expected[i][k]


def test_compose_associative_on_sampled_distributors(q2, q3):
    for q in (q2, q3):
        X = VCategory(q, ["x", "y"], [[q.unit, q.bottom], [q.bottom, q.unit]])
        ds = []
        from quantcat.vcat import VDistributor

        vals = list(q.carrier())
        for v1 in vals:
            for v2 in vals:
                ds.append(VDistributor(X, X, [[q.unit, v1], [v2, q.unit]]))
        for f in ds[:4]:
            for g in ds[:4]:
                for h in ds[:4]:
                    assert compose_vdist(h, compose_vdist(g, f)) == compose_vdist(
                        compose_vdist(h, g), f
                    )


def test_compose_runs_the_quantale_hook_without_a_rational_op(qplus, monkeypatch):
    import random

    from quantcat.quantale import LawvereQuantale

    rng = random.Random(5)
    X, Y, Z = (
        VCategory(qplus, objects, [[0] * len(objects)] * len(objects))
        for objects in (["a", "b", "c"], ["p", "q", "r", "s"], ["u", "v"])
    )

    def random_vdist(source, target):
        return VDistributor(source, target, [
            [rng.choice([INF, Fraction(rng.randint(0, 9), rng.randint(1, 12))])
             for y in target.objects]
            for x in source.objects
        ])

    phi, psi = random_vdist(X, Y), random_vdist(Y, Z)
    rows = [[phi.at(x, y) for y in Y.objects] for x in X.objects]
    cols = [[psi.at(y, z) for y in Y.objects] for z in Z.objects]
    expected = helpers.join_of_tensors(qplus, rows, cols)
    calls = Counter()
    for name in ("tensor", "join"):
        def counted(*args, _fn=getattr(LawvereQuantale, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(LawvereQuantale, name, counted)
    got = compose_vdist(psi, phi)
    assert calls == Counter()
    assert [[got.at(x, z) for z in Z.objects] for x in X.objects] == expected
    assert (got.source, got.target, got.quantale) == (X, Z, qplus)


# ---------------------------------------------------------------------------
# induced distributors and adjunctions


def test_identity_functor_induces_identity(qplus):
    X = metric2(qplus)
    f = VFunctor(X, X, {"a": "a", "b": "b"})
    assert f_lower(f) == identity_vdist(X)
    assert f_upper(f) == identity_vdist(X)


def test_constant_functor_lower(qplus):
    X = metric2(qplus)
    f = VFunctor(X, X, {"a": "a", "b": "a"})
    low = f_lower(f)
    for x in X.objects:
        for z in X.objects:
            assert low.at(x, z) == X.d("a", z)


def test_functor_adjunction_all_functors(q2, qplus):
    spaces = [
        VCategory(q2, ["x", "y"], [["1", "1"], ["0", "1"]]),
        metric2(qplus, Fraction(1, 2), Fraction(3)),
    ]
    for X in spaces:
        for img_a in X.objects:
            for img_b in X.objects:
                f = VFunctor(X, X, {"a": img_a, "b": img_b} if "a" in X.objects else
                             {X.objects[0]: img_a, X.objects[1]: img_b})
                if not validate_vfunctor(f).ok:
                    continue
                assert check_adjoint(f_lower(f), f_upper(f))


def test_check_adjoint_one_point(q3):
    X = unit_vcat(q3)
    phi = left_weight(X, {"*": q3.unit})
    psi = right_weight(X, {"*": q3.unit})
    assert check_adjoint(phi, psi)


def test_representables_are_adjoint(q2, qplus):
    for X in (VCategory(q2, ["x", "y"], [["1", "1"], ["0", "1"]]),
              metric2(qplus, Fraction(1), Fraction(2))):
        for a in X.objects:
            assert check_adjoint(object_lower(X, a), object_upper(X, a))


def test_up_down_sets_not_adjoint(q2):
    # ordered set x < y; up-set of y paired with down-set of x fails the unit
    X = VCategory(q2, ["x", "y"], [["1", "1"], ["0", "1"]])
    phi = left_weight(X, {"x": "0", "y": "1"})  # up-set of y: X(y, -)
    psi = right_weight(X, {"x": "1", "y": "0"})  # down-set of x: X(-, x)
    assert validate_vdist(phi).ok and validate_vdist(psi).ok
    assert not check_adjoint(phi, psi)


# ---------------------------------------------------------------------------
# Isbell conjugation


def test_isbell_yoneda(q2, q3, qplus):
    spaces = [
        VCategory(q2, ["x", "y"], [["1", "1"], ["0", "1"]]),
        VCategory(q3, ["x", "y"], [["1", "m"], ["0", "1"]]),
        metric2(qplus, Fraction(1), Fraction(2)),
    ]
    for X in spaces:
        for a in X.objects:
            assert isbell_conjugate_weight(object_lower(X, a)) == object_upper(X, a)
            assert isbell_conjugate_coweight(object_upper(X, a)) == object_lower(X, a)


def test_isbell_one_point(q3):
    X = unit_vcat(q3)
    for v in q3.carrier():
        phi = left_weight(X, {"*": v})
        conj = isbell_conjugate_weight(phi)
        assert coweight_vector(conj)["*"] == q3.hom(v, q3.unit)


def test_isbell_adjunction_laws(q2, q3):
    for q in (q2, q3):
        X = VCategory(q, ["x", "y"], [[q.unit, q.unit], [q.bottom, q.unit]])
        from itertools import product as iproduct

        for vec in iproduct(list(q.carrier()), repeat=2):
            phi = left_weight(X, dict(zip(X.objects, vec)))
            if not validate_vdist(phi).ok:
                continue
            conj = isbell_conjugate_weight(phi)
            back = isbell_conjugate_coweight(conj)
            assert dist_leq(phi, back)  # φ ≤ φ∨∨
            assert isbell_conjugate_weight(back) == conj  # φ∨∨∨ = φ∨
            psi = right_weight(X, dict(zip(X.objects, vec)))
            if validate_vdist(psi).ok:
                assert dist_leq(psi, isbell_conjugate_weight(isbell_conjugate_coweight(psi)))


# ---------------------------------------------------------------------------
# representability


def test_is_representable_requires_adjoint(q2):
    X = VCategory(q2, ["x", "y"], [["1", "1"], ["0", "1"]])
    phi = left_weight(X, {"x": "0", "y": "1"})
    psi = right_weight(X, {"x": "1", "y": "0"})
    with pytest.raises(PreconditionError):
        is_representable(phi, psi)


def test_representable_pair_has_witness(qplus):
    X = metric2(qplus, Fraction(1), Fraction(2))
    for a in X.objects:
        w = is_representable(object_lower(X, a), object_upper(X, a))
        assert w is not None


def test_witness_criterion_matches_brute_force(q2, q3):
    for q in (q2, q3):
        spaces = [
            unit_vcat(q),
            VCategory(q, ["x", "y"], [[q.unit, q.unit], [q.bottom, q.unit]]),
        ]
        for X in spaces:
            for phi, psi in adjoint_weight_pairs(X, budget=10**6):
                witness = is_representable(phi, psi)
                brute = brute_force_representable(X, phi, psi)
                assert (witness is not None) == bool(brute)
                if witness is not None:
                    assert witness in brute


# ---------------------------------------------------------------------------
# Lawvere completeness


def test_ordered_sets_are_lawvere_complete(q2):
    for X in (unit_vcat(q2), VCategory(q2, ["x", "y"], [["1", "1"], ["0", "1"]])):
        assert lawvere_complete_vcat(X).complete


def test_empty_set_over_trivial_quantale_incomplete(q1):
    empty = VCategory(q1, [], {})
    verdict = lawvere_complete_vcat(empty)
    assert not verdict.complete
    nonempty = unit_vcat(q1)
    assert lawvere_complete_vcat(nonempty).complete


def test_empty_vcat_over_two_chain_complete(q2):
    assert lawvere_complete_vcat(VCategory(q2, [], {})).complete


def test_one_point_complete_when_unit_compact_and_tensor_splits(q2, q3, qluka):
    for q in (q2, q3, qluka):
        assert totally_compact_unit(q)
        if unit_tensor_splits(q):
            assert lawvere_complete_vcat(unit_vcat(q)).complete


def test_sufficient_criterion_on_fixtures(q2, q3):
    for q in (q2, q3):
        if totally_compact_unit(q) and unit_tensor_splits(q):
            X = VCategory(
                q, ["x", "y"], [[q.unit, q.bottom], [q.bottom, q.unit]]
            )
            assert lawvere_complete_vcat(X).complete


def test_totally_compact_examples(q2, q3, q4bool, q1):
    assert totally_compact_unit(q2)
    assert totally_compact_unit(q3)
    assert not totally_compact_unit(q4bool)  # top ≤ a ∨ b
    assert not totally_compact_unit(q1)  # the empty cover reaches the unit


def test_unit_criterion_on_the_carriers(q1, q2, q3, q4chain, q4bool, qluka, qabove):
    for q, holds in (
        (q2, True), (q3, True), (q4chain, True), (qluka, True), (qabove, True),
        (q4bool, False), (q1, False),
    ):
        splits = all(
            q.leq(q.unit, u) and q.leq(q.unit, v)
            for u in q.carrier()
            for v in q.carrier()
            if q.leq(q.unit, q.tensor(u, v))
        )
        assert unit_tensor_splits(q) == splits
        assert vcat.unit_criterion(q) == (totally_compact_unit(q) and splits) == holds


def test_crafted_bool4_incomplete(q4bool):
    # two far-apart points with witness mass split between the atoms
    q = q4bool
    X = VCategory(
        q, ["x1", "x2"], [["top", "bot"], ["bot", "top"]]
    )
    verdict = lawvere_complete_vcat(X)
    assert not verdict.complete
    phi_vec, psi_vec = verdict.witness
    phi = left_weight(X, phi_vec)
    psi = right_weight(X, psi_vec)
    assert check_adjoint(phi, psi)
    assert is_representable(phi, psi) is None


def exhaustive_vcategories(q2, q3, q4chain, q4bool, qluka, qabove):
    """Every V-category on up to three objects over bool2 and up to two over
    chain3, chain4, bool4, Łukasiewicz-3 and the non-integral chain, where
    self-distances above the unit make X(x,x) ⊗ φ(x) ≤ φ(x) a constraint."""
    for q, max_objects in (
        (q2, 3), (q3, 2), (q4chain, 2), (q4bool, 2), (qluka, 2), (qabove, 2)
    ):
        for n in range(max_objects + 1):
            yield from all_vcategories(q, [f"o{i}" for i in range(n)], budget=10**6)


def test_adjoint_pairs_match_brute_force(q2, q3, q4chain, q4bool, qluka, qabove):
    def vectors(pairs):
        return [(weight_vector(phi), coweight_vector(psi)) for phi, psi in pairs]

    for X in exhaustive_vcategories(q2, q3, q4chain, q4bool, qluka, qabove):
        expected = vectors(brute_adjoint_pairs(X))
        assert vectors(adjoint_weight_pairs(X)) == expected, X


def test_lawvere_matches_distributor_oracle(q2, q3, q4chain, q4bool, qluka, qabove):
    # repr compares the verdict, the witness list and each vector in order
    seen = set()
    for X in exhaustive_vcategories(q2, q3, q4chain, q4bool, qluka, qabove):
        verdict = lawvere_complete_vcat(X)
        assert repr(verdict) == repr(brute_lawvere_vcat(X)), X
        seen.add(verdict.complete)
    assert seen == {True, False}


def _lawvere_outcome(decide, X, budget):
    try:
        return repr(decide(X, budget))
    except BudgetExceeded as exc:
        return exc.what, exc.needed, exc.budget, exc.skipped


def test_lawvere_budget_fields_match_distributor_oracle(q4bool):
    X = VCategory(
        q4bool,
        ["x", "y", "z"],
        [["top", "bot", "bot"], ["bot", "top", "bot"], ["bot", "bot", "top"]],
    )
    needed = q4bool.size ** 3
    for budget in range(1, needed + 2):
        got = _lawvere_outcome(lawvere_complete_vcat, X, budget)
        assert got == _lawvere_outcome(brute_lawvere_vcat, X, budget), budget
        if budget < needed:
            assert got == ("weights |V|^3", needed, budget, None)
        else:
            assert got.startswith("LawvereVerdict(complete=False")


def test_matrix_weights_is_the_bimodule_filtered_product(q2, q3):
    # every 2×2 and 3×3 bool2 matrix and every 2×2 chain3 matrix, V-category
    # or not, bottom entries included: criterion carriers, whose decisions
    # no longer run the search
    vcategories = set()
    for q, n in ((q2, 2), (q2, 3), (q3, 2)):
        objects = [f"o{i}" for i in range(n)]
        for entries in product(q.carrier(), repeat=n * n):
            D = [list(entries[i * n:(i + 1) * n]) for i in range(n)]
            X = VCategory(q, objects, D)
            expected = []
            for pvec in product(q.carrier(), repeat=n):
                phi = left_weight(X, dict(zip(objects, pvec)))
                if validate_vdist(phi).ok:
                    cvec = coweight_vector(isbell_conjugate_weight(phi))
                    expected.append((pvec, tuple(cvec[x] for x in objects)))
            assert list(matrix_weights(q, D, list(zip(*D)))) == expected, D
            vcategories.add(validate_vcat(X).ok)
    assert vcategories == {True, False}


def test_adjoint_weights_match_the_oracle_on_criterion_carriers(
    q2, q3, q4chain, qluka, qabove
):
    # the decisions skip the search on these carriers; the search itself
    # still yields every adjoint pair, each with its representability witness
    spaces = (
        X
        for q, max_objects in ((q2, 3), (q3, 2), (q4chain, 2), (qluka, 2), (qabove, 2))
        for n in range(max_objects + 1)
        for X in all_vcategories(q, [f"o{i}" for i in range(n)], budget=10**6)
    )
    pairs = 0
    for X in spaces:
        assert vcat.unit_criterion(X.quantale)
        expected = []
        for phi, psi in brute_adjoint_pairs(X):
            a = is_representable(phi, psi)
            member = None if a is None else (X.objects.index(a),) * 2
            expected.append((
                tuple(weight_vector(phi).values()),
                tuple(coweight_vector(psi).values()),
                member,
            ))
        assert list(vcat._adjoint_weights(X, 10**6)) == expected, X
        pairs += len(expected)
    assert pairs > 100


def reflexive_vcategories(q, n):
    """``all_vcategories`` on o0 .. o(n-1) for a carrier whose unit is the
    top: reflexivity fixes the diagonal at the top, so only the off-diagonal
    entries are enumerated, in the same order (``all_vcategories`` walks all
    |V|^(n²) matrices, seconds for chain4 at n = 3)."""
    assert q.unit == q.top
    objects = [f"o{i}" for i in range(n)]
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for entries in product(q.carrier(), repeat=len(off)):
        matrix = [[q.top] * n for _ in range(n)]
        for (i, j), v in zip(off, entries):
            matrix[i][j] = v
        X = VCategory(q, objects, matrix)
        if validate_vcat(X).ok:
            yield X


def test_theorem_path_equals_the_search(q2, q3, q4chain, monkeypatch):
    # every V-category over bool2, chain3 and chain4 with up to three objects
    spaces = []
    for q in (q2, q3, q4chain):
        assert vcat.unit_criterion(q)
        for n in range(4):
            found = list(reflexive_vcategories(q, n))
            if n <= 2:
                objects = [f"o{i}" for i in range(n)]
                every = all_vcategories(q, objects, budget=10**6)
                assert [X.rows for X in found] == [X.rows for X in every]
            spaces += found
    assert len(spaces) == 986
    theorem = [repr(lawvere_complete_vcat(X)) for X in spaces]
    monkeypatch.setattr(vcat, "unit_criterion", lambda q: False)
    assert [repr(lawvere_complete_vcat(X)) for X in spaces] == theorem


def test_counit_holds_and_adjointness_is_one_join(
    q2, q3, q4chain, q4bool, qluka, qabove
):
    # for φ ⊣ φ⁺ the counit is automatic, so the unit k ≤ ⋁_x φ⁺(x) ⊗ φ(x)
    # decides check_adjoint
    seen = set()
    for X in exhaustive_vcategories(q2, q3, q4chain, q4bool, qluka, qabove):
        q = X.quantale
        for pvec in product(q.carrier(), repeat=len(X.objects)):
            phi = left_weight(X, dict(zip(X.objects, pvec)))
            if not validate_vdist(phi).ok:
                continue
            psi = isbell_conjugate_weight(phi)
            report = {c.name: c.ok for c in adjoint_report(phi, psi).checks}
            assert report["counit-inequality"], (X, pvec)
            cvec = coweight_vector(psi)
            one_join = q.leq(
                q.unit, q.join(q.tensor(cvec[x], p) for x, p in zip(X.objects, pvec))
            )
            assert check_adjoint(phi, psi) == one_join, (X, pvec)
            seen.add(one_join)
    assert seen == {True, False}


def test_lawvere_builds_no_distributors(q2, monkeypatch):
    # the b2-disc9 shape: nine discrete points over bool2, 2^9 weights
    X = VCategory(
        q2,
        [f"p{i}" for i in range(9)],
        [["1" if i == j else "0" for j in range(9)] for i in range(9)],
    )
    calls = Counter()
    init = VDistributor.__init__

    def counted_init(self, *args):
        calls["VDistributor"] += 1
        init(self, *args)

    monkeypatch.setattr(VDistributor, "__init__", counted_init)
    for name in ("validate_vdist", "compose_vdist"):
        def counted(*args, _fn=getattr(vcat, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(vcat, name, counted)
        if hasattr(helpers, name):
            monkeypatch.setattr(helpers, name, counted)
    verdict = lawvere_complete_vcat(X)
    # the adjoint weights are the nine point indicators, last point first
    assert verdict.complete
    assert [a for _, a in verdict.witness] == list(reversed(X.objects))
    assert calls == Counter()
    # the counters see the oracle's distributors, validations and composites
    assert repr(brute_lawvere_vcat(X)) == repr(verdict)
    assert set(calls) == {"VDistributor", "validate_vdist", "compose_vdist"}


def test_lawvere_requires_a_vcategory(q2):
    X = VCategory(q2, ["x"], [["0"]])  # not reflexive
    with pytest.raises(PreconditionError) as info:
        lawvere_complete_vcat(X)
    assert [c.name for c in info.value.value.failures()] == ["reflexivity"]


def test_lawvere_validates_each_vcategory_once(q2, monkeypatch):
    calls = Counter()
    validate = vcat.validate_vcat

    def counted(X):
        calls[X.objects] += 1
        return validate(X)

    monkeypatch.setattr(vcat, "validate_vcat", counted)
    good = ordered_pair_vcat(q2)
    bad = VCategory(q2, ["x"], [["0"]])  # not reflexive
    assert lawvere_complete_vcat(good) == lawvere_complete_vcat(good)
    assert calls == {good.objects: 1}
    for _ in range(2):
        with pytest.raises(PreconditionError) as info:
            lawvere_complete_vcat(bad)
        # the precondition carries the failed report, the oracle's checks
        assert info.value.value is bad.report
        assert info.value.value == validate(bad) and not bad.report.ok
    assert calls == {good.objects: 1, bad.objects: 1}


def test_lawvere_budget(q4bool):
    X = VCategory(
        q4bool,
        ["x", "y", "z"],
        [["top", "bot", "bot"], ["bot", "top", "bot"], ["bot", "bot", "top"]],
    )
    with pytest.raises(BudgetExceeded):
        lawvere_complete_vcat(X, budget=10)


def test_all_vcategories_generation(q2):
    cats = list(all_vcategories(q2, ["x", "y"], budget=10**6))
    # reflexivity forces the diagonal; transitivity cuts nothing at size 2
    # with tensor = meet, so 4 off-diagonal choices remain
    assert len(cats) == 4
    for X in cats:
        assert validate_vcat(X).ok


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2))
def test_isbell_unit_law_sampled_bool4(vec):
    from quantcat.quantale import bool4

    q = bool4()
    X = VCategory(
        q, ["x", "y"], [["top", "bot"], ["bot", "top"]]
    )
    phi = left_weight(X, dict(zip(X.objects, vec)))
    if not validate_vdist(phi).ok:
        return
    back = isbell_conjugate_coweight(isbell_conjugate_weight(phi))
    assert dist_leq(phi, back)
