from fractions import Fraction

import pytest

from quantcat.common import BudgetExceeded, CarrierMismatch
from quantcat.normed_set import NormedSet, final_structure

from helpers import (
    NormedMap,
    all_functions,
    compose,
    curry,
    function_as_map,
    i_embed,
    identity_map,
    initial_structure,
    internal_hom,
    map_norm,
    s_value,
    strict_part,
    tensor,
    unit_normed_set,
)


def test_normed_set_totality(q2):
    with pytest.raises(ValueError):
        NormedSet(q2, {"a": "1"}, elements=["a", "b"])


def test_tensor_unit_law(q2, q3):
    for q in (q2, q3):
        A = NormedSet(q, {"a": q.unit, "b": q.bottom})
        E = unit_normed_set(q)
        EA = tensor(E, A)
        assert EA.elements == (("*", "a"), ("*", "b"))
        for a in A:
            assert EA.norm(("*", a)) == q.tensor(q.unit, A.norm(a)) == A.norm(a)


def test_tensor_table_lookup(q2):
    A = NormedSet(q2, {"a": "1"})
    B = NormedSet(q2, {"b": "0"})
    assert tensor(A, B).norm(("a", "b")) == q2.el("0")


def test_tensor_exact_arithmetic(qplus):
    A = NormedSet(qplus, {"a": Fraction(1)})
    B = NormedSet(qplus, {"b": Fraction(2)})
    assert tensor(A, B).norm(("a", "b")) == Fraction(3)


def test_tensor_quantale_mismatch(q2, q3):
    with pytest.raises(CarrierMismatch):
        tensor(NormedSet(q2, {"a": "1"}), NormedSet(q3, {"b": "1"}))


def test_map_norm_identity_at_least_unit(q2, q3, q4bool, qluka):
    for q in (q2, q3, q4bool, qluka):
        A = NormedSet(q, {f"e{i}": v for i, v in enumerate(q.carrier())})
        assert q.leq(q.unit, identity_map(A).norm)


def test_map_norm_formula(q2):
    A = NormedSet(q2, {"a": "1"})
    B = NormedSet(q2, {"b": "0"})
    phi = NormedMap(A, B, {"a": "b"})
    assert map_norm(phi) == q2.el("0")
    assert not phi.is_strict()


def test_map_norm_truncated_difference(qplus):
    A = NormedSet(qplus, {"a": Fraction(2)})
    B = NormedSet(qplus, {"b": Fraction(5)})
    phi = NormedMap(A, B, {"a": "b"})
    assert phi.norm == Fraction(3)


def test_internal_hom_point_source(q2):
    E = unit_normed_set(q2)
    B = NormedSet(q2, {"b0": "0", "b1": "1"})
    H = internal_hom(E, B)
    # evaluation at the point matches B
    assert sorted(H.norm((b,)) for b in B.elements) == sorted(
        q2.hom(q2.unit, B.norm(b)) for b in B.elements
    )
    assert {H.norm(("b0",)), H.norm(("b1",))} == {q2.el("0"), q2.el("1")}


def test_internal_hom_two_functions(q2):
    A = NormedSet(q2, {"a": "1"})
    B = NormedSet(q2, {"b0": "0", "b1": "1"})
    H = internal_hom(A, B)
    assert len(H) == 2
    assert H.norm(("b0",)) == q2.el("0")
    assert H.norm(("b1",)) == q2.el("1")


def test_internal_hom_into_point(q3):
    A = NormedSet(q3, {"a": "m", "b": "1"})
    E = unit_normed_set(q3)
    H = internal_hom(A, E)
    assert len(H) == 1
    only = H.elements[0]
    assert H.norm(only) == q3.meet(q3.hom(A.norm(x), q3.unit) for x in A)


def test_internal_hom_budget(q2):
    A = NormedSet(q2, {f"a{i}": "1" for i in range(4)})
    B = NormedSet(q2, {f"b{i}": "1" for i in range(8)})
    with pytest.raises(BudgetExceeded):
        internal_hom(A, B, budget=100)


def test_initial_structure_empty_family_gives_top(q3):
    A = initial_structure(q3, ["x", "y"], [])
    assert A.norm("x") == q3.top


def test_final_structure_empty_fibre_gives_bottom(q3):
    B = final_structure(q3, ["x"], [])
    assert B.norm("x") == q3.bottom


def test_final_structure_quotient(q2):
    A = NormedSet(q2, {"a": "1", "a'": "0"})
    B = final_structure(q2, ["c"], [(A, {"a": "c", "a'": "c"})])
    assert B.norm("c") == q2.el("1")


def test_strict_part_and_s_value(q2):
    A = NormedSet(q2, {"a": "1", "b": "0"})
    assert strict_part(A) == ("a",)
    assert s_value(A) == q2.el("1")
    assert s_value(NormedSet(q2, {"a": "0", "b": "1"})) == q2.el("1")


def test_i_embed_then_s_value_is_identity(q3, qplus):
    for q, values in ((q3, list(q3.carrier())), (qplus, [Fraction(1, 2), Fraction(0)])):
        for v in values:
            assert s_value(i_embed(q, v)) == q.check(v)


def test_s_adjoint_i(q2, q3, q4bool):
    # the unique map A -> i(v) is strict iff s(A) ≤ v
    for q in (q2, q3, q4bool):
        fixtures = [
            NormedSet(q, {}),
            NormedSet(q, {"x": q.unit}),
            NormedSet(q, {"x": q.bottom, "y": q.top}),
            NormedSet(q, {f"e{i}": v for i, v in enumerate(q.carrier())}),
        ]
        for A in fixtures:
            for v in q.carrier():
                bang = NormedMap(A, i_embed(q, v), {a: "*" for a in A})
                assert bang.is_strict() == q.leq(s_value(A), v)


def test_strict_part_of_internal_hom_is_strict_maps(q2, q3):
    for q in (q2, q3):
        A = NormedSet(q, {"a": q.unit, "b": q.bottom})
        B = NormedSet(q, {"x": q.bottom, "y": q.unit})
        H = internal_hom(A, B)
        strict = set(strict_part(H))
        for images in H.elements:
            f = function_as_map(A, B, images)
            ok = all(q.leq(A.norm(a), B.norm(f(a))) for a in A)
            assert (images in strict) == ok


def test_tensor_hom_adjunction_exhaustive(q2, q3, q4bool):
    # |φ: A⊗B → C| = |curry(φ): A → [B,C]| over small carriers
    for q in (q2, q3, q4bool):
        carrier = list(q.carrier())
        A = NormedSet(q, {"a0": carrier[0], "a1": q.unit})
        B = NormedSet(q, {"b0": q.unit, "b1": carrier[-1]})
        C = NormedSet(q, {"c0": carrier[0], "c1": q.unit})
        AB = tensor(A, B)
        for images in all_functions(AB, C, budget=10**6):
            phi = function_as_map(AB, C, images)
            assert curry(phi, A, B).norm == phi.norm


def test_compose_norm_submultiplicative(q3):
    A = NormedSet(q3, {"a": "m"})
    B = NormedSet(q3, {"b": "1"})
    C = NormedSet(q3, {"c": "m"})
    f = NormedMap(A, B, {"a": "b"})
    g = NormedMap(B, C, {"b": "c"})
    gf = compose(g, f)
    assert q3.leq(q3.tensor(g.norm, f.norm), gf.norm)
