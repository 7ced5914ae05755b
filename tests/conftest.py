import pytest

from quantcat.quantale import (
    FiniteQuantale,
    bool2,
    bool4,
    chain3,
    chain4,
    lawvere_plus,
    lawvere_times,
    trivial,
)


@pytest.fixture
def q2():
    return bool2()


@pytest.fixture
def q3():
    return chain3()


@pytest.fixture
def q4chain():
    return chain4()


@pytest.fixture
def q4bool():
    return bool4()


@pytest.fixture
def q1():
    return trivial()


@pytest.fixture
def qplus():
    return lawvere_plus()


@pytest.fixture
def qtimes():
    return lawvere_times()


def lukasiewicz3(middle="h") -> FiniteQuantale:
    """Three-element Lukasiewicz chain: 0 < h < 1, u ⊗ v = max(u+v-1, 0).
    ``middle`` renames h, e.g. to "m" for the lattice of chain3."""
    names = ["0", middle, "1"]
    vals = {"0": 0, middle: 1, "1": 2}
    leq = [[vals[u] <= vals[v] for v in names] for u in names]

    def t(u, v):
        return names[max(vals[u] + vals[v] - 2, 0)]

    tensor = [[t(u, v) for v in names] for u in names]
    return FiniteQuantale(names, leq, tensor, "1")


@pytest.fixture
def qluka():
    return lukasiewicz3()


def above_unit3() -> FiniteQuantale:
    """A non-integral chain 0 < 1 < t with unit 1: t ⊗ t = t, 0 absorbing.
    An identity normed t makes |1| ⊗ |f| ≤ |f| a real constraint."""
    names = ["0", "1", "t"]
    leq = [[i <= j for j in range(3)] for i in range(3)]
    tensor = [[names[0 if 0 in (i, j) else max(i, j)] for j in range(3)] for i in range(3)]
    return FiniteQuantale(names, leq, tensor, "1")


@pytest.fixture
def qabove():
    return above_unit3()
