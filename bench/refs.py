"""Independent exact references over the extended nonnegative rationals.

These reimplement, with ``fractions.Fraction`` and none of the program's
code, the closed forms the benchmark checks the program's answers against:
the min-plus distributor product, the multiplicative Lipschitz norm (the
largest distance ratio), and the Cauchy values of finitely presented
sequences (the meet of the tail-iterate norms over one transient-plus-period
window, and the meet of the tail-cycle distances for point sequences).

Values are ``Fraction`` or ``INF``.  Both Lawvere carriers are ordered by
``>=``, so a quantale meet is a numeric maximum and a join a numeric minimum.
"""

from __future__ import annotations

from fractions import Fraction

INF = "inf"


def fmt(v) -> str:
    return INF if v == INF else str(v)


def _add(u, v):
    return INF if INF in (u, v) else u + v


def _numeric_max(values):
    """The quantale meet of Lawvere values (numeric maximum, top 0)."""
    best = Fraction(0)
    for v in values:
        if v == INF:
            return INF
        best = max(best, v)
    return best


def minplus(outer, inner):
    """(outer . inner)[x][z] = min over y of outer[y][z] + inner[x][y]."""
    n_mid = len(outer)
    out = []
    for row in inner:
        out_row = []
        for z in range(len(outer[0])):
            sums = [_add(outer[y][z], row[y]) for y in range(n_mid)]
            finite = [s for s in sums if s != INF]
            out_row.append(min(finite) if finite else INF)
        out.append(out_row)
    return out


def ratio(num, den):
    """The residual of the multiplicative carrier: num / den, with
    0/0 = 0, a/0 = inf, a/inf = inf/inf = 0."""
    if den == INF:
        return Fraction(0)
    if num == INF:
        return INF
    if den == 0:
        return Fraction(0) if num == 0 else INF
    return num / den


def lipnorm_multiplicative(dx, dy, mapping):
    """The largest ratio dy(f x, f x') / dx(x, x') over ordered pairs.

    ``dx`` and ``dy`` are dicts keyed by point pairs; ``mapping`` is the map.
    """
    return _numeric_max(
        ratio(dy[(mapping[x], mapping[xp])], dx[(x, xp)]) for (x, xp) in dx
    )


class Lawvere:
    """The additive or multiplicative carrier on [0, inf], ordered by >=."""

    def __init__(self, mode: str):
        self.mode = mode

    def residual(self, u, v):
        if self.mode == "multiplicative":
            return ratio(v, u)
        if u == INF:
            return Fraction(0)
        if v == INF:
            return INF
        return max(v - u, Fraction(0))

    def meet(self, values):
        return _numeric_max(values)

    def format(self, v) -> str:
        return fmt(v)


class MeetChain:
    """A finite chain with tensor = min and unit = top; values are ranks."""

    def __init__(self, names):
        self.names = list(names)

    def residual(self, u, v):
        return len(self.names) - 1 if u <= v else v

    def meet(self, values):
        return min(values, default=len(self.names) - 1)

    def format(self, v) -> str:
        return self.names[v]


def tail_cauchy_value(carrier, norms, endo):
    """Cauchy value of a normed-set sequence whose tail is ``endo`` on a set
    normed by ``norms``: the meet of the iterate norms t^0, t^1, ... up to
    the first repeated iterate."""
    elements = list(norms)
    current = {x: x for x in elements}
    seen = set()
    values = []
    while True:
        key = tuple(current[x] for x in elements)
        if key in seen:
            return carrier.meet(values)
        seen.add(key)
        values.append(
            carrier.meet(
                carrier.residual(norms[x], norms[current[x]]) for x in elements
            )
        )
        current = {x: endo[current[x]] for x in elements}


def forward_cauchy_value(dist, tail):
    """Meet of the distances between tail-cycle points of a point sequence."""
    return _numeric_max(dist[(p, q)] for p in tail for q in tail)


def is_forward_limit(dist, points, tail, x):
    """Whether d(x, y) equals the meet of d(p, y) over tail points, for all y."""
    return all(
        dist[(x, y)] == _numeric_max(dist[(p, y)] for p in tail) for y in points
    )
