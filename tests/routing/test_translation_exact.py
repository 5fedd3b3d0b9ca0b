"""Translated path distributions equal a direct construction, exactly.

DOR and ``TableRouting`` build each commodity's distribution by
translating a cached canonical-source one.  These tests rebuild every
pair's distribution directly from its own source — the construction the
algorithms used before they translated — and compare whole lists with
``==``: path order, node ids, probability float bits, and plain ``int``
node types (NumPy integers would compare equal but change hashing-heavy
callers' behaviour and serialized output).
"""

from __future__ import annotations

import pytest

from repro.routing import IVAL, VAL, DimensionOrderRouting, TableRouting
from repro.routing import paths as pathmod
from repro.routing.dor import minimal_direction_choices
from repro.routing.hypercube import ECube
from repro.topology import Hypercube, Torus

TORI = {
    "3x3": lambda: Torus(3, 2),
    "4x4": lambda: Torus(4, 2),
    "5x5": lambda: Torus(5, 2),
    "6x6": lambda: Torus(6, 2),
    "3x3x3": lambda: Torus(3, 3),
    "4x4x4": lambda: Torus(4, 3),
    "3x3x3-zslow": lambda: Torus(3, 3, bandwidths=(1, 1, 0.5)),
}


class Direct:
    """Per-pair constructions that never translate."""

    def __init__(self, torus: Torus) -> None:
        self.torus = torus
        self._dor: dict[tuple, list] = {}

    def dor(self, order, src, dst):
        key = (order, src, dst)
        if key not in self._dor:
            self._dor[key] = self._build_dor(order, src, dst)
        return self._dor[key]

    def _build_dor(self, order, src, dst):
        if src == dst:
            return [((src,), 1.0)]
        torus = self.torus
        delta = torus.ring_delta(src, dst)
        out = []
        for dirs, prob in minimal_direction_choices(torus, src, dst):
            segments = [
                (dim, dirs[dim], torus.hops(int(delta[dim]), dirs[dim]))
                for dim in order
                if dim in dirs
            ]
            out.append((pathmod.build_path(torus, src, segments), prob))
        return out

    def valiant(self, src, dst, reverse, remove_loops):
        if src == dst:
            return [((src,), 1.0)]
        n = self.torus.num_nodes
        order1 = tuple(range(self.torus.n))
        order2 = tuple(reversed(order1)) if reverse else order1
        acc = {}
        for mid in range(n):
            for p1, q1 in self.dor(order1, src, mid):
                for p2, q2 in self.dor(order2, mid, dst):
                    path = pathmod.concatenate(p1, p2)
                    if remove_loops:
                        path = pathmod.remove_loops(path)
                    acc[path] = acc.get(path, 0.0) + q1 * q2 / n
        return list(acc.items())

    def table(self, alg: TableRouting, src, dst):
        return direct_table(self.torus, alg, src, dst)


def direct_table(net, alg: TableRouting, src, dst):
    if src == dst:
        return [((src,), 1.0)]
    t = int(net.sub_nodes(dst, src))
    return [
        (tuple(int(net.add_nodes(v, src)) for v in path), w)
        for path, w in alg._table[t]
    ]


@pytest.fixture(scope="module", params=sorted(TORI))
def case(request):
    torus = TORI[request.param]()
    return torus, Direct(torus)


def assert_exact(got, want):
    assert got == want
    for path, prob in got:
        assert type(prob) is float
        assert all(type(v) is int for v in path)


def all_pairs(torus):
    n = torus.num_nodes
    return [(s, d) for s in range(n) for d in range(n)]


@pytest.mark.parametrize("reverse", [False, True], ids=["xfirst", "reversed"])
def test_dor_every_pair(case, reverse):
    torus, direct = case
    order = tuple(range(torus.n))
    if reverse:
        order = order[::-1]
    alg = DimensionOrderRouting(torus, order=order)
    for s, d in all_pairs(torus):
        assert_exact(alg.path_distribution(s, d), direct.dor(order, s, d))


@pytest.mark.parametrize(
    "make, reverse, remove_loops",
    [(VAL, False, False), (IVAL, True, True)],
    ids=["VAL", "IVAL"],
)
def test_valiant_every_pair(case, make, reverse, remove_loops):
    torus, direct = case
    alg = make(torus)
    for s, d in all_pairs(torus):
        assert_exact(
            alg.path_distribution(s, d),
            direct.valiant(s, d, reverse, remove_loops),
        )


def test_table_routing_every_pair(case):
    torus, direct = case
    # X-first and reversed DOR paths with uneven weights, renormalized by
    # the table constructor: several paths per destination.
    order = tuple(range(torus.n))
    table = {}
    for d in range(1, torus.num_nodes):
        entries = [(p, 0.7 * w) for p, w in direct.dor(order, 0, d)]
        entries += [(p, 0.3 * w) for p, w in direct.dor(order[::-1], 0, d)]
        table[d] = entries
    alg = TableRouting(torus, table)
    for s, d in all_pairs(torus):
        assert_exact(alg.path_distribution(s, d), direct.table(alg, s, d))


def test_table_routing_on_a_hypercube():
    # Translation is the group operation of any Cayley topology (XOR on
    # the hypercube), not only the torus's coordinate-wise sum.
    cube = Hypercube(4)
    ecube = ECube(cube)
    table = {d: ecube.path_distribution(0, d) for d in range(1, cube.num_nodes)}
    alg = TableRouting(cube, table)
    for s, d in all_pairs(cube):
        assert_exact(alg.path_distribution(s, d), direct_table(cube, alg, s, d))


def test_instances_do_not_share_caches():
    torus_a, torus_b = Torus(4, 2), Torus(4, 2)
    first = DimensionOrderRouting(torus_a)
    second = DimensionOrderRouting(torus_a)
    first.path_distribution(3, 9)
    assert first._canonical and not second._canonical
    assert first._canonical is not second._canonical
    assert torus_a._translation_rows and not torus_b._translation_rows
    # A new algorithm object rebuilds its own tables from scratch.
    assert second.path_distribution(3, 9) == first.path_distribution(3, 9)
    assert second._canonical.keys() == first._canonical.keys()
    t = int(torus_a.sub_nodes(9, 3))
    assert second._canonical[t] is not first._canonical[t]


def test_returned_lists_are_fresh():
    alg = DimensionOrderRouting(Torus(4, 2))
    for src in (0, 5):
        got = alg.path_distribution(src, 10)
        got.clear()
        assert alg.path_distribution(src, 10)
