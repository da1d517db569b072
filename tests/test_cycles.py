"""The cycle walker and the invertibility test against their plain references."""

import math
import random

import pytest

from orbifusion import FusionRing, cyclic_action, invertibles, validate_symmetry
from orbifusion.catalog import build, chain_graph, names
from orbifusion.graphs import induced_graph_symmetry
from orbifusion.orbifold import cycles
from orbifusion.rings import left_permutation

from .oracles import (
    broken_z3_ring,
    cycle_len,
    invertibles_loop,
    klein_ring,
    left_permutation_dense,
    part_orbits,
    perm_orbits,
    perm_order,
    vertex_perm_order,
)


def _z3_with(row):
    """Z/3 table whose product g1 * g1 is replaced by ``row``: {output: constant}."""
    labels = ["g0", "g1", "g2"]
    triples = [
        (f"g{s}", f"g{t}", f"g{(s + t) % 3}", 1)
        for s in range(3)
        for t in range(3)
        if (s, t) != (1, 1)
    ]
    triples += [("g1", "g1", k, v) for k, v in row.items()]
    return FusionRing.from_labels(
        labels, unit="g0", dual={"g0": "g0", "g1": "g2", "g2": "g1"}, triples=triples
    )


# g1 * g1 = g0 + g2: two outputs; = 2 g2: a constant of 2; = g0: shared with g1 * g2
BROKEN_ROWS = {
    "two outputs": {"g0": 1, "g2": 1},
    "constant 2": {"g2": 2},
    "shared output": {"g0": 1},
}


def _rings():
    out = {name: build(name).ring for name in names()}
    out["broken_z3"] = broken_z3_ring()
    out["klein"] = klein_ring()
    out.update({name: _z3_with(row) for name, row in BROKEN_ROWS.items()})
    return out


RINGS = _rings()


@pytest.mark.parametrize("name", list(RINGS))
def test_left_permutation_matches_the_dense_oracle(name):
    ring = RINGS[name]
    for i in range(ring.size):
        assert left_permutation(ring, i) == left_permutation_dense(ring, i)
    assert invertibles(ring) == invertibles_loop(ring)


@pytest.mark.parametrize("name", list(BROKEN_ROWS))
def test_left_permutation_refuses_a_row_that_is_not_one_unit_output(name):
    ring = RINGS[name]
    assert left_permutation(ring, 1) is None
    # the untouched rows of g0 and g2 still permute the labels
    assert left_permutation(ring, 0) == (0, 1, 2)
    assert left_permutation(ring, 2) == (2, 0, 1)
    assert invertibles(ring) == ["g0", "g2"]


def test_left_permutation_of_the_broken_and_klein_rings():
    z3 = RINGS["broken_z3"]
    # b * b = b gives the rows of b a shared output
    assert [left_permutation(z3, i) for i in range(3)] == [(0, 1, 2), (1, 2, 0), None]
    klein = RINGS["klein"]
    assert [left_permutation(klein, i) for i in range(4)] == [
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    ]


def _perms():
    """Every permutation an invertible catalog label acts by, plus random ones."""
    out = []
    for ring in RINGS.values():
        out += [p for i in range(ring.size) if (p := left_permutation(ring, i)) is not None]
    rng = random.Random(6)
    for n in (1, 2, 5, 12, 40):
        for _ in range(20):
            p = list(range(n))
            rng.shuffle(p)
            out.append(tuple(p))
    return out


def test_cycles_match_the_index_walker():
    for perm in _perms():
        got = cycles(range(len(perm)), perm)
        assert got == perm_orbits(perm)
        assert math.lcm(*map(len, got)) == perm_order(perm)
        for c in got:
            assert all(len(c) == cycle_len(perm, i) for i in c)


def _graph_symmetries():
    out = []
    for name in names():
        entry = build(name)
        if entry.graph is None:
            continue
        action = cyclic_action(entry.ring, entry.alpha)
        out.append(
            induced_graph_symmetry(entry.ring, action, entry.graph, entry.even_map or {})
        )
    for length in (2, 5, 9, 14):
        g = chain_graph(length)
        flip = {f"rho{t}": f"rho{length - 1 - t}" for t in range(length)}
        ident = {v: v for v in flip}
        if length % 4 == 1:
            out.append(validate_symmetry(g, flip, 2))
        out.append(validate_symmetry(g, ident, 1))
    return out


def test_cycles_match_the_vertex_walkers():
    syms = _graph_symmetries()
    assert len(syms) >= 8
    for sym in syms:
        g = sym.graph
        for part in (g.even, g.odd):
            assert cycles(part, sym.vperm) == part_orbits(part, sym.vperm)
        assert sym.order == vertex_perm_order(g, sym.vperm)
