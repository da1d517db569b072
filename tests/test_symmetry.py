"""The block-wise symmetry check against dense-cube oracles.

Frobenius reciprocity (the relation N[i,j,k] = N[i*,k,j] and the
3-cycle N[i,j,k] = N[j,k*,i*], which with it gives the other relation),
the first-slot equivariance of a cyclic action and the dual-unit check
read the pair-major arrays one block of first labels at a time. Here
their verdicts are held to the dense cube, their witnesses to the
entry-array and argsort check they replace, and ``fp_dimensions`` to
the ``np.add.at`` scatter, bit for bit.
"""

import functools
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbifusion import AssumptionError, FusionRing, cyclic_action, fp_dimensions, validate_ring
import orbifusion
from orbifusion import rings
from orbifusion.catalog import build, names, su2_even_ring
from orbifusion.rings import _invariant_under, left_permutation
from .oracles import (
    su3_ring,
    cyclic_ring,
    dense_cube,
    dual_unit_and_frobenius_sorted,
    equivariant_dense,
    fp_dimensions_add_at,
    frobenius_cycle_dense,
    frobenius_left_dense,
    frobenius_right_dense,
    klein_ring,
)

# the dense cube of a catalog ring stays small up to here; the larger
# alcove entries are the su(3) rings of levels 15-24
_DENSE_LABELS = 100


def _catalog_rings():
    out = {}
    for name in names():
        ring = build(name).ring
        if ring.size <= _DENSE_LABELS:
            out[name] = ring
    return out


def _clean_rings():
    out = _catalog_rings()
    out.update({f"su3_{k}": su3_ring(k) for k in range(1, 13)})
    out.update({"Z4": cyclic_ring(4), "klein": klein_ring()})
    return out


def _rebuild(ring, entries, dual=None):
    return FusionRing(ring.labels, ring.unit, ring.dual if dual is None else dual, entries)


def _rows(entries):
    rows = {}
    for i, j, k, v in entries:
        rows.setdefault((i, j), {})[k] = v
    return rows


def _bump(ring, rng):
    entries = list(ring.iter_entries())
    t = rng.randrange(len(entries))
    i, j, k, v = entries[t]
    entries[t] = (i, j, k, v + 1)
    return _rebuild(ring, entries)


def _free_output(ring, rows, i, j, rng):
    free = [k for k in range(ring.size) if k not in rows.get((i, j), {})]
    return rng.choice(free) if free else None


def _move(ring, rng):
    entries = list(ring.iter_entries())
    rows = _rows(entries)
    for t in rng.sample(range(len(entries)), len(entries)):
        i, j, k, v = entries[t]
        k2 = _free_output(ring, rows, i, j, rng)
        if k2 is not None:
            entries[t] = (i, j, k2, v)
            return _rebuild(ring, entries)
    return None


def _extra(ring, rng):
    entries = list(ring.iter_entries())
    rows = _rows(entries)
    L = ring.size
    for _ in range(100):
        i, j = rng.randrange(L), rng.randrange(L)
        k = _free_output(ring, rows, i, j, rng)
        if k is not None:
            return _rebuild(ring, entries + [(i, j, k, 1)])
    return None


def _swap_constants(ring, rng):
    # two outputs of one row trade their constants: every count is kept
    entries = list(ring.iter_entries())
    rows = _rows(entries)
    cands = [key for key, row in rows.items() if len(set(row.values())) > 1]
    if not cands:
        return None
    row = rows[rng.choice(sorted(cands))]
    k1 = min(row, key=row.get)
    k2 = rng.choice(sorted(k for k in row if row[k] != row[k1]))
    row[k1], row[k2] = row[k2], row[k1]
    return _rebuild(ring, [(a, b, k, v) for (a, b), r in rows.items() for k, v in r.items()])


def _swap_outputs(ring, rng):
    # two rows of one first label trade one output each: every count and
    # every block's number of constants is kept
    entries = list(ring.iter_entries())
    rows = _rows(entries)
    L = ring.size
    for _ in range(200):
        i, j1, j2 = rng.randrange(L), rng.randrange(L), rng.randrange(L)
        r1, r2 = rows.get((i, j1), {}), rows.get((i, j2), {})
        only1 = sorted(set(r1) - set(r2))
        only2 = sorted(set(r2) - set(r1))
        if j1 != j2 and only1 and only2:
            k1, k2 = rng.choice(only1), rng.choice(only2)
            r1[k2], r2[k1] = r1.pop(k1), r2.pop(k2)
            return _rebuild(
                ring, [(a, b, k, v) for (a, b), r in rows.items() for k, v in r.items()]
            )
    return None


def _non_involutive_dual(ring, rng):
    # compose the dual with a transposition: still a bijection, no longer
    # an involution
    dual = list(ring.dual)
    a, b = rng.sample(range(ring.size), 2)
    dual[a], dual[b] = dual[b], dual[a]
    if all(dual[dual[i]] == i for i in range(ring.size)):
        return None
    return _rebuild(ring, list(ring.iter_entries()), dual=dual)


_MUTATIONS = (_bump, _move, _extra, _swap_constants, _swap_outputs, _non_involutive_dual)
_MUTATED = ("A9", "E6", "E6affine", "A7_failure", "Z4", "klein", "su3_3", "su3_6", "su3_9")


def _cases():
    clean = _clean_rings()
    cases = [(name, ring, ring) for name, ring in clean.items()]
    for name in _MUTATED:
        for seed, mutate in enumerate(_MUTATIONS):
            broken = mutate(clean[name], random.Random(seed))
            if broken is not None:
                cases.append((f"{name}/{mutate.__name__[1:]}", broken, clean[name]))
    return cases


_CASES = _cases()


def _perms(base, rng):
    """Identity, left fusion by each invertible label of the clean ring, one random shuffle."""
    L = base.size
    out = [tuple(range(L))]
    out += [p for p in (left_permutation(base, i) for i in range(L)) if p is not None]
    shuffled = list(range(L))
    rng.shuffle(shuffled)
    return out + [tuple(shuffled)]


@pytest.fixture(params=["default", "one-label"])
def block(request, monkeypatch):
    if request.param == "one-label":
        monkeypatch.setattr(rings, "_SYM_BLOCK_CELLS", 1)
    return request.param


def test_the_cases_break_each_relation_somewhere():
    # the oracles must see both verdicts, or the comparisons below say little
    seen = set()
    for _, ring, _ in _CASES:
        N = dense_cube(ring)
        seen.add(("left", frobenius_left_dense(N, ring.dual)))
        seen.add(("right", frobenius_right_dense(N, ring.dual)))
        seen.add(("cycle", frobenius_cycle_dense(N, ring.dual)))
    assert seen == {(r, v) for r in ("left", "right", "cycle") for v in (True, False)}
    assert len(_CASES) > len(_clean_rings()) + 4 * len(_MUTATED)


def _frobenius_block_verdicts(ring):
    """The first relation and the 3-cycle, as validate_ring checks them."""
    dual = np.asarray(ring.dual, dtype=np.int64)
    return (
        _invariant_under(ring, (0, 2, 1), (dual, None, None)),
        _invariant_under(ring, (1, 2, 0), (None, dual, dual)),
    )


def test_frobenius_and_equivariance_match_the_dense_cube(block):
    rng = random.Random(7)
    for name, ring, base in _CASES:
        N = dense_cube(ring)
        left, cycle = _frobenius_block_verdicts(ring)
        assert left == frobenius_left_dense(N, ring.dual), name
        assert cycle == frobenius_cycle_dense(N, ring.dual), name
        assert (left and cycle) == (
            frobenius_left_dense(N, ring.dual) and frobenius_right_dense(N, ring.dual)
        ), name
        for perm in _perms(base, rng):
            p = np.asarray(perm, dtype=np.int64)
            got = _invariant_under(ring, (0, 1, 2), (p, None, p))
            assert got == equivariant_dense(N, perm), (name, perm)


def _frobenius_symmetrized(N, dual):
    """N made constant on the orbits of (i,j,k) -> (i*,k,j) and
    (i,j,k) -> (k,j*,i), each orbit taking the value of its least cell."""
    L = len(dual)
    root = list(range(L**3))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i in range(L):
        for j in range(L):
            for k in range(L):
                x = (i * L + j) * L + k
                for y in ((dual[i] * L + k) * L + j, (k * L + dual[j]) * L + i):
                    a, b = find(x), find(y)
                    root[max(a, b)] = min(a, b)
    flat = N.ravel()
    return np.array([flat[find(x)] for x in range(L**3)], dtype=np.int64).reshape(N.shape)


@st.composite
def _random_tables(draw):
    """A table on at most 5 labels with constants 0..2, mostly zero, and a
    random dual bijection, involutive or not. Half the tables satisfy both
    relations, some of those with one constant changed."""
    L = draw(st.integers(1, 5))
    cells = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=L**3, max_size=L**3))
    dual = list(draw(st.permutations(range(L))))
    N = np.array(cells, dtype=np.int64).reshape(L, L, L)
    if draw(st.booleans()):
        N = _frobenius_symmetrized(N, dual)
        if draw(st.booleans()):
            N[draw(st.integers(0, L - 1)), draw(st.integers(0, L - 1)), draw(st.integers(0, L - 1))] += 1
    return N, dual


@given(_random_tables(), st.sampled_from(["default", "one-label"]))
def test_frobenius_verdicts_on_random_tables(table, block_size):
    N, dual = table
    L = len(dual)
    entries = [(int(i), int(j), int(k), int(N[i, j, k])) for i, j, k in np.argwhere(N)]
    ring = FusionRing([f"x{t}" for t in range(L)], 0, dual, entries)
    cells = 1 if block_size == "one-label" else rings._SYM_BLOCK_CELLS
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_SYM_BLOCK_CELLS", cells)
        left, cycle = _frobenius_block_verdicts(ring)
    assert left == frobenius_left_dense(N, dual)
    assert cycle == frobenius_cycle_dense(N, dual)
    assert (left and cycle) == (frobenius_left_dense(N, dual) and frobenius_right_dense(N, dual))


@functools.cache
def _sorted_failures(case: int):
    return dual_unit_and_frobenius_sorted(_CASES[case][1])


def test_validation_witnesses_are_the_sorted_checks(block):
    for case, (name, ring, _) in enumerate(_CASES):
        got = [
            (f.axiom, f.witnesses)
            for f in validate_ring(ring).failures
            if f.axiom in ("dual-unit", "frobenius-reciprocity")
        ]
        assert got == _sorted_failures(case), name


def test_non_involutive_dual_is_reported_by_every_axiom_it_breaks():
    ring = _rebuild(cyclic_ring(4), list(cyclic_ring(4).iter_entries()), dual=[0, 2, 3, 1])
    axioms = [f.axiom for f in validate_ring(ring).failures]
    assert axioms == ["duality-involution", "dual-unit", "frobenius-reciprocity"]
    assert validate_ring(ring).failures[0].witnesses == ((1,), (2,), (3,))


def test_cyclic_action_refuses_exactly_the_non_equivariant_tables(block):
    for name, ring, base in _CASES:
        N = dense_cube(ring)
        for a in range(ring.size):
            perm = left_permutation(ring, a)
            if perm is None or ring.n(a, ring.dual[a], ring.unit) != 1:
                continue
            try:
                cyclic_action(ring, ring.labels[a])
            except AssumptionError as exc:
                if "equivariance" in str(exc):
                    assert str(exc) == (
                        f"assumption (A1) fails: fusion by {ring.labels[a]!r} "
                        "fails first-slot equivariance"
                    ), name
                    assert not equivariant_dense(N, perm), (name, a)
                    continue
                raise
            assert equivariant_dense(N, perm), (name, a)


def _dimension_rings():
    out = {name: (lambda name=name: build(name).ring) for name in names()}
    # the catalog holds the alcove rings of levels 15-24
    for k in range(1, 13):
        out[f"su3_{k}"] = lambda k=k: su3_ring(k)
    for level in (*range(2, 62, 2), 196):
        out[f"su2_even_{level}"] = lambda level=level: su2_even_ring(level)
    return out


_DIMENSION_RINGS = _dimension_rings()


@pytest.mark.parametrize("name", list(_DIMENSION_RINGS))
def test_dimensions_are_bitwise_the_add_at_scatter(name):
    ring = _DIMENSION_RINGS[name]()
    assert fp_dimensions(ring) == fp_dimensions_add_at(ring)


_BLOCKED_RINGS = [
    name for name in _DIMENSION_RINGS if not name.startswith(("SU3", "su2_even_"))
] + ["su2_even_2", "su2_even_60", "su2_even_196", "SU3_level_18"]


@pytest.mark.parametrize("name", _BLOCKED_RINGS)
def test_dimensions_in_blocks_are_bitwise_the_add_at_scatter(monkeypatch, name):
    ring = _DIMENSION_RINGS[name]()
    want = fp_dimensions_add_at(ring)
    ptr = ring.csr()[0]
    L = ring.size
    # one first label per block, then a size whose last block ends
    # inside the ring, short of a full block
    for entries in (1, ring.nnz // 3 + 1):
        blocks = list(rings._first_label_blocks(ptr, L, entries))
        assert blocks[0][0] == 0 and blocks[-1][1] == L
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        if entries == 1:
            assert all(i1 == i0 + 1 for i0, i1 in blocks if ptr[i0 * L] < ptr[i1 * L])
        monkeypatch.setattr(rings, "_FP_BLOCK_ENTRIES", entries)
        assert fp_dimensions(ring) == want, entries


def _extra_allocation(fn):
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_action_and_dimensions_allocate_in_proportion_to_the_ring():
    # with four entry arrays and an argsort, cyclic_action allocated 5.2
    # times the ring's own array bytes at this level and fp_dimensions 3.9;
    # summing over the whole ring at once, fp_dimensions allocated 1.39
    ring = su3_ring(18)
    own = sum(a.nbytes for a in ring.csr())
    assert _extra_allocation(lambda: cyclic_action(ring, "18,0")) < 2 * own
    assert _extra_allocation(lambda: fp_dimensions(ring)) < 0.75 * own


_SCIPY_PROBE = """
import sys
from orbifusion import cyclic_action, fp_dimensions
from orbifusion.catalog import build, su2_even_ring
entry = build("E6affine")
cyclic_action(entry.ring, "alpha")
fp_dimensions(entry.ring)
ring = su2_even_ring(10)
cyclic_action(ring, ring.labels[-1])
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_the_action_and_the_dimensions_import_no_scipy():
    # importing scipy.sparse costs about 0.3 s, and the obstruction and
    # orbifold commands check the action on rings they never validate
    src = os.path.dirname(os.path.dirname(orbifusion.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
