import functools
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import orbifusion
from orbifusion import FusionRing, kernels, su3, validate_ring
from orbifusion.errors import InputError
from orbifusion.catalog import _near_group_ring, build, names, su2_even_ring
from orbifusion.kernels import (
    associativity_violations,
    cube_to_csr,
    generating_set,
    su3_cube,
)
from orbifusion.rings import LABEL_CAP, constant_dtype
from orbifusion.su3 import admissible_weights

from .oracles import (
    alcove_arrays,
    associativity_scan_every_generator,
    associativity_scan_sparse,
    broken_z3_ring,
    dense_associator,
    dense_cube,
    generating_set_every_closure,
    int64_width_bytes,
    klein_ring,
    su3_csr_full_grid,
    su3_ring,
    unvalidated,
)


def _mutated_su3_csr(level, i, j, k, delta):
    ring = su3_ring(level)
    cube = dense_cube(ring)
    cube[i, j, k] += delta
    labels = list(ring.labels)
    triples = [
        (labels[a], labels[b], labels[c], int(cube[a, b, c]))
        for a, b, c in np.argwhere(cube)
    ]
    return FusionRing.from_labels(
        labels,
        unit=labels[ring.unit],
        dual={labels[a]: labels[ring.dual[a]] for a in range(ring.size)},
        triples=triples,
    )


# ---------------------------------------------------------------------------
# reading rows of the pair-major layout
# ---------------------------------------------------------------------------

def test_single_outputs_reads_each_row_as_a_plain_loop():
    # rows of two entries, a count of 2, and empty rows up to the end
    odd = FusionRing(["a", "b", "c"], 0, [0, 1, 2], [(0, 0, 0, 2), (0, 1, 1, 1), (1, 0, 2, 1)])
    for ring in (klein_ring(), broken_z3_ring(), su3_ring(3), _mutated_su3_csr(3, 2, 3, 4, 1), odd):
        L = ring.size
        want = []
        for i in range(L):
            for j in range(L):
                ks, vs = ring.row(i, j)
                want.append(int(ks[0]) if len(ks) == 1 and vs[0] == 1 else -1)
        pairs = np.arange(L * L)[::-1]  # in any order
        got = kernels.single_outputs(*ring.csr(), pairs)
        assert got.dtype == np.int64 and got.tolist() == want[::-1]


def test_slab_reads_each_row_as_a_plain_loop():
    # first-label slabs come as a slice of positions, second-label slabs
    # as an array; both on their first rows only, or on all of them
    odd = FusionRing(["a", "b", "c"], 0, [0, 1, 2], [(0, 0, 0, 2), (0, 1, 1, 1), (1, 0, 2, 1)])
    for ring in (klein_ring(), broken_z3_ring(), su3_ring(3), odd):
        ptr, idx, val = ring.csr()
        L = ring.size
        for g in range(L):
            for second in (False, True):
                for rows in (None, 0, 1, L - 1, L):
                    pairs = [(t * L + g if second else g * L + t, t) for t in range(L if rows is None else rows)]
                    want = [(p, t) for pair, t in pairs for p in range(ptr[pair], ptr[pair + 1])]
                    pos, of_row = kernels.slab(ptr, L, g, second, rows)
                    assert isinstance(pos, np.ndarray) == second
                    got = np.arange(len(idx))[pos].tolist()
                    assert list(zip(got, of_row.tolist())) == want


def test_row_blocks_cut_as_a_plain_greedy_loop():
    rng = random.Random(7)
    for _ in range(200):
        weights = [rng.choice([0, 0, 1, 3, 50]) for _ in range(rng.randrange(0, 30))]
        budget = rng.choice([1, 5, 40, 1000])
        want, r0 = [], 0
        while r0 < len(weights):
            r1, held = r0 + 1, weights[r0]
            while r1 < len(weights) and held + weights[r1] <= budget:
                held += weights[r1]
                r1 += 1
            want.append((r0, r1))
            r0 = r1
        ends = np.concatenate(([0], np.cumsum(weights, dtype=np.int64)))
        assert list(kernels.row_blocks(ends, budget)) == want, (weights, budget)


# ---------------------------------------------------------------------------
# the dense reference and the scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("level", [1, 2, 3, 5, 8])
def test_cube_lanes_agree(level):
    _, L, la, lb, wflat, woff = alcove_arrays(level)
    a = su3_cube(L, level + 3, la, lb, wflat, woff)
    assert a.shape == (L, L, L)
    assert np.array_equal(a, np.swapaxes(a, 0, 1))


def _as_stored(arrays):
    """Reference arrays with ``val`` at the width a ring stores it in."""
    ptr, idx, val = arrays
    return ptr, idx, val.astype(constant_dtype(int(val.max())))


@pytest.mark.parametrize("level", range(1, 13))
def test_closed_form_builder_matches_the_dense_cube(level):
    _, L, la, lb, wflat, woff = alcove_arrays(level)
    want = _as_stored(cube_to_csr(su3_cube(L, level + 3, la, lb, wflat, woff)))
    for got, ref in zip(su3_ring(level).csr(), want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("level", range(1, 25))
def test_triality_cells_give_the_full_grid_arrays(level):
    ws = admissible_weights(level)
    la = np.array([a for a, _ in ws], dtype=np.int64)
    lb = np.array([b for _, b in ws], dtype=np.int64)
    want = _as_stored(su3_csr_full_grid(la, lb, level))
    for got, ref in zip(su3_ring(level).csr(), want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("level", [1, 12, 24])
def test_the_builder_evaluates_each_unordered_pair_once(level, monkeypatch):
    # the rule is symmetric in lam and mu, so each pass evaluates the
    # rows j >= i of slab i, L(L+1)/2 grid rows; a builder that
    # evaluates every row in both passes forms 2 L^2
    la, lb = np.array(admissible_weights(level), dtype=np.int64).T
    L = len(la)
    rows = []
    slab = kernels._su3_slab

    def counted(*args):
        ks, n = slab(*args)
        rows.append(n.shape[0])
        return ks, n

    monkeypatch.setattr(kernels, "_su3_slab", counted)
    kernels.su3_csr(la, lb, level)
    assert sum(rows) == L * (L + 1)


def test_the_16_bit_lanes_hold_every_value_the_rule_forms():
    # the grids' five lam-free terms are int16. The largest alcove whose
    # labels fit LABEL_CAP is level 89: building its grids sums
    # 2 (mu1 + nu1) + (mu2 + nu2) + s, at most 4 * level + 2, above the
    # rule's own bound 3 * level. At LEVEL_CAP every slab gives the same
    # counts on int64 copies of the grids, and no value that it forms
    # (a, b, the lower bounds, the counts) passes 2 * level + 1
    top = max(k for k in range(LABEL_CAP) if (k + 1) * (k + 2) // 2 <= LABEL_CAP)
    assert 3 * top < 4 * top + 2 < 2**15
    level = su3.LEVEL_CAP
    assert level <= top
    la, lb = np.array(admissible_weights(level), dtype=np.int64).T
    grids = kernels._su3_triality_grids(la.astype(np.int32), lb.astype(np.int32), level, slice(None))
    assert all(g.dtype == np.int16 for grid in grids for g in grid[1:])
    wide = [(grid[0], *(g.astype(np.int64) for g in grid[1:])) for grid in grids]
    largest = 0
    for l1, l2 in zip(la.tolist(), lb.tolist()):
        _, n = kernels._su3_slab(grids, l1, l2, level)
        _, n_wide = kernels._su3_slab(wide, l1, l2, level)
        assert np.array_equal(n, n_wide)
        s = (2 * l1 + l2) % 3
        _, a_mn, b_mn, low_mn = wide[s][:4]
        shift = (2 * l1 + l2 - s) // 3
        a, b = a_mn + shift, b_mn + (l1 + l2 - shift)
        largest = max(largest, *(int(abs(x).max()) for x in (a, b, low_mn, n_wide)))
    assert largest <= 2 * level + 1 < 2**15


@pytest.mark.parametrize("level", range(1, 25))
def test_one_row_is_the_rings_row_at_every_level(level):
    ring = su3_ring(level)
    la, lb = np.array(admissible_weights(level), dtype=np.int64).T
    L = ring.size
    pairs = [(0, 0), (0, L - 1), (L - 1, 0), (L - 1, L - 1)]
    pairs += np.random.default_rng(level).integers(0, L, (20, 2)).tolist()
    for i, j in pairs:
        ks, vs = kernels.su3_row(la, lb, level, i, j)
        want_ks, want_vs = ring.row(i, j)
        assert (ks.dtype, vs.dtype) == (np.int32, np.int32)
        assert np.array_equal(ks, want_ks) and np.array_equal(vs, want_vs)


@pytest.mark.parametrize("level", [3, 6])
def test_violation_scan_lanes_agree_on_clean_tables(level):
    ring = su3_ring(level)
    ptr, idx, val = ring.csr()
    ok, wit = associativity_violations(ptr, idx, val, ring.size)
    assert ok and len(wit) == 0


def test_violation_scan_lanes_agree_on_a_broken_table():
    ring = broken_z3_ring()
    ptr, idx, val = ring.csr()
    ok, wit = associativity_violations(ptr, idx, val, ring.size)
    assert not ok and len(wit) > 0


# ---------------------------------------------------------------------------
# the generator reduction
# ---------------------------------------------------------------------------

def test_generating_set_is_small_and_sorted_for_alcove_rings():
    ring = su3_ring(9)
    ptr, idx, val = ring.csr()
    gens = generating_set(ptr, idx, val, ring.size)
    assert list(gens) == sorted(set(gens))
    assert gens[0] == ring.unit
    assert len(gens) <= 3


def test_generating_set_covers_group_rings():
    from .oracles import klein_ring

    ring = klein_ring()
    ptr, idx, val = ring.csr()
    gens = generating_set(ptr, idx, val, ring.size)
    # a klein table needs two generators besides the unit
    assert len(gens) == 3


def test_witnesses_are_genuine_and_generator_first():
    ring = broken_z3_ring()
    ptr, idx, val = ring.csr()
    gens = set(generating_set(ptr, idx, val, ring.size))
    ok, wit = associativity_violations(ptr, idx, val, ring.size)
    assert not ok
    _, lhs, rhs = dense_associator(ring)
    for i, j, k, l, a, b in wit:
        assert i in gens
        assert (a, b) == (lhs[i, j, k, l], rhs[i, j, k, l])
        assert a != b


def test_witness_cap_is_respected():
    ring = broken_z3_ring()
    ptr, idx, val = ring.csr()
    ok_all, wit_all = associativity_violations(ptr, idx, val, ring.size, cap=100)
    assert not ok_all and len(wit_all) > 1
    ok, wit = associativity_violations(ptr, idx, val, ring.size, cap=1)
    assert not ok
    assert len(wit) == 1
    assert np.array_equal(wit[0], wit_all[0])


def test_a_cap_below_one_is_refused():
    # a cap of 0 or less reported the level-6 ring with its last constant
    # raised as clean, (True, []), where cap 1 finds a witness
    ring = su3_ring(6)
    ptr, idx, val = ring.csr()
    val = val.copy()
    val[-1] += 1
    assert not associativity_violations(ptr, idx, val, ring.size, cap=1)[0]
    for cap in (0, -3):
        with pytest.raises(InputError, match=f"witness cap must be at least 1, got {cap}$"):
            associativity_violations(ptr, idx, val, ring.size, cap=cap)


# ---------------------------------------------------------------------------
# the blocked numpy scan
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _mutated_level6_cases():
    """Broken level-6 tables with every generator-first witness, in order."""
    ring = su3_ring(6)
    at = ring.index
    cases = []
    for i, j, k, delta in (
        (at("2,2"), at("2,2"), at("2,2"), +1),
        (at("1,0"), at("0,1"), at("1,1"), +1),
        (at("1,1"), at("1,1"), at("0,0"), -1),
    ):
        mutated = _mutated_su3_csr(6, i, j, k, delta)
        ptr, idx, val = mutated.csr()
        gens = generating_set(ptr, idx, val, mutated.size)
        bad, lhs, rhs = dense_associator(mutated)
        rows = [
            (g, b, c, d, lhs[a, b, c, d], rhs[a, b, c, d])
            for g in gens
            for a, b, c, d in bad
            if a == g
        ]
        cases.append((mutated, np.array(rows, dtype=np.int64)))
    return cases


@pytest.mark.parametrize("block", [1, 500, 1_000_000])
def test_blocked_scan_emits_witnesses_in_generator_then_jkl_order(monkeypatch, block):
    # 1 and 500 split the level-6 scan into many blocks, a million
    # covers it in one as the default does; witnesses must not change,
    # densely (level 6 is below the cut) or as sparse products
    monkeypatch.setattr(kernels, "_ASSOC_BLOCK", block)
    monkeypatch.setattr(kernels, "_DENSE_BLOCK", block)
    for budget in (kernels._DENSE_BYTES, 0):
        monkeypatch.setattr(kernels, "_DENSE_BYTES", budget)
        for mutated, want in _mutated_level6_cases():
            ptr, idx, val = mutated.csr()
            for cap in (1, 5, 20):
                ok, wit = associativity_violations(ptr, idx, val, mutated.size, cap=cap)
                assert not ok
                assert np.array_equal(wit, want[:cap])


def test_the_scan_stops_at_the_block_of_the_first_witness(monkeypatch):
    # blocks of one j row, counted as row_blocks hands them out: with cap
    # 1 the generators before the first witness's are scanned through,
    # and no block past the one that holds that witness is computed,
    # densely or as sparse products. A scan that drained each generator's
    # blocks would go on to the last j row.
    monkeypatch.setattr(kernels, "_ASSOC_BLOCK", 1)
    monkeypatch.setattr(kernels, "_DENSE_BLOCK", 1)
    ranges = []
    real = kernels.row_blocks

    def counted(ends, budget):
        for block in real(ends, budget):
            ranges.append(block)
            yield block

    monkeypatch.setattr(kernels, "row_blocks", counted)
    for budget in (kernels._DENSE_BYTES, 0):
        monkeypatch.setattr(kernels, "_DENSE_BYTES", budget)
        for mutated, want in _mutated_level6_cases():
            ptr, idx, val = mutated.csr()
            L = mutated.size
            gens = generating_set(ptr, idx, val, L)
            ranges.clear()
            ok, wit = associativity_violations(ptr, idx, val, L, cap=1, gens=gens)
            assert not ok and np.array_equal(wit, want[:1])
            j = int(wit[0, 1])
            scanned = sum(r0 == 0 for r0, _ in ranges)
            assert j + 1 < L and ranges[-1] == (j, j + 1)
            assert len(ranges) == (scanned - 1) * L + j + 1


# ---------------------------------------------------------------------------
# the identity slab is not scanned
# ---------------------------------------------------------------------------

def _unit_slab_mutations():
    """Raw tables whose label-0 slab or label-0 rows (j, 0) are not the
    identity, or whose label 0 is not the unit: the scan of label 0, or
    the closure under it, must run."""
    tables = []
    for ring in (su3_ring(3), klein_ring(), broken_z3_ring()):
        L = ring.size
        cube = dense_cube(ring)
        for j in (0, 1, L - 1):
            bumped = cube.copy()
            bumped[0, j, j] += 1
            tables.append(("bumped", bumped))
            redirected = cube.copy()
            redirected[0, j, j] = 0
            redirected[0, j, (j + 1) % L] += 1
            tables.append(("redirected", redirected))
            # the rows (j, 0): right multiplication by label 0 is not
            # the identity, so the generator search must close under it
            bumped = cube.copy()
            bumped[j, 0, j] += 1
            tables.append(("right-bumped", bumped))
            redirected = cube.copy()
            redirected[j, 0, j] = 0
            redirected[j, 0, (j + 1) % L] += 1
            tables.append(("right-redirected", redirected))
        # the unit moved off label 0: swap labels 0 and 1 everywhere
        p = np.arange(L)
        p[[0, 1]] = [1, 0]
        tables.append(("relabeled", cube[np.ix_(p, p, p)]))
    return [(kind, cube_to_csr(cube), cube.shape[0]) for kind, cube in tables]


def _scan_cases():
    cases = []
    for name in names():
        if not name.startswith("SU3"):
            ring = build(name).ring
            cases.append((name, ring.csr(), ring.size))
    for level in (1, 2, 3, 6, 9):
        cases.append((f"su3_{level}", su3_ring(level).csr(), su3_ring(level).size))
    for ring, name in ((broken_z3_ring(), "broken Z/3"), (klein_ring(), "Klein")):
        cases.append((name, ring.csr(), ring.size))
    for t, (mutated, _) in enumerate(_mutated_level6_cases()):
        cases.append((f"mutated level 6 #{t}", mutated.csr(), mutated.size))
    cases += _unit_slab_mutations()
    return cases


def test_skipping_the_identity_slab_changes_no_verdict_or_witness():
    reported = set()
    for name, (ptr, idx, val), L in _scan_cases():
        for cap in (1, 5, 20):
            ok, wit = associativity_violations(ptr, idx, val, L, cap=cap)
            want_ok, want = associativity_scan_every_generator(ptr, idx, val, L, cap=cap)
            assert ok == want_ok, (name, cap)
            assert np.array_equal(wit, want), (name, cap)
            if not ok and (wit[:, 0] == 0).any():
                reported.add(name)
    # label 0 was scanned and reported in the tables built to need it
    assert {"bumped", "redirected", "relabeled"} <= reported


@functools.cache
def _every_label_table(L):
    """The unit rows plus N[i, i+1, 0] = 1: every label is a generator."""
    cube = np.zeros((L, L, L), dtype=np.int32)
    r = np.arange(L)
    cube[0, r, r] = 1
    cube[r, 0, r] = 1
    cube[r[1:-1], r[2:], 0] = 1
    return cube_to_csr(cube)


@functools.cache
def _generator_cases():
    # the catalog's SU3 entries are the alcove rings of their levels
    cases = [(name, csr, L) for name, csr, L in _scan_cases() if not name.startswith("su3_")]
    for level in range(1, 25):
        cases.append((f"su3_{level}", su3_ring(level).csr(), su3_ring(level).size))
    for name, (ptr, idx, val, L) in _tables("cases").items():
        cases.append((f"symmetry {name}", (ptr, idx, val), L))
    for L in (50, 100, 150):
        cases.append((f"every label L={L}", _every_label_table(L), L))
    # even SU(2) rings of the d2n workload
    for level in (2, 60, 196, 198):
        ring = su2_even_ring(level)
        cases.append((f"su2_even_{level}", ring.csr(), ring.size))
    return cases


@functools.cache
def _reference_generators():
    """The independent closure's generator list per case, in case order,
    once per session."""
    return [generating_set_every_closure(*csr, L) for _, csr, L in _generator_cases()]


def test_skipping_the_identity_closure_keeps_every_generator_list(monkeypatch):
    want = _reference_generators()
    closed: list[int] = []
    real = kernels._right_mult_arrays

    def spy(ptr, idx, val, L, g):
        closed.append(g)
        return real(ptr, idx, val, L, g)

    monkeypatch.setattr(kernels, "_right_mult_arrays", spy)
    closes_label_0 = {}
    lists = {}
    for (name, (ptr, idx, val), L), ref in zip(_generator_cases(), want):
        closed.clear()
        got = lists[name] = generating_set(ptr, idx, val, L)
        assert got[0] == 0, name
        closes_label_0.setdefault(name, set()).add(0 in closed)
        assert got == ref, name
    # the unit at label 0 is not closed under; label 0 with broken rows
    # (j, 0), or a label 0 that is not the unit, is
    for name in ("su3_12", "su3_24", "su2_even_198", "Klein", "broken Z/3"):
        assert closes_label_0[name] == {False}, name
    for name in ("right-bumped", "right-redirected", "relabeled"):
        assert closes_label_0[name] == {True}, name
    for L in (50, 100, 150):
        assert lists[f"every label L={L}"] == list(range(L))


def test_the_generator_search_holds_its_span_once():
    # every label is a generator, so the basis fills all L rows; a second
    # copy of the span, as a word list or a basis stacked anew on each
    # insert, would reach two L x L int64 arrays
    L = 150
    ptr, idx, val = _every_label_table(L)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        gens = generating_set(ptr, idx, val, L)
        extra = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert gens == list(range(L))
    assert extra < 2 * L * L * 8


def test_the_unit_of_an_alcove_ring_is_not_scanned(monkeypatch):
    scanned = {}

    def spy(name):
        real = getattr(kernels, name)

        def scan(ptr, idx, val, L, g, cap, table):
            scanned.setdefault(name, []).append(g)
            return real(ptr, idx, val, L, g, cap, table)

        return scan

    for name in ("_assoc_gen", "_assoc_gen_dense"):
        monkeypatch.setattr(kernels, name, spy(name))
    # level 6 (28 labels) is scanned densely, level 18 (190) as sparse products
    for level, path in ((6, "_assoc_gen_dense"), (18, "_assoc_gen")):
        ring = su3_ring(level)
        ptr, idx, val = ring.csr()
        assert generating_set(ptr, idx, val, ring.size)[0] == ring.unit == 0
        scanned.clear()
        ok, wit = associativity_violations(ptr, idx, val, ring.size)
        assert ok and len(wit) == 0
        assert list(scanned) == [path]
        assert scanned[path] and ring.unit not in scanned[path]


# ---------------------------------------------------------------------------
# the dense scan below the size cut, held to the sparse products
# ---------------------------------------------------------------------------

@functools.cache
def _tables(group):
    """Raw tables by name: the symmetry tests' clean and mutated rings;
    rings on both sides of the cut ("edge": 161 and 162 labels in int32,
    128 and 129 in int64, where every constant times 2^12 puts
    ``L * max**2`` at 2^31 or above), or alcove rings of 136 and 190
    labels ("large"), clean and with one seeded constant raised."""
    if group == "cases":
        from .test_symmetry import _CASES

        return {name: ring.csr() + (ring.size,) for name, ring, _ in _CASES}
    if group == "large":
        makers = (("su3 L=136", lambda: su3_ring(15), 1), ("su3 L=190", lambda: su3_ring(18), 1))
    else:
        makers = (
            ("su2 L=161", lambda: su2_even_ring(320), 1),
            ("su2 L=162", lambda: su2_even_ring(322), 1),
            ("su3 L=153", lambda: su3_ring(16), 1),
            ("su2 L=128 x 2^12", lambda: su2_even_ring(254), 2**12),
            ("su2 L=129 x 2^12", lambda: su2_even_ring(256), 2**12),
        )
    tables = {}
    for name, make, scale in makers:
        ring = make()
        ptr, idx, val = ring.csr()
        if scale != 1:  # at the width a ring would store the scaled constants in
            val = (val.astype(np.int64) * scale).astype(constant_dtype(int(val.max()) * scale))
        tables[name] = (ptr, idx, val, ring.size)
        for seed in (0, 1):
            bumped = val.copy()
            bumped[random.Random(seed).randrange(len(val))] += 1
            tables[f"{name} bumped #{seed}"] = (ptr, idx, bumped, ring.size)
    return tables


@functools.cache
def _sparse_witnesses(group, name):
    """Every witness of the table as the sparse products find them, once
    per session; a cap keeps a prefix of this list."""
    ptr, idx, val, L = _tables(group)[name]
    return associativity_scan_sparse(ptr, idx, val, L, cap=10**9)


@functools.cache
def _generators(group, name):
    ptr, idx, val, L = _tables(group)[name]
    return generating_set(ptr, idx, val, L)


def _hold_to_the_sparse_products(group, caps):
    failing = []
    for name, (ptr, idx, val, L) in _tables(group).items():
        want_ok, want = _sparse_witnesses(group, name)
        gens = _generators(group, name)
        for cap in caps(want):
            ok, wit = associativity_violations(ptr, idx, val, L, cap=cap, gens=gens)
            assert ok == want_ok, (name, cap)
            assert wit.dtype == np.int64 and np.array_equal(wit, want[:cap]), (name, cap)
        if not want_ok:
            failing.append(want)
    return failing


def _cut_caps(want):
    """1, one past the whole list, the first cap that ends the list inside
    a run of witnesses of one (generator, j) row, and the first that ends
    it inside the witnesses of a later generator."""
    rows = list(map(tuple, want[:, :2].tolist()))
    pairs = list(zip(rows, rows[1:]))
    in_row = next((t + 1 for t, (a, b) in enumerate(pairs) if a == b), 1)
    across = next((t + 2 for t, (a, b) in enumerate(pairs) if a[0] != b[0]), 1)
    return sorted({1, len(rows) + 1, in_row, across})


@pytest.mark.parametrize("block", [1, 2_000, kernels._DENSE_BLOCK])
def test_dense_scan_matches_the_sparse_products_on_every_case(monkeypatch, block):
    # blocks of one j row, of 2,000 cells and of the default 2^17 cells
    # (one block up to 50 labels); the caps cut the scan inside a run of
    # witnesses of one row block and between generators
    monkeypatch.setattr(kernels, "_DENSE_BLOCK", block)
    assert all(kernels._dense_dtype(L, val) is not None for _, _, val, L in _tables("cases").values())
    failing = _hold_to_the_sparse_products("cases", _cut_caps)
    rows = [list(map(tuple, want[:, :2].tolist())) for want in failing]
    assert any(r[t - 1] == r[t] for r in rows for t in range(1, len(r)))
    assert any(len({g for g, _ in r}) > 1 for r in rows)


@pytest.mark.parametrize("budget", ["default", "raised"])
def test_dense_scan_matches_the_sparse_products_around_the_cut(monkeypatch, budget):
    # by default a cube of at most 16 MB is scanned densely, in int32 up
    # to 161 labels and in int64 up to 128, and a larger one as sparse
    # products; raised to 32 MB, every one of these tables densely
    want = {"su2 L=161": np.int32, "su3 L=153": np.int32, "su2 L=128 x 2^12": np.int64}
    for name, (_, _, val, L) in _tables("edge").items():
        dtype = want.get(name.partition(" bumped")[0])
        assert kernels._dense_dtype(L, val) == (None if dtype is None else np.dtype(dtype)), name
    if budget == "raised":
        monkeypatch.setattr(kernels, "_DENSE_BYTES", 2**25)
    failing = _hold_to_the_sparse_products("edge", lambda want: (1, 7, 20) if len(want) else (20,))
    assert len(failing) == 10


def test_a_clean_dense_scan_at_the_cut_allocates_little_beyond_its_cube():
    # the 161-label ring's int32 cube is 16.7 MB; filled through an int64
    # index of its 1.39M constants the scan allocated 28.2 MB, through an
    # int32 index 22.6 MB
    ptr, idx, val, L = _tables("edge")["su2 L=161"]
    gens = _generators("edge", "su2 L=161")
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        ok, _ = associativity_violations(ptr, idx, val, L, gens=gens)
        extra = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert ok and kernels._dense_dtype(L, val) == np.int32
    assert extra < 25_000_000


def _uniform_table(L: int, m: int):
    """Every N_{ij}^k = m but the last, m - 1: each bracketing that avoids
    that constant is L * m**2, the most any table with these L and m holds."""
    ptr = np.arange(L * L + 1, dtype=np.int64) * L
    idx = np.tile(np.arange(L, dtype=np.int32), L * L)
    val = np.full(L**3, m, dtype=np.int64)
    val[-1] -= 1
    return ptr, idx, val


# 2**31 - 1 is prime, so no L * m**2 equals it: 7 * 17515**2 is the
# closest below it for L up to 12, in int32; 8 * (2**14)**2 is 2**31 and
# a constant of 2**16 makes each product a * cube[y] 2**32, both in int64
@pytest.mark.parametrize(
    "L,m,dtype", [(7, 17515, np.int32), (8, 2**14, np.int64), (8, 2**16, np.int64)]
)
def test_the_dense_scan_is_exact_at_the_int32_bound(monkeypatch, L, m, dtype):
    ptr, idx, val = _uniform_table(L, m)
    assert kernels._dense_dtype(L, val) == np.dtype(dtype)
    want_ok, want = associativity_scan_sparse(ptr, idx, val, L, cap=10**9)
    assert not want_ok and want[:, 4:].max() == L * m * m
    dense = associativity_violations(ptr, idx, val, L, cap=len(want))
    monkeypatch.setattr(kernels, "_DENSE_BYTES", 0)
    sparse = associativity_violations(ptr, idx, val, L, cap=len(want))
    for ok, wit in (dense, sparse):
        assert not ok and wit.dtype == np.int64 and np.array_equal(wit, want)


@pytest.mark.parametrize("block", [1, 50_000, kernels._ASSOC_BLOCK])
def test_pair_major_scan_matches_the_flat_copy_scan_on_large_rings(monkeypatch, block):
    # the sparse path in blocks of one j row, of 50,000 product entries
    # (five to ten j rows here) and of the default, held to the scan on
    # an (L, L*L) copy of the table; the caps end the list inside a run
    # of witnesses of one (generator, j) row
    monkeypatch.setattr(kernels, "_ASSOC_BLOCK", block)
    monkeypatch.setattr(kernels, "_DENSE_BYTES", 0)
    failing = _hold_to_the_sparse_products("large", _cut_caps)
    assert len(failing) == 4
    rows = [list(map(tuple, want[:, :2].tolist())) for want in failing]
    assert all(any(r[t - 1] == r[t] for t in range(1, len(r))) for r in rows)


_SCIPY_PROBE = """
import sys
from orbifusion import catalog, graphs, orbifold, rings
from orbifusion.cli import main
from tests.oracles import unvalidated


def scipy_loaded(step):
    print("scipy after", step, any(name.partition(".")[0] == "scipy" for name in sys.modules))


assert main(["validate", sys.argv[1]]) == 0
scipy_loaded("validate")
assert main(["catalog", "run", "A5"]) == 0
scipy_loaded("catalog")
n = 50  # the D_2n pipeline on the A_197 chain, 99 labels
level = 4 * n - 4
ring = catalog.su2_even_ring(level)
graph = catalog.chain_graph(4 * n - 3)
assert rings.validate_ring(ring).passed
dims = rings.fp_dimensions(ring)
action = orbifold.cyclic_action(ring, f"rho{level}")
inp = orbifold.OrbifoldInput.make(action, f"rho{2 * n - 2}", True)
assert orbifold.check_assumptions(inp).passed
sectors = orbifold.orbifold_sectors(inp, orbifold.ObstructionValue(0, action.order), dims)
assert orbifold.global_dim_check(ring, sectors).passed
sym = graphs.induced_graph_symmetry(ring, action, graph, {v: v for v in graph.even})
folded = graphs.fold_graph(sym)
assert str(graphs.recognize(folded)) == f"D_{2 * n}"
graphs.pf_norm(graph), graphs.pf_norm(folded)
scipy_loaded("d2n")
assert main(["catalog", "run", "--all"]) == 0  # su3_ring's rings come validated
scipy_loaded("catalog all")
assert rings.validate_ring(unvalidated(catalog.su3_ring(18))).passed
scipy_loaded("level 18")
"""


def _probe_path() -> str:
    """PYTHONPATH for a probe process: the package's sources, the root
    of the checkout (for ``tests.oracles``) and the caller's path."""
    src = os.path.dirname(os.path.dirname(orbifusion.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.pathsep.join(p for p in (src, root, os.environ.get("PYTHONPATH")) if p)


def test_only_the_scan_above_the_cut_imports_scipy(tmp_path):
    # importing scipy.sparse costs 0.13-0.25 s and about 21 MB a process
    from orbifusion.fileio import dump_ring

    ring_file = tmp_path / "e6affine.ring"
    ring_file.write_text(dump_ring(build("E6affine").ring), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(ring_file)],
        env=dict(os.environ, PYTHONPATH=_probe_path()),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert [line for line in done.stdout.splitlines() if line.startswith("scipy after")] == [
        "scipy after validate False",
        "scipy after catalog False",
        "scipy after d2n False",
        "scipy after catalog all False",
        "scipy after level 18 True",
    ]


def test_alcove_build_and_validation_allocate_in_proportion_to_the_ring():
    # the dense-cube builder allocated 6.4 times the ring's own array
    # bytes at this level, and validation 19 times; without the entry
    # arrays the associativity scan sets validation's peak, about 5.2 times
    tracemalloc.start()
    try:
        ring = su3.su3_ring(18)
        own = sum(a.nbytes for a in ring.csr())
        build_extra = tracemalloc.get_traced_memory()[1] - own
        ring = unvalidated(ring)  # the builder's mark would skip the scan
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        assert validate_ring(ring).passed
        check_extra = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_extra < 2 * own
    assert check_extra < 6 * own


@pytest.mark.parametrize("level", [18, 24])
def test_the_alcove_builder_holds_little_beyond_its_arrays(level):
    # a builder that kept every slab's idx and val parts alive next to
    # their concatenation peaked 0.79 and 0.74 times the arrays' bytes
    # above them at levels 18 and 24; counting the hits first and writing
    # them into preallocated arrays, 0.17 and 0.10 times (bytes counted
    # with val as int64)
    la, lb = np.array(admissible_weights(level), dtype=np.int64).T
    tracemalloc.start()
    try:
        arrays = kernels.su3_csr(la, lb, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(a.nbytes for a in arrays) < 0.25 * int64_width_bytes(*arrays)


_BUILD_PROBE = """
import scipy.sparse  # noqa: F401  (its import is not the build's)
from orbifusion import su3, validate_ring
from tests.oracles import int64_width_bytes, unvalidated


def peak_kib():
    # this process's own peak resident set; ru_maxrss would start at the
    # peak of the process that spawned it, in a test session far above this one's
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith("VmHWM:")).split()[1])


before = peak_kib()
ring = su3.su3_ring(24)
assert validate_ring(unvalidated(ring)).passed  # the scan, not the builder's mark
print((peak_kib() - before) * 1024 / int64_width_bytes(*ring.csr()))
"""


def test_building_and_validating_level_24_raises_a_fresh_peak_by_about_the_ring():
    # tracing misses the freed chunks a process keeps resident: the
    # builder that concatenated per-slab parts raised a fresh process's
    # peak by 1.8 times the ring's bytes, the one that writes in place by
    # about 1.2 times (bytes counted with val as int64)
    done = subprocess.run(
        [sys.executable, "-c", _BUILD_PROBE],
        env=dict(os.environ, PYTHONPATH=_probe_path()),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 1.4


def test_validating_the_level_24_ring_allocates_a_bounded_block_above_it():
    # the scan on an (L, L*L) copy of the table in blocks of two million
    # product entries allocated 64 MB here; on the ring's own arrays in
    # blocks of half a million, about 14 MB, and of a quarter million, 7 MB;
    # with the ring's uint8 constants cast once to int32 for the products,
    # 19 MB, as the ring itself shrank by 24 MB
    ring = unvalidated(su3_ring(24))  # the builder's mark would skip the scan
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert validate_ring(ring).passed
        extra = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert extra < 20_000_000


def _table_with_unit(L, rows):
    """Raw arrays of a table with the unit at label 0 and the other rows
    (i, j) -> outputs k as given, every constant 1."""
    rows = {**{(0, j): [j] for j in range(L)}, **{(i, 0): [i] for i in range(L)}, **rows}
    keys = sorted(rows)
    counts = np.zeros(L * L, dtype=np.int64)
    counts[[i * L + j for i, j in keys]] = [len(rows[key]) for key in keys]
    ptr = np.concatenate(([0], np.cumsum(counts)))
    idx = np.array([k for key in keys for k in rows[key]], dtype=np.int32)
    return ptr, idx, np.ones(len(idx), dtype=np.int64)


def _unbalanced_tables():
    """Two 400-label tables whose generator 1 makes one product of a
    block far larger than the other's multiplies. In "kron", each j > 41
    goes to the 40 labels 2..41, whose slabs hold only their unit rows:
    every entry of rg puts 400 entries into the kron but multiplies one.
    The table associates there, so the scan runs through every block.
    In "right", the j rows past 102 send k = 1..100 to label 2, and
    1 * 2 has 100 outputs: rg's rows there are empty, and each j row's
    right product holds 10,000 entries."""
    L = 400
    kron = {(1, j): range(2, 42) for j in range(42, L)}
    right = {(1, 2): range(3, 103)}
    right.update({(j, k): [2] for j in range(103, L) for k in range(1, 101)})
    return {"kron": _table_with_unit(L, kron), "right": _table_with_unit(L, right)}


@pytest.mark.parametrize("name", ["kron", "right"])
def test_a_block_of_the_sparse_scan_stays_bounded_on_any_table(name):
    # Blocks sized by the left product's multiplies alone put every j row
    # of these tables into one block: the scan allocated 185 MB on
    # "kron", and 75 MB on "right", where the (L, L*L) copy scan
    # allocated 97 MB. Sized by the kron and the right product too, in
    # blocks of a quarter million entries, it allocates about 9 and 5 MB,
    # near the 7 MB of the level-24 alcove ring.
    import scipy.sparse  # noqa: F401  (its import is not the scan's)

    ptr, idx, val = _unbalanced_tables()[name]
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        ok, wit = associativity_violations(ptr, idx, val, 400, gens=[0, 1])
        extra = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert ok == (name == "kron") and len(wit) == (0 if ok else 20)
    assert extra < 30_000_000


# ---------------------------------------------------------------------------
# mutations of a known-good table
# ---------------------------------------------------------------------------

def test_bumping_the_fixed_point_self_coupling_breaks_the_alcove_ring():
    ring = su3_ring(3)
    r = ring.index("1,1")
    mutated = _mutated_su3_csr(3, r, r, r, +1)
    report = validate_ring(mutated)
    assert not report.passed
    assert any(f.axiom == "associativity" for f in report.failures)


def test_redirecting_one_product_is_caught_by_both_lanes():
    ring = su3_ring(3)
    i, j = ring.index("1,0"), ring.index("0,1")
    k = ring.index("1,1")
    mutated = _mutated_su3_csr(3, i, j, k, +1)
    ptr, idx, val = mutated.csr()
    ok, wit = associativity_violations(ptr, idx, val, mutated.size)
    assert not ok
    _, lhs, rhs = dense_associator(mutated)
    for a, b, c, l, x, y in wit:
        assert (x, y) == (lhs[a, b, c, l], rhs[a, b, c, l])


def test_near_group_self_coupling_is_free():
    # the standalone near-group table stays associative for any coupling
    for order in (2, 3):
        for m in (0, 1, 2, 5):
            assert validate_ring(_near_group_ring(order, m)).passed


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_cube_to_csr_roundtrip():
    ring = su3_ring(4)
    cube = dense_cube(ring)
    ptr, idx, val = cube_to_csr(cube)
    p2, i2, v2 = ring.csr()
    assert np.array_equal(ptr, p2)
    assert np.array_equal(idx, i2)
    assert np.array_equal(val, v2)


def test_env_flag_switches_the_default_lane():
    # the default call reports exactly what validate_ring does
    ring = broken_z3_ring()
    ptr, idx, val = ring.csr()
    ok, wit = associativity_violations(ptr, idx, val, ring.size)
    assert not ok and len(wit) > 0
    failure = next(f for f in validate_ring(ring).failures if f.axiom == "associativity")
    assert failure.witnesses == tuple(map(tuple, wit.tolist()))
