"""The table symmetries against dense-cube oracles.

Frobenius reciprocity (the relations N[i,j,k] = N[i*,k,j] and
N[i,j,k] = N[k,j*,i]) is decided by the witness search, which compares
each first-label and each second-label slab with its dual's slab
transposed, or, on a table that meets every other axiom, by comparing
each generator's slab with its dual's slab transposed. The first-slot
equivariance of a cyclic action compares slab p(i) with slab i, its
outputs renamed.
Here those verdicts are held to the dense cube and to the dense-buffer
scanner of ``tests.oracles`` that they replace, their witnesses to the
entry-array and argsort check, and ``fp_dimensions`` to the
``np.add.at`` scatter, bit for bit. ``validate_ring`` is held to the
two-scan validation, and its witness search to the walk over every
stored constant.
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
from orbifusion import kernels, orbifold, rings
from orbifusion.catalog import build, names, su2_even_ring
from orbifusion.rings import left_permutation
from . import oracles
from .oracles import (
    _invariant_under,
    su3_ring,
    cyclic_ring,
    dense_cube,
    dual_unit_and_frobenius_sorted,
    equivariant_dense,
    fp_dimensions_add_at,
    frobenius_cycle_dense,
    frobenius_left_dense,
    frobenius_right_dense,
    frobenius_witnesses_walk,
    klein_ring,
    unvalidated,
    validate_ring_two_scans,
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
    # the scanner one first label per block
    if request.param == "one-label":
        monkeypatch.setattr(oracles, "_SYM_BLOCK_CELLS", 1)
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
    """The first relation and the 3-cycle, as the dense-buffer scanner
    checked them."""
    dual = np.asarray(ring.dual, dtype=np.int64)
    return (
        _invariant_under(ring, (0, 2, 1), (dual, None, None)),
        _invariant_under(ring, (1, 2, 0), (None, dual, dual)),
    )


def _slab_equivariant(ring, perm):
    """N[p(i),j,p(k)] = N[i,j,k], slab by slab, as cyclic_action checks it."""
    ptr, idx, val = ring.csr()
    p = np.asarray(perm, dtype=np.int64)
    return all(
        rings._slab_is_moved(ptr, idx, val, ring.size, i, perm[i], rename=p)
        for i in range(ring.size)
    )


def test_frobenius_and_equivariance_match_the_dense_cube(block):
    rng = random.Random(7)
    for name, ring, base in _CASES:
        N = dense_cube(ring)
        left, cycle = _frobenius_block_verdicts(ring)
        both = frobenius_left_dense(N, ring.dual) and frobenius_right_dense(N, ring.dual)
        assert left == frobenius_left_dense(N, ring.dual), name
        assert cycle == frobenius_cycle_dense(N, ring.dual), name
        assert (left and cycle) == both, name
        for perm in _perms(base, rng):
            p = np.asarray(perm, dtype=np.int64)
            want = equivariant_dense(N, perm)
            assert _invariant_under(ring, (0, 1, 2), (p, None, p)) == want, (name, perm)
            assert _slab_equivariant(ring, perm) == want, (name, perm)


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


@given(_random_tables())
def test_frobenius_verdicts_on_random_tables(table):
    N, dual = table
    L = len(dual)
    entries = [(int(i), int(j), int(k), int(N[i, j, k])) for i, j, k in np.argwhere(N)]
    ring = FusionRing([f"x{t}" for t in range(L)], 0, dual, entries)
    no_witness = rings._frobenius_witnesses(ring) == ()
    left, cycle = _frobenius_block_verdicts(ring)
    both = frobenius_left_dense(N, dual) and frobenius_right_dense(N, dual)
    assert left == frobenius_left_dense(N, dual)
    assert cycle == frobenius_cycle_dense(N, dual)
    assert (left and cycle) == both
    assert no_witness == both


@functools.cache
def _sorted_failures(case: int):
    return dual_unit_and_frobenius_sorted(_CASES[case][1])


def test_validation_witnesses_are_the_sorted_checks(block):
    for case, (name, ring, _) in enumerate(_CASES):
        got = [
            (f.axiom, f.witnesses)
            for f in validate_ring(unvalidated(ring)).failures
            if f.axiom in ("dual-unit", "frobenius-reciprocity")
        ]
        assert got == _sorted_failures(case), name


def test_non_involutive_dual_is_reported_by_every_axiom_it_breaks():
    ring = _rebuild(cyclic_ring(4), list(cyclic_ring(4).iter_entries()), dual=[0, 2, 3, 1])
    axioms = [f.axiom for f in validate_ring(ring).failures]
    assert axioms == ["duality-involution", "dual-unit", "frobenius-reciprocity"]
    assert validate_ring(ring).failures[0].witnesses == ((1,), (2,), (3,))


def test_cyclic_action_refuses_exactly_the_non_equivariant_tables(block):
    # on copies: su3_ring marks its rings as validated, another test may
    # have validated the others, and cyclic_action does not scan a
    # validated ring
    for name, ring, base in _CASES:
        ring = unvalidated(ring)
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


def _refuse(*args):
    raise AssertionError("the equivariance comparison was called")


def _premises_hold(report):
    axioms = {f.axiom for f in report.failures}
    return not axioms & {"unit", "duality-involution", "dual-unit", "associativity"}


def _counting_searches(monkeypatch):
    searches = []
    search = rings._frobenius_witnesses
    monkeypatch.setattr(
        rings, "_frobenius_witnesses", lambda ring: searches.append(ring) or search(ring)
    )
    return searches


@functools.cache
def _two_scan_report(case: int):
    return validate_ring_two_scans(_CASES[case][1])


def test_validation_is_the_two_scan_oracle(block, monkeypatch):
    searches = _counting_searches(monkeypatch)
    for case, (name, ring, _) in enumerate(_CASES):
        want = _two_scan_report(case)
        del searches[:]
        # on a copy, so that a marked ring is scanned too
        assert validate_ring(unvalidated(ring)) == want, name
        # a clean ring has its Frobenius verdict from the generators'
        # slabs; the witness search decides every other table
        assert bool(searches) != want.passed, name


def _sigma1_only_table():
    """Unit, involutive dual, dual-unit pairing and associativity all hold,
    the 3-cycle holds, and N[a,b,a] = 2 while N[a*,a,b] = N[b,a,b] = 0."""
    N = {
        (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1, (1, 1, 2): 1, (1, 2, 0): 1,
        (1, 2, 1): 2, (2, 0, 2): 1, (2, 1, 0): 1, (2, 1, 1): 2, (2, 2, 1): 1, (2, 2, 2): 2,
    }
    return FusionRing(["e", "a", "b"], 0, (0, 2, 1), N)


_SIGMA1_ONLY = "frobenius-reciprocity: (1, 2, 1, 2, 0, 0), (2, 1, 1, 2, 0, 0), (2, 2, 2, 2, 0, 0)"


def test_a_table_meeting_every_premise_can_still_fail_the_first_relation(monkeypatch):
    ring = _sigma1_only_table()
    N = dense_cube(ring)
    assert frobenius_cycle_dense(N, ring.dual) and not frobenius_left_dense(N, ring.dual)
    assert str(validate_ring_two_scans(ring)) == _SIGMA1_ONLY
    # the generators' slab comparison finds the failure
    compared = []
    compare = rings._slab_is_moved

    def recording(*args, **kwargs):
        compared.append(compare(*args, **kwargs))
        return compared[-1]

    monkeypatch.setattr(rings, "_slab_is_moved", recording)
    assert str(validate_ring(ring)) == _SIGMA1_ONLY
    assert compared and not all(compared)
    assert not ring._validated


def _involution(rng, L):
    """A random involution of the labels that fixes the unit 0."""
    dual = list(range(L))
    rest = rng.sample(range(1, L), L - 1)
    while len(rest) >= 2:
        a, b = rest.pop(), rest.pop()
        if rng.random() < 0.5:
            dual[a], dual[b] = b, a
    return dual


def _commutative_premise_table(rng, L):
    """Unit 0, an involutive dual, the dual-unit pairing and commutative
    random constants 0..2 on the other cells: associativity may fail."""
    dual = _involution(rng, L)
    N = {}
    for j in range(L):
        N[0, j, j] = N[j, 0, j] = 1
    for i in range(1, L):
        N[i, dual[i], 0] = 1
        for j in range(i, L):
            for k in range(1, L):
                c = rng.choice((0, 0, 1, 2))
                if c:
                    N[i, j, k] = N[j, i, k] = c
    return N, dual, 0


def _tensor(a, b):
    """The product of two based rings on the labels (x, y) -> x * Lb + y."""
    (Na, da, _), (Nb, db, _) = a, b
    Lb = len(db)
    N = {
        (i * Lb + j, k * Lb + m, p * Lb + q): u * v
        for (i, k, p), u in Na.items()
        for (j, m, q), v in Nb.items()
    }
    return N, [x * Lb + y for x in da for y in db], 0


def _relabel(table, rng):
    N, dual, unit = table
    q = rng.sample(range(len(dual)), len(dual))
    moved = [0] * len(dual)
    for i, d in enumerate(dual):
        moved[q[i]] = q[d]
    return FusionRing(
        [f"x{t}" for t in range(len(dual))], q[unit], moved,
        {(q[i], q[j], q[k]): v for (i, j, k), v in N.items()},
    )


def _premise_tables(seed, count):
    """Tables on 2-4 labels built to meet the unit, duality and dual-unit
    axioms, randomly relabelled: commutative draws on 2 and 3 labels,
    products of two 2-label draws, and the table above."""
    rng = random.Random(seed)
    fixed = _sigma1_only_table()
    sigma1 = ({(i, j, k): v for i, j, k, v in fixed.iter_entries()}, list(fixed.dual), 0)
    for t in range(count):
        kind = t % 4
        if kind < 2:
            table = _commutative_premise_table(rng, 2 + kind)
        elif kind == 2:
            table = _tensor(_commutative_premise_table(rng, 2), _commutative_premise_table(rng, 2))
        else:
            table = sigma1
        yield _relabel(table, rng)


def test_validation_is_the_two_scan_oracle_on_tables_meeting_the_premises(monkeypatch):
    # random tables break the first relation alone too rarely to rely on
    # (2 in 66,514 that met the premises), so the fixed table is mixed in
    searches = _counting_searches(monkeypatch)
    met = failed = 0
    for t, ring in enumerate(_premise_tables(1111, 400)):
        want = validate_ring_two_scans(ring)
        del searches[:]
        assert validate_ring(ring) == want, t
        assert bool(searches) != want.passed, t
        met += _premises_hold(want)
        failed += _premises_hold(want) and not want.passed
    assert met >= 200 and failed >= 100


def _witness_rings():
    out = {name: ring for name, ring, _ in _CASES}
    level15 = su3_ring(15)
    entries = list(level15.iter_entries())
    i, j, k, v = entries[-1]
    entries[-1] = (i, j, k, v + 1)
    out["SU3_level_15/last bumped"] = _rebuild(level15, entries)
    # a broken dual puts the first relation's 20 witnesses in the first
    # slabs, so the second relation is read on their rows only
    swapped = list(level15.dual)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    shuffled = list(range(level15.size))
    random.Random(15).shuffle(shuffled)
    for name, dual in (("duals of 1 and 2 swapped", swapped), ("shuffled dual", shuffled)):
        out[f"SU3_level_15/{name}"] = FusionRing.from_csr(level15.labels, level15.unit, dual, *level15.csr())
    out["sigma1 only"] = _sigma1_only_table()
    return out


@functools.cache
def _walked_witnesses():
    # the catalog's alcove entries are the cached rings of the su3 cases,
    # so each distinct ring is walked once
    walked, out = {}, {}
    for name, ring in _witness_rings().items():
        if id(ring) not in walked:
            walked[id(ring)] = frobenius_witnesses_walk(ring)
        out[name] = walked[id(ring)]
    return out


def test_the_witness_search_is_the_walk(monkeypatch):
    want = _walked_witnesses()
    calls = []
    n = FusionRing.n
    monkeypatch.setattr(FusionRing, "n", lambda *a: calls.append(a) or n(*a))
    for name, ring in _witness_rings().items():
        assert rings._frobenius_witnesses(ring) == want[name], name
    assert not calls
    assert want["SU3_level_15/last bumped"] and want["sigma1 only"]
    assert max(len(w) for w in want.values()) == 20


def test_the_witness_search_allocates_far_less_than_a_key_array():
    # a search over the int64 keys (i * L + j) * L + k of every stored
    # constant peaked at 12.5 MB on this ring, 2.2 times 8 * nnz; the slab
    # comparisons peak at about 0.7 MB
    ring = su3_ring(18)
    ptr, idx, val = ring.csr()
    pair = int(np.searchsorted(ptr, ring.nnz - 1, side="right")) - 1
    i, j, k, v = pair // ring.size, pair % ring.size, int(idx[-1]), int(val[-1])
    raised = _raised(ring, [(i, j, k)])
    found = []
    assert _extra_allocation(lambda: found.append(rings._frobenius_witnesses(raised))) < 2 * ring.nnz
    assert (i, j, k, v + 1, v, v) in found[0]


def _frobenius_orbit(ring, cell):
    """The cells that (i,j,k) -> (i*,k,j) and (i,j,k) -> (k,j*,i) reach from ``cell``."""
    d = ring.dual
    orbit, todo = {cell}, [cell]
    while todo:
        i, j, k = todo.pop()
        for image in ((d[i], k, j), (k, d[j], i)):
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _raised(ring, cells):
    """A copy of the ring with the stored constant of each cell one larger."""
    ptr, idx, val = ring.csr()
    val = val.copy()
    L = ring.size
    for i, j, k in cells:
        lo, hi = ptr[i * L + j], ptr[i * L + j + 1]
        val[lo + np.searchsorted(idx[lo:hi], k)] += 1
    return FusionRing.from_csr(ring.labels, ring.unit, ring.dual, ptr, idx, val)


@pytest.mark.parametrize("orbit", [False, True], ids=["one raised", "orbit raised"])
def test_validation_is_the_two_scan_oracle_on_raised_level_15_tables(orbit, monkeypatch):
    # a constant raised with its whole orbit keeps both relations and
    # breaks associativity, so the full witness search must confirm them
    ring = su3_ring(15)
    ptr, idx, _ = ring.csr()
    pair = int(np.searchsorted(ptr, ring.nnz - 1, side="right")) - 1
    cell = (pair // ring.size, pair % ring.size, int(idx[-1]))
    raised = _raised(ring, _frobenius_orbit(ring, cell) if orbit else [cell])
    searches = _counting_searches(monkeypatch)
    want = validate_ring_two_scans(raised)
    assert validate_ring(raised) == want
    axioms = [f.axiom for f in want.failures]
    assert axioms == (["associativity"] if orbit else ["frobenius-reciprocity", "associativity"])
    assert len(searches) == 1


def test_validated_rings_skip_the_equivariance_scan(monkeypatch):
    rings_ = [build("E6affine").ring, cyclic_ring(4), su2_even_ring(10), su3_ring(6)]
    for ring in rings_:
        ring = unvalidated(ring)
        assert validate_ring(ring).passed and ring._validated
    monkeypatch.setattr(orbifold, "_slab_is_moved", _refuse)
    for ring, alpha in zip(rings_, ("alpha", "g1", "rho10", "6,0")):
        ring = unvalidated(ring)
        validate_ring(ring)
        assert cyclic_action(ring, alpha).order > 1


def test_an_unvalidated_broken_table_still_fails_equivariance():
    # a table that left_permutation accepts, whose action breaks
    # equivariance: validation fails, so cyclic_action checks it
    refused = 0
    for name, ring, _ in _CASES:
        if "/" not in name:
            continue
        for a in range(ring.size):
            perm = left_permutation(ring, a)
            if perm is None or ring.n(a, ring.dual[a], ring.unit) != 1:
                continue
            if equivariant_dense(dense_cube(ring), perm):
                continue
            fresh = unvalidated(ring)
            for validated_first in (False, True):
                if validated_first:
                    assert not validate_ring(fresh).passed and not fresh._validated
                with pytest.raises(AssumptionError, match="fails first-slot equivariance"):
                    cyclic_action(fresh, ring.labels[a])
            refused += 1
    assert refused


def _dimension_rings():
    out = {name: (lambda name=name: build(name).ring) for name in names()}
    # the catalog holds the alcove rings of levels 3, 6, ..., 24
    for k in range(1, 25):
        if k <= 12 or k % 3:
            out[f"su3_{k}"] = lambda k=k: su3_ring(k)
    for level in range(2, 200, 2):
        out[f"su2_even_{level}"] = lambda level=level: su2_even_ring(level)
    return out


_DIMENSION_RINGS = _dimension_rings()


@pytest.mark.parametrize("name", list(_DIMENSION_RINGS))
def test_dimensions_are_bitwise_the_add_at_scatter(name):
    # the oracle runs the power iteration as a plain loop, testing every step
    ring = _DIMENSION_RINGS[name]()
    assert fp_dimensions(ring) == fp_dimensions_add_at(ring)


_BLOCKED_RINGS = [name for name in names() if not name.startswith("SU3")] + [
    f"su3_{k}" for k in range(1, 13)
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
        blocks = list(kernels.row_blocks(ptr[::L], entries))
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
    ring = unvalidated(su3_ring(18))  # so that cyclic_action checks equivariance
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
    # importing scipy.sparse costs about 0.3 s, and library callers such
    # as the d2n workload's A_{4n-1} assumption scan check the action on
    # rings they never validate
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
