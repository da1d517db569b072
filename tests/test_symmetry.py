"""The block-wise symmetry check against dense-cube oracles.

Frobenius reciprocity (both relations), the first-slot equivariance of
a cyclic action and the dual-unit check read the pair-major arrays one
block of first labels at a time. Here their verdicts are held to the
dense cube, their witnesses to the entry-array and argsort check they
replace, and ``fp_dimensions`` to the ``np.add.at`` scatter, bit for bit.
"""

import functools
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

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
    assert seen == {(r, v) for r in ("left", "right") for v in (True, False)}
    assert len(_CASES) > len(_clean_rings()) + 4 * len(_MUTATED)


def test_frobenius_and_equivariance_match_the_dense_cube(block):
    rng = random.Random(7)
    for name, ring, base in _CASES:
        N = dense_cube(ring)
        dual = np.asarray(ring.dual, dtype=np.int64)
        got = _invariant_under(ring, (0, 2, 1), (dual, None, None))
        assert got == frobenius_left_dense(N, ring.dual), name
        got = _invariant_under(ring, (2, 1, 0), (None, dual, None))
        assert got == frobenius_right_dense(N, ring.dual), name
        for perm in _perms(base, rng):
            p = np.asarray(perm, dtype=np.int64)
            got = _invariant_under(ring, (0, 1, 2), (p, None, p))
            assert got == equivariant_dense(N, perm), (name, perm)


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
    # times the ring's own array bytes at this level and fp_dimensions 3.9
    ring = su3_ring(18)
    own = sum(a.nbytes for a in ring.csr())
    assert _extra_allocation(lambda: cyclic_action(ring, "18,0")) < 2 * own
    assert _extra_allocation(lambda: fp_dimensions(ring)) < 3 * own


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
