import math
import tracemalloc

import numpy as np
import pytest

from orbifusion import (
    DynkinClass,
    InputError,
    ObstructionValue,
    OrbifoldInput,
    Verdict,
    cyclic_action,
    obstruction_bound,
    validate_ring,
)
from orbifusion.catalog import (
    REGISTRY,
    _near_group_ring,
    build,
    known_obstruction,
    names,
    run,
    su2_even_ring,
)

from .oracles import su2_even_ring_from_labels


def test_names_cover_every_family():
    got = names()
    for n in range(2, 13):
        assert f"A{4 * n - 3}" in got
    for n in range(2, 7):
        assert f"A{4 * n - 1}_failure" in got
    assert "E6" in got and "E6affine" in got
    for k in range(1, 9):
        assert f"SU3_level_{3 * k}" in got
    assert len(got) == 26


def test_unknown_name_refused():
    with pytest.raises(InputError):
        build("E9")


def test_failure_aliases_resolve():
    for n in range(2, 7):
        assert build(f"A{4 * n - 1}").name == f"A{4 * n - 1}_failure"
    assert known_obstruction("A7") is None


def test_chain_entries_are_consistent():
    for n in (2, 3, 5):
        entry = build(f"A{4 * n - 3}")
        assert entry.n == 2
        assert entry.expected_m == 1
        assert entry.expected_fold == DynkinClass("D", 2 * n)
        assert entry.graph is not None
        assert entry.graph.size == 4 * n - 3


def test_failure_entries_expect_no_scan_hit():
    entry = build("A7_failure")
    assert entry.rho is None
    assert not entry.expect_a3


def test_near_group_builder_bounds():
    with pytest.raises(InputError):
        _near_group_ring(4, 1)
    ring = _near_group_ring(3, 0)
    assert validate_ring(ring).passed


def test_even_subring_labels():
    ring = su2_even_ring(8)
    assert list(ring.labels) == ["rho0", "rho2", "rho4", "rho6", "rho8"]
    assert validate_ring(ring).passed


# every even level up to 60, both residues mod 4, and the level of the
# A_197 -> D_100 fold; the oracle takes about 1 s over these
@pytest.mark.parametrize("level", list(range(2, 62, 2)) + [196])
def test_even_subring_arrays_match_the_triple_oracle(level):
    ring = su2_even_ring(level)
    want = su2_even_ring_from_labels(level)
    assert (ring.labels, ring.unit, ring.dual) == (want.labels, want.unit, want.dual)
    for got, ref in zip(ring.csr(), want.csr()):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("level", [-2, 0, 1, 3, 199])
def test_even_subring_needs_an_even_level_of_two_or_more(level):
    with pytest.raises(InputError, match=r"^the even subring needs an even level >= 2$"):
        su2_even_ring(level)


def test_even_subring_build_allocates_in_proportion_to_the_ring():
    tracemalloc.start()
    try:
        ring = su2_even_ring(196)
        own = sum(a.nbytes for a in ring.csr())
        extra = tracemalloc.get_traced_memory()[1] - own
    finally:
        tracemalloc.stop()
    assert extra <= 2 * own


# ---------------------------------------------------------------------------
# the recorded values
# ---------------------------------------------------------------------------

def test_registry_values_fill_real_gaps():
    # a recorded value is only legitimate where the gcd test is silent
    for name, reg in REGISTRY.items():
        entry = build(name)
        action = cyclic_action(entry.ring, entry.alpha)
        bound = obstruction_bound(OrbifoldInput.make(action, entry.rho, True))
        assert bound.verdict is Verdict.INCONCLUSIVE, name
        assert math.gcd(bound.m, bound.n) > 1, name
        assert reg.value.n == entry.n, name
        assert reg.note


def test_registry_lookup():
    assert known_obstruction("E6") == ObstructionValue(1, 2)
    assert known_obstruction("SU3_level_6") == ObstructionValue(0, 3)
    assert known_obstruction("E6affine") is None


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_report_formatting():
    rep = run("E6")
    assert rep.passed
    text = str(rep)
    assert text.startswith("== E6: pass ==")
    assert "\nPASS  ring axioms: " in text
    d = rep.to_dict()
    assert d["name"] == "E6" and d["passed"] is True
    assert all(set(c) == {"check", "passed", "detail"} for c in d["checks"])


def test_every_entry_runs_clean():
    for name in names():
        rep = run(name)
        assert rep.passed, f"{name}:\n{rep}"
