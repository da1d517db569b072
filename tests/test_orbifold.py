import math

import pytest

from orbifusion import (
    AssumptionError,
    FusionRing,
    InputError,
    ObstructionValue,
    OrbifoldInput,
    OrbifusionError,
    UnsupportedStructureError,
    Verdict,
    check_assumptions,
    conjugacy_assignment,
    cyclic_action,
    fp_dimensions,
    global_dim_check,
    obstruction_bound,
    orbifold_sectors,
)
from orbifusion.catalog import _near_group_ring, build, names, su2_even_ring
from orbifusion.orbifold import ConjugacyOutcome, ObstructionVerdict
from orbifusion.rings import invertibles
from orbifusion.su3 import weight_label

from .oracles import cyclic_ring, klein_ring, orbifold_sectors_two_branches, su3_ring


def _mixed_z4_ring():
    """Z/4 units, a swapped pair y0/y1, and a fixed self-coupled z.

    Left fusion by g has order four but moves the pair in a two-step
    orbit; left fusion by g2 fixes y0, y1 and z, giving three split
    families at once. Dimensions close over Z[sqrt(5)]: d(y) = d(z)
    = 1 + sqrt(5). The table is not associative everywhere and never
    needs to be; it exercises the orbit combinatorics only.
    """
    group = ["e", "g", "g2", "g3"]
    labels = group + ["y0", "y1", "z"]
    dual = {lab: lab for lab in labels}
    dual["g"], dual["g3"] = "g3", "g"
    triples = []
    for s in range(4):
        for t in range(4):
            triples.append((group[s], group[t], group[(s + t) % 4], 1))
        for j in (0, 1):
            triples.append((group[s], f"y{j}", f"y{(j + s) % 2}", 1))
            triples.append((f"y{j}", group[s], f"y{(j + s) % 2}", 1))
        triples.append((group[s], "z", "z", 1))
        triples.append(("z", group[s], "z", 1))
    for a in ("y0", "y1"):
        for b in ("y0", "y1"):
            for g in group:
                triples.append((a, b, g, 1))
            triples.append((a, b, "y0", 1))
            triples.append((a, b, "y1", 1))
        for g in group:
            triples.append((a, "z", g, 1))
            triples.append(("z", a, g, 1))
        triples.append((a, "z", "y0", 1))
        triples.append((a, "z", "y1", 1))
        triples.append(("z", a, "y0", 1))
        triples.append(("z", a, "y1", 1))
    for g in group:
        triples.append(("z", "z", g, 1))
    triples.append(("z", "z", "z", 2))
    return FusionRing.from_labels(labels, unit="e", dual=dual, triples=triples)


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

def test_action_on_group_ring():
    ring = cyclic_ring(4)
    action = cyclic_action(ring, "g1")
    assert action.order == 4
    assert action.alpha_label == "g1"
    assert action.orbits() == [(0, 1, 2, 3)]


def test_unit_generates_the_trivial_action():
    action = cyclic_action(klein_ring(), "e")
    assert action.order == 1


def test_non_invertible_label_refused():
    ring = build("E6").ring
    with pytest.raises(AssumptionError) as err:
        cyclic_action(ring, "rho")
    assert err.value.item == "A1"


def test_equivariance_failure_refused():
    # a is invertible, but the x/y rows are not symmetric under it
    triples = [
        ("e", "e", "e", 1),
        ("e", "a", "a", 1),
        ("e", "x", "x", 1),
        ("e", "y", "y", 1),
        ("a", "e", "a", 1),
        ("a", "a", "e", 1),
        ("a", "x", "y", 1),
        ("a", "y", "x", 1),
        ("x", "e", "x", 1),
        ("y", "e", "y", 1),
        ("x", "x", "e", 1),
        ("y", "y", "e", 1),
        ("y", "x", "x", 1),
        ("x", "y", "x", 1),
    ]
    ring = FusionRing.from_labels(
        ["e", "a", "x", "y"],
        unit="e",
        dual={"e": "e", "a": "a", "x": "x", "y": "y"},
        triples=triples,
    )
    with pytest.raises(AssumptionError) as err:
        cyclic_action(ring, "a")
    assert "equivariance" in str(err.value)


# ---------------------------------------------------------------------------
# assumptions
# ---------------------------------------------------------------------------

def test_assumption_report_shape():
    entry = build("E6affine")
    action = cyclic_action(entry.ring, "alpha")
    inp = OrbifoldInput.make(action, "rho", loi_trivial_attested=True)
    rep = check_assumptions(inp)
    assert [it.item for it in rep.items] == ["A1", "A2", "A3"]
    assert rep.passed
    assert rep.rho == "rho" and rep.m == 2


def test_attestation_is_echoed_not_invented():
    entry = build("E6affine")
    action = cyclic_action(entry.ring, "alpha")
    rep = check_assumptions(OrbifoldInput.make(action, "rho", False))
    assert not rep.item("A2").passed
    assert rep.item("A1").passed and rep.item("A3").passed


def test_scan_failure_on_the_even_chain_at_level_six():
    # the flip fixes no self-coupled label, so the construction never starts
    ring = su2_even_ring(6)
    action = cyclic_action(ring, "rho6")
    rep = check_assumptions(OrbifoldInput.make(action, None, True))
    assert not rep.item("A3").passed
    assert rep.rho is None


def test_explicit_rho_conditions_reported_one_by_one():
    ring = su2_even_ring(8)
    action = cyclic_action(ring, "rho8")
    rep = check_assumptions(OrbifoldInput.make(action, "rho2", True))
    item = rep.item("A3")
    assert not item.passed
    assert "not: 'rho2' is fixed by the action" in item.detail


def test_the_scan_reads_n_only_of_self_dual_fixed_labels(monkeypatch):
    # the flip by rho8 fixes rho4 alone: the scan reads its N once and m once
    ring = su2_even_ring(8)
    action = cyclic_action(ring, "rho8")
    calls = []
    n = FusionRing.n
    monkeypatch.setattr(FusionRing, "n", lambda *a: calls.append(a[1:]) or n(*a))
    rep = check_assumptions(OrbifoldInput.make(action, None, True))
    assert (rep.rho, rep.m) == ("rho4", 1)
    assert calls == [(2, 2, 2), (2, 2, 2)]


def test_require_returns_the_report_or_the_first_failing_item():
    action = cyclic_action(build("E6affine").ring, "alpha")
    rep = check_assumptions(OrbifoldInput.make(action, "id", False))
    assert rep.require("A1") is rep
    with pytest.raises(AssumptionError) as err:
        rep.require("A1", "A3", "A2")
    assert err.value.item == "A3"
    assert str(err.value) == f"assumption (A3) fails: {rep.item('A3').detail}"


# ---------------------------------------------------------------------------
# obstruction bookkeeping
# ---------------------------------------------------------------------------

def test_obstruction_value_invariants():
    assert ObstructionValue(0, 1).is_trivial
    assert ObstructionValue(0, 3).l == 1
    assert ObstructionValue(1, 2).l == 2
    assert ObstructionValue(2, 6).l == 3
    assert ObstructionValue(0, 5).describe() == "1"
    assert ObstructionValue(1, 2).describe() == "-1"
    assert ObstructionValue(1, 3).describe() == "exp(2*pi*i*1/3)"
    with pytest.raises(InputError):
        ObstructionValue(3, 3)
    with pytest.raises(InputError):
        ObstructionValue(-1, 3)
    with pytest.raises(InputError):
        ObstructionValue(0, 0)


def test_verdict_from_counts_is_the_gcd_rule():
    for m, n, g in ((1, 2, 1), (2, 2, 2), (4, 3, 1), (6, 3, 3)):
        bound = ObstructionVerdict(m, n)
        assert bound.gcd == g
        if g == 1:
            assert bound.verdict is Verdict.TRIVIAL
            assert bound.certified == ObstructionValue(0, n)
        else:
            assert bound.verdict is Verdict.INCONCLUSIVE
            assert bound.certified is None


def test_bound_requires_working_assumptions():
    ring = su2_even_ring(6)
    action = cyclic_action(ring, "rho6")
    with pytest.raises(AssumptionError) as err:
        obstruction_bound(OrbifoldInput.make(action, None, True))
    assert err.value.item == "A3"


def test_bound_values_on_catalog_rings():
    for name, m, verdict in (
        ("A5", 1, Verdict.TRIVIAL),
        ("E6", 2, Verdict.INCONCLUSIVE),
        ("E6affine", 2, Verdict.TRIVIAL),
    ):
        entry = build(name)
        action = cyclic_action(entry.ring, entry.alpha)
        bound = obstruction_bound(OrbifoldInput.make(action, entry.rho, True))
        assert bound.m == m and bound.verdict is verdict


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

def _sectors(name, obstruction=None):
    entry = build(name)
    action = cyclic_action(entry.ring, entry.alpha)
    inp = OrbifoldInput.make(action, entry.rho, True)
    if obstruction is None:
        obstruction = ObstructionValue(0, action.order)
    return entry, inp, orbifold_sectors(inp, obstruction)


def test_full_splitting_of_the_affine_example():
    entry, inp, sectors = _sectors("E6affine")
    assert sectors.p == 3
    assert len(sectors.merged) == 1
    cls = sectors.merged[0]
    assert set(cls.members) == {"id", "alpha", "alpha2"}
    assert cls.dimension == pytest.approx(1.0, abs=1e-9)
    fam = sectors.split[0]
    assert fam.pieces == ("rho#0", "rho#1", "rho#2")
    assert fam.dimension == pytest.approx(1.0, abs=1e-9)
    assert not fam.extrapolated
    assert sectors.dual_perm["rho#0"] == "rho#1"
    assert sectors.dual_perm["rho#2"] == "rho#0"
    conj = sectors.conjugacy
    assert conj is not None and conj.all_self_conjugate


def test_blocked_splitting_keeps_the_fixed_label_whole():
    entry, inp, sectors = _sectors("E6", ObstructionValue(1, 2))
    assert sectors.p == 1
    fam = sectors.split[0]
    assert fam.pieces == ("rho#0",)
    assert fam.dimension == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-9)
    assert sectors.conjugacy is None


def test_merged_class_conjugacy_on_the_full_alcove():
    entry, inp, sectors = _sectors("SU3_level_3")
    conj = sectors.conjugacy
    assert conj is not None
    rep10 = next(c.representative for c in sectors.merged if "1,0" in c.members)
    rep01 = next(c.representative for c in sectors.merged if "0,1" in c.members)
    assert conj.merged[rep10] == rep01
    assert conj.merged[rep01] == rep10
    assert all(v is ConjugacyOutcome.ALL_SELF_CONJUGATE for v in conj.split.values())


def test_even_order_split_conjugacy_is_undetermined():
    entry, inp, sectors = _sectors("A5")
    conj = sectors.conjugacy
    assert conj is not None
    assert conj.split == {"rho2": ConjugacyOutcome.UNDETERMINED}
    assert conj.merged == {"rho0": "rho0"}


def test_obstruction_order_must_match_the_action():
    entry = build("E6affine")
    action = cyclic_action(entry.ring, "alpha")
    inp = OrbifoldInput.make(action, "rho", True)
    with pytest.raises(InputError):
        orbifold_sectors(inp, ObstructionValue(0, 2))


@pytest.mark.parametrize("name, j, n", [("A5", 1, 2), ("E6affine", 1, 3), ("E6affine", 2, 3)])
def test_an_obstruction_the_gcd_test_contradicts_is_refused(name, j, n):
    entry = build(name)
    action = cyclic_action(entry.ring, entry.alpha)
    inp = OrbifoldInput.make(action, entry.rho, True)
    with pytest.raises(InputError, match="contradicts the gcd test: gcd"):
        orbifold_sectors(inp, ObstructionValue(j, n))
    assert orbifold_sectors(inp, ObstructionValue(0, n)).p == n


def test_an_inconclusive_verdict_takes_any_supplied_obstruction():
    for j in (0, 1):
        _, _, sectors = _sectors("E6", ObstructionValue(j, 2))
        assert sectors.p == 2 - j


def test_the_assumptions_are_checked_once_per_input(monkeypatch):
    from orbifusion import orbifold

    calls = []

    def counted(inp):
        calls.append(inp)
        return check_assumptions(inp)

    monkeypatch.setattr(orbifold, "check_assumptions", counted)
    entry = build("E6affine")
    action = cyclic_action(entry.ring, entry.alpha)
    inp = OrbifoldInput.make(action, entry.rho, True)
    bound = obstruction_bound(inp)
    sectors = orbifold_sectors(inp, ObstructionValue(0, bound.n))
    assert inp.assumptions is inp.assumptions
    assert inp.assumptions == check_assumptions(inp)
    assert sectors.p == 3 and calls == [inp]


def test_order_one_is_a_passthrough():
    ring = klein_ring()
    action = cyclic_action(ring, "e")
    inp = OrbifoldInput.make(action, None, True)
    sectors = orbifold_sectors(inp, ObstructionValue(0, 1))
    assert sectors.labels() == list(ring.labels)
    assert sectors.conjugacy is not None and sectors.conjugacy.all_self_conjugate


def test_intermediate_orbit_is_refused():
    ring = _mixed_z4_ring()
    action = cyclic_action(ring, "g")
    assert action.order == 4
    inp = OrbifoldInput.make(action, "z", True)
    with pytest.raises(UnsupportedStructureError) as err:
        orbifold_sectors(inp, ObstructionValue(0, 4))
    assert "y0" in str(err.value)


def test_extra_fixed_labels_split_as_extrapolated():
    ring = _mixed_z4_ring()
    action = cyclic_action(ring, "g2")
    inp = OrbifoldInput.make(action, None, True)
    rep = check_assumptions(inp)
    assert rep.rho == "y0" and rep.m == 1
    sectors = orbifold_sectors(inp, ObstructionValue(0, 2))
    by_source = {fam.source: fam for fam in sectors.split}
    assert set(by_source) == {"y0", "y1", "z"}
    assert not by_source["y0"].extrapolated
    assert by_source["y1"].extrapolated and by_source["z"].extrapolated
    d = 1.0 + math.sqrt(5.0)
    for fam in sectors.split:
        assert fam.dimension == pytest.approx(d / 2, abs=1e-9)
    law = global_dim_check(ring, sectors)
    assert law.passed
    assert law.output_sum == pytest.approx(law.input_sum / 2, rel=1e-12)


# ---------------------------------------------------------------------------
# the squared-dimension law
# ---------------------------------------------------------------------------

def test_global_dim_law_on_the_worked_examples():
    for name, total_in, n in (("E6affine", 12.0, 3), ("A5", 6.0, 2)):
        entry, inp, sectors = _sectors(name)
        law = global_dim_check(entry.ring, sectors)
        assert law.passed
        assert law.input_sum == pytest.approx(total_in, abs=1e-9)
        assert law.output_sum == pytest.approx(total_in / n, abs=1e-9)


def test_global_dim_law_reads_the_table_the_sectors_carry(monkeypatch):
    entry, inp, sectors = _sectors("SU3_level_3")
    want = global_dim_check(entry.ring, sectors)

    def unexpected(ring, **kw):
        raise AssertionError("dimensions solved a second time")

    monkeypatch.setattr("orbifusion.orbifold.fp_dimensions", unexpected)
    assert global_dim_check(entry.ring, sectors) == want


def test_global_dim_law_refused_for_partial_splitting():
    entry, inp, sectors = _sectors("E6", ObstructionValue(1, 2))
    with pytest.raises(UnsupportedStructureError):
        global_dim_check(entry.ring, sectors)


def test_conjugacy_assignment_matches_sectors_field():
    entry, inp, sectors = _sectors("E6affine")
    again = conjugacy_assignment(sectors)
    assert again == sectors.conjugacy


# ---------------------------------------------------------------------------
# one rule for every order, against the two-branch construction
# ---------------------------------------------------------------------------

def _sectors_outcome(fn, inp, obstruction, dims):
    try:
        return fn(inp, obstruction, dims)
    except OrbifusionError as err:
        return type(err), str(err)


def test_one_rule_sectors_are_the_two_branch_construction():
    small = [name for name in names() if not name.startswith("SU3") or name.endswith(("_3", "_6", "_9"))]
    rings = [build(name).ring for name in small]
    rings += [cyclic_ring(n) for n in (2, 3, 4, 6)]
    rings += [klein_ring(), _mixed_z4_ring(), _near_group_ring(3, 2)]
    runs = {"order one": 0, "built": 0, "refused": 0}
    for ring in rings:
        dims = fp_dimensions(ring)
        for alpha in invertibles(ring):  # the unit among them, of order 1
            action = cyclic_action(ring, alpha)
            fixed = [lab for i, lab in enumerate(ring.labels) if action.perm[i] == i]
            # rho scanned, every fixed label given, and one label the action moves
            rhos = [None] + fixed + [lab for lab in ring.labels if lab not in fixed][:1]
            for rho in rhos:
                inp = OrbifoldInput.make(action, rho, True)
                for j in range(action.order):
                    obstruction = ObstructionValue(j, action.order)
                    got = _sectors_outcome(orbifold_sectors, inp, obstruction, dims)
                    assert got == _sectors_outcome(
                        orbifold_sectors_two_branches, inp, obstruction, dims
                    ), (ring.labels, alpha, rho, j)
                    if action.order == 1:
                        runs["order one"] += 1
                    runs["refused" if isinstance(got, tuple) else "built"] += 1
    assert min(runs.values()) >= 20, runs
