"""Acceptance gate: one test per shipped claim, one verdict line each.

Each test prints exactly one PASS/FAIL line naming the criterion, then
asserts it, so a plain pytest run doubles as the sign-off checklist.
"""

import math
import time

import pytest

from orbifusion import (
    DynkinClass,
    ObstructionValue,
    OrbifoldInput,
    Verdict,
    cyclic_action,
    fold_graph,
    fp_dimensions,
    fusion_product,
    global_dim_check,
    hom_dim,
    induced_graph_symmetry,
    obstruction_bound,
    obstruction_m,
    orbifold_sectors,
    pf_norm,
    recognize,
    simple_current,
    validate_ring,
    weight_label,
)
from orbifusion.catalog import REGISTRY, build, known_obstruction, names
from orbifusion.cli import main as cli_main
from orbifusion.fileio import dump_graph, dump_ring
from orbifusion.graphs import template
from orbifusion.rings import FormalSum, classify_by_orders
from orbifusion.su3 import admissible_weights

from .oracles import dense_associator, su3_ring, unvalidated, verlinde, verlinde_table


@pytest.fixture
def verdict(capsys):
    """One PASS/FAIL line per criterion, written past the capture machinery."""

    def emit(num: int, desc: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
        assert ok, f"criterion {num}: {desc}"

    return emit


def _entry_pipeline(entry, value=None):
    action = cyclic_action(entry.ring, entry.alpha)
    inp = OrbifoldInput.make(action, entry.rho, loi_trivial_attested=True)
    bound = obstruction_bound(inp)
    if value is None:
        value = ObstructionValue(0, action.order)
    sectors = orbifold_sectors(inp, value, dims=fp_dimensions(entry.ring))
    return action, bound, sectors


def _tables_agree(level: int) -> bool:
    ws = admissible_weights(level)
    cube = verlinde_table(level)
    for i, lam in enumerate(ws):
        for j, mu in enumerate(ws):
            row = cube[i, j]
            want = {ws[t]: int(row[t]) for t in range(len(ws)) if row[t]}
            if fusion_product(lam, mu, level) != want:
                return False
    return True


def test_criterion_1_chain_folds(verdict):
    start = time.perf_counter()
    ok = True
    for n in range(2, 13):
        entry = build(f"A{4 * n - 3}")
        action, bound, _ = _entry_pipeline(entry)
        sym = induced_graph_symmetry(entry.ring, action, entry.graph, entry.even_map)
        cls = recognize(fold_graph(sym))
        ok = ok and bound.m == 1 and cls == DynkinClass("D", 2 * n)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    verdict(
        1,
        f"chains of length 5..45 fold to the forked family, m = 1 throughout "
        f"({elapsed:.2f}s)",
        ok,
    )


def test_criterion_2_full_splitting(verdict):
    start = time.perf_counter()
    entry = build("E6affine")
    action, bound, sectors = _entry_pipeline(entry)
    d_rho = fp_dimensions(entry.ring)[entry.ring.index("rho")]
    sym = induced_graph_symmetry(
        entry.ring, action, entry.graph, {v: v for v in entry.graph.even}
    )
    cls = recognize(fold_graph(sym))
    pieces = [p for fam in sectors.split for p in fam.pieces]
    conj = sectors.conjugacy
    ok = (
        cls == DynkinClass("D_affine", 4)
        and len(sectors.merged) == 1
        and pieces == ["rho#0", "rho#1", "rho#2"]
        and abs(d_rho - 3.0) <= 1e-9
        and abs(sectors.split[0].dimension - 1.0) <= 1e-9
        and conj is not None
        and conj.all_self_conjugate
    )
    if ok:
        unit = entry.ring.labels[entry.ring.unit]
        orders = [1 if unit in c.members else 2 for c in sectors.merged]
        orders += [2 for fam in sectors.split for _ in fam.pieces]
        ok = classify_by_orders(sorted(orders)).name == "Z/2 x Z/2"
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    verdict(
        2,
        f"triangle cover folds to the 4-pronged star; three pieces of "
        f"dimension 1 form Z/2 x Z/2 ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_3_blocked_splitting(tmp_path, capsys, verdict):
    start = time.perf_counter()
    entry = build("E6")
    value = known_obstruction("E6")
    action, bound, sectors = _entry_pipeline(entry, value)
    ok = (
        bound.verdict is Verdict.INCONCLUSIVE
        and bound.m == 2
        and bound.n == 2
        and value == ObstructionValue(1, 2)
        and value.l == 2
        and value.describe() == "-1"
        and sectors.p == 1
        and sectors.split[0].pieces == ("rho#0",)
    )
    ring_file = tmp_path / "e6.ring"
    graph_file = tmp_path / "e6.graph"
    ring_file.write_text(dump_ring(entry.ring), encoding="utf-8")
    graph_file.write_text(dump_graph(entry.graph), encoding="utf-8")
    code = cli_main(
        [
            "orbifold",
            str(ring_file),
            "--alpha",
            "alpha",
            "--assume-loi-trivial",
            "--obstruction",
            "1/2",
            "--graph",
            str(graph_file),
        ]
    )
    out = capsys.readouterr().out
    ok = ok and code == 0 and "no graph change predicted" in out
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    verdict(
        3,
        f"silent gcd test plus recorded obstruction -1 keeps the fixed "
        f"label whole and predicts no graph change ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_4_self_coupling_sweep(verdict):
    start = time.perf_counter()
    ok = True
    for k in range(1, 9):
        res = obstruction_m(k)
        ok = ok and res.m == k + 1
        want = Verdict.INCONCLUSIVE if (k + 1) % 3 == 0 else Verdict.TRIVIAL
        ok = ok and res.verdict is want
    for level in range(1, 7):
        ok = ok and _tables_agree(level)
    for k in (1, 2):
        level = 3 * k
        ok = ok and verlinde((k, k), (k, k), (k, k), level) == k + 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    verdict(
        4,
        f"fixed-weight self-coupling is k+1 for k = 1..8, confirmed against "
        f"the character sums at levels 1..6 ({elapsed:.2f}s)",
        ok,
    )


def test_criterion_5_norm_preservation(verdict):
    ok = True
    checked = 0
    for name in names():
        entry = build(name)
        if entry.graph is None or not entry.expect_a3:
            continue
        action, bound, _ = _entry_pipeline(entry)
        if bound.verdict is not Verdict.TRIVIAL:
            continue
        even_map = entry.even_map or {v: v for v in entry.graph.even}
        sym = induced_graph_symmetry(entry.ring, action, entry.graph, even_map)
        folded = fold_graph(sym)
        ok = ok and abs(pf_norm(folded) - pf_norm(entry.graph)) <= 1e-9
        checked += 1
    ok = ok and checked >= 12
    verdict(
        5,
        f"the graph norm survives folding on all {checked} foldable entries",
        ok,
    )


def test_criterion_6_global_dimension_law(verdict):
    ok = True
    checked = 0
    spot = {}
    for name in names():
        entry = build(name)
        if not entry.expect_a3:
            continue
        action, bound, _ = _entry_pipeline(entry)
        if bound.verdict is Verdict.TRIVIAL:
            value = ObstructionValue(0, entry.n)
        else:
            value = known_obstruction(name)
        if value is None or not value.is_trivial:
            continue
        inp = OrbifoldInput.make(action, entry.rho, loi_trivial_attested=True)
        sectors = orbifold_sectors(inp, value, dims=fp_dimensions(entry.ring))
        law = global_dim_check(entry.ring, sectors)
        ok = ok and law.passed and law.rel_error < 1e-6
        spot[name] = (law.input_sum, law.output_sum)
        checked += 1
    ok = ok and checked >= 20
    e6a = spot.get("E6affine", (0.0, 0.0))
    a5 = spot.get("A5", (0.0, 0.0))
    ok = ok and abs(e6a[0] - 12.0) <= 1e-9 and abs(e6a[1] - 4.0) <= 1e-9
    ok = ok and abs(a5[0] - 6.0) <= 1e-9 and abs(a5[1] - 3.0) <= 1e-9
    verdict(
        6,
        f"squared dimensions scale by 1/n on all {checked} certified "
        f"quotients (12 -> 4 and 6 -> 3 among them)",
        ok,
    )


def test_criterion_7_property_suites(verdict):
    ok = True

    # axioms on every catalog ring, with a dense exhaustive associativity
    # pass wherever the cube is small enough to enumerate outright; on
    # copies, so that the alcove rings su3_ring marks are scanned too
    for name in names():
        ring = build(name).ring
        ok = ok and validate_ring(unvalidated(ring)).passed
        if ring.size <= 30:
            bad, _, _ = dense_associator(ring)
            ok = ok and len(bad) == 0

    # reciprocity, one direct instance on top of the axiom suite
    ring = build("A9").ring
    x = FormalSum.basis(ring.index("rho2"))
    y = FormalSum.basis(ring.index("rho4"))
    prod_xy = hom_dim(ring, x, y)
    ok = ok and prod_xy == hom_dim(ring, y, x)

    # truncated products against character sums, re-run as one sweep
    ok = ok and all(_tables_agree(level) for level in range(1, 7))

    # the order-3 current acts by the closed formula at every level
    for level in range(1, 13):
        r3 = su3_ring(level)
        action = cyclic_action(r3, weight_label((level, 0)))
        J = simple_current(level)
        ok = ok and action.order == 3
        for w, img in J.items():
            got = r3.labels[action.perm[r3.index(weight_label(w))]]
            ok = ok and got == weight_label(img)

    # shape recognition inverts the template generator through rank 200
    cases = [("A", r) for r in range(2, 201)]
    cases += [("D", r) for r in range(4, 201)]
    cases += [("A_affine", r) for r in [1] + list(range(3, 200, 2))]
    cases += [("D_affine", r) for r in range(4, 201)]
    cases += [("E6", 6), ("E7", 7), ("E8", 8)]
    cases += [("E6_affine", 6), ("E7_affine", 7), ("E8_affine", 8)]
    for family, rank in cases:
        ok = ok and recognize(template(family, rank)) == DynkinClass(family, rank)

    # every recorded nontrivial obstruction sits where the gcd test is
    # silent, so no recorded value contradicts the certificate
    for name, reg in REGISTRY.items():
        entry = build(name)
        action = cyclic_action(entry.ring, entry.alpha)
        bound = obstruction_bound(OrbifoldInput.make(action, entry.rho, True))
        if not reg.value.is_trivial:
            ok = ok and math.gcd(bound.m, bound.n) > 1
        ok = ok and bound.verdict is Verdict.INCONCLUSIVE

    verdict(
        7,
        "axioms, reciprocity, character-sum agreement, current equivariance, "
        "template recognition through rank 200, and registry consistency",
        ok,
    )
