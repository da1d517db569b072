"""The three workloads: their inputs, their operations and their checks.

A workload is three functions. ``setup(seed, root)`` makes the inputs
that are not under test; ``ops(inputs, layer_dir)`` lists the timed
operations as ``(name, callable)`` pairs, run one after another
(``layer_dir`` is where traced child processes leave their per-layer
rows, None when untraced); ``check(inputs, outputs)`` compares the outputs of the operations that did not fail
with values computed from :mod:`oracles` and returns one message per
mismatch. An operation fails when it raises.

Calls into orbifusion go through module attributes (``catalog.run``,
``rings.validate_ring``), never through names imported here, so the
wrappers of :mod:`spans` see them in the traced pass.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys

import numpy as np

from orbifusion import catalog, fileio, graphs, orbifold, rings, su3

import oracles

# ---------------------------------------------------------------------------
# catalog: every built-in entry, as `orbifusion catalog run --all` runs them
# ---------------------------------------------------------------------------

# seeded samples of N_{ij}^k per alcove ring, half of them stored entries
CATALOG_SAMPLES = 20_000


def _catalog_names() -> list[str]:
    return (
        [f"A{4 * n - 3}" for n in range(2, 13)]
        + [f"A{4 * n - 1}_failure" for n in range(2, 7)]
        + ["E6", "E6affine"]
        + [f"SU3_level_{3 * k}" for k in range(1, 9)]
    )


def catalog_setup(seed: int, root: str) -> dict:
    return {"seed": seed, "names": catalog.names()}


def catalog_ops(inputs: dict, layer_dir: str | None):
    return [(name, functools.partial(catalog.run, name)) for name in inputs["names"]]


def _details(report) -> dict[str, str]:
    return {line.check: line.detail for line in report.lines}


def _want(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


def _check_alcove_ring(errors, ring, level: int, rng) -> None:
    """Labels, sampled constants and dimensions of the level's alcove ring."""
    ws = oracles.su3_weights(level)
    _want(errors, list(ring.labels) == [f"{a},{b}" for a, b in ws],
          f"level {level}: labels are not the admissible weights in (a+b, a) order")
    w = np.array(ws, dtype=np.int64)
    L = len(ws)
    ii, jj, kk, vv = ring.entry_arrays()
    key = (ii * L + jj) * L + kk
    half = CATALOG_SAMPLES // 2
    stored = rng.integers(0, len(key), size=half)
    drawn = rng.integers(0, L**3, size=half)
    sample = np.concatenate([key[stored], drawn])
    pos = np.minimum(np.searchsorted(key, sample), len(key) - 1)
    got = np.where(key[pos] == sample, vv[pos], 0)
    i, j, k = sample // (L * L), (sample // L) % L, sample % L
    want = oracles.su3_fusion((w[i, 0], w[i, 1]), (w[j, 0], w[j, 1]), (w[k, 0], w[k, 1]), level)
    bad = np.nonzero(got != want)[0]
    _want(errors, bool(np.all(np.diff(key) > 0)), f"level {level}: entries not in pair-major order")
    _want(errors, bad.size == 0,
          f"level {level}: {bad.size} of {sample.size} sampled constants differ from the "
          f"Begin-Mathieu-Walton formula, first at (i, j, k) = "
          f"{tuple(int(x[bad[0]]) for x in (i, j, k)) if bad.size else None}")
    dims = np.array(rings.fp_dimensions(ring).dims)
    q = oracles.su3_qdim(w[:, 0], w[:, 1], level)
    worst = float(np.max(np.abs(dims - q) / q))
    _want(errors, worst <= 1e-9, f"level {level}: fp_dimensions off the q-dimension by {worst:.3g}")


def catalog_check(inputs: dict, outputs: dict) -> list[str]:
    errors: list[str] = []
    _want(errors, inputs["names"] == _catalog_names(), "catalog names differ from the expected list")
    rng = np.random.default_rng(inputs["seed"])
    for name, report in outputs.items():
        _want(errors, report.passed, f"{name}: report fails\n{report}")
        d = _details(report)
        if m := re.fullmatch(r"SU3_level_(\d+)", name):
            level = int(m.group(1))
            k = level // 3
            L = (level + 1) * (level + 2) // 2
            verdict = "Trivial" if (k + 1) % 3 else "Inconclusive"
            formula_m = int(oracles.su3_fusion((k, k), (k, k), (k, k), level))
            _want(errors, formula_m == k + 1, f"{name}: the formula gives m = {formula_m}")
            _want(errors, d.get("self-coupling count") == f"m = {k + 1}", f"{name}: m is not k + 1")
            _want(errors, d.get("gcd verdict", "").endswith(f"-> {verdict}"), f"{name}: verdict is not {verdict}")
            _want(errors, d.get("sector shape", "").startswith(f"{(L - 1) // 3} merged classes + 3 pieces"),
                  f"{name}: sector shape is not (({L} - 1)/3, 3)")
            _check_alcove_ring(errors, su3.su3_ring(level), level, rng)
        elif m := re.fullmatch(r"A(\d+)", name):
            N = int(m.group(1))
            n = (N + 3) // 4
            _want(errors, d.get("self-coupling count") == "m = 1", f"{name}: m is not 1")
            _want(errors, d.get("gcd verdict", "").endswith("-> Trivial"), f"{name}: verdict is not Trivial")
            _want(errors, d.get("folded graph") == f"D_{2 * n}", f"{name}: fold is not D_{2 * n}")
            norms = [float(x) for x in d.get("norm preserved", "0 -> 0").split(" -> ")]
            _want(errors, all(oracles.rel_err(x, oracles.chain_norm(N)) <= 1e-9 for x in norms),
                  f"{name}: norms {norms} are not 2cos(pi/{N + 1})")
        elif name.endswith("_failure"):
            _want(errors, "assumption scan" in d, f"{name}: the A3 scan did not come back empty")
        elif name == "E6affine":
            _want(errors, d.get("self-coupling count") == "m = 2", f"{name}: m is not 2")
            _want(errors, d.get("folded graph") == "D_4^(1)", f"{name}: fold is not D_4^(1)")
        elif name == "E6":
            _want(errors, d.get("gcd verdict") == "gcd(2, 2) -> Inconclusive", f"{name}: verdict")
    return errors


# ---------------------------------------------------------------------------
# d2n: the A_{4n-3} chain folds to D_{2n}; the A_{4n-1} chain has no anchor
# ---------------------------------------------------------------------------

# every n up to 30, then two large sizes: n = 50 (A_197, just under the
# rank-200 recognition cap) sets max_op_s well above any other operation
D2N_SIZES = tuple(range(2, 31)) + (40, 50)


def d2n_setup(seed: int, root: str) -> dict:
    """The chain family is the input; the seed changes nothing here."""
    return {"sizes": D2N_SIZES}


def _d2n_chain(n: int) -> dict:
    level = 4 * n - 4
    ring = catalog.su2_even_ring(level)
    graph = catalog.chain_graph(4 * n - 3)
    valid = rings.validate_ring(ring)
    dims = rings.fp_dimensions(ring)
    action = orbifold.cyclic_action(ring, f"rho{level}")
    inp = orbifold.OrbifoldInput.make(action, f"rho{2 * n - 2}", True)
    assumptions = orbifold.check_assumptions(inp)
    bound = orbifold.obstruction_bound(inp)
    sectors = orbifold.orbifold_sectors(inp, orbifold.ObstructionValue(0, action.order), dims)
    law = orbifold.global_dim_check(ring, sectors)
    sym = graphs.induced_graph_symmetry(ring, action, graph, {v: v for v in graph.even})
    folded = graphs.fold_graph(sym)
    return {
        "labels": ring.labels,
        "valid": valid.passed,
        "dims": dims.dims,
        "assumptions": assumptions.passed,
        "m": bound.m,
        "verdict": bound.verdict.value,
        "shape": (len(sectors.merged), sum(len(f.pieces) for f in sectors.split)),
        "law": law.passed,
        "class": str(graphs.recognize(folded)),
        "norms": (graphs.pf_norm(graph), graphs.pf_norm(folded)),
        "folded_size": folded.size,
    }


def _d2n_no_anchor(n: int):
    level = 4 * n - 2
    ring = catalog.su2_even_ring(level)
    action = orbifold.cyclic_action(ring, f"rho{level}")
    return orbifold.check_assumptions(orbifold.OrbifoldInput.make(action, None, True))


def d2n_ops(inputs: dict, layer_dir: str | None):
    ops = []
    for n in inputs["sizes"]:
        ops.append((f"A{4 * n - 3}", functools.partial(_d2n_chain, n)))
        ops.append((f"A{4 * n - 1}", functools.partial(_d2n_no_anchor, n)))
    return ops


def d2n_check(inputs: dict, outputs: dict) -> list[str]:
    errors: list[str] = []
    for name, out in outputs.items():
        N = int(name[1:])
        if N % 4 == 3:
            _want(errors, not out.item("A3").passed and out.rho is None,
                  f"{name}: the A3 scan found {out.rho!r}")
            continue
        n = (N + 3) // 4
        level = 4 * n - 4
        _want(errors, out["valid"] and out["assumptions"] and out["law"],
              f"{name}: axioms {out['valid']}, assumptions {out['assumptions']}, law {out['law']}")
        _want(errors, out["m"] == 1 and out["verdict"] == "Trivial",
              f"{name}: m = {out['m']}, verdict {out['verdict']}")
        _want(errors, out["shape"] == (n - 1, 2), f"{name}: sector shape {out['shape']}")
        _want(errors, out["class"] == f"D_{2 * n}" and out["folded_size"] == 2 * n,
              f"{name}: fold recognized as {out['class']}")
        want = oracles.chain_norm(N)
        _want(errors, all(oracles.rel_err(x, want) <= 1e-9 for x in out["norms"]),
              f"{name}: norms {out['norms']} are not 2cos(pi/{N + 1})")
        qd = [oracles.su2_qdim(int(lab[3:]), level) for lab in out["labels"]]
        worst = max(abs(a - b) / b for a, b in zip(out["dims"], qd))
        _want(errors, worst <= 1e-9, f"{name}: dimensions off the closed form by {worst:.3g}")
    return errors


# ---------------------------------------------------------------------------
# cli: a fixed script of fresh `python -m orbifusion.cli` processes
# ---------------------------------------------------------------------------

WORKDIR = os.path.join(".perfbench", "work")


def _hand_ring(labels, unit, triples):
    return rings.FusionRing.from_labels(
        labels, unit=unit, dual={lab: lab for lab in labels}, triples=triples
    )


def _script(n: int, k: int, x: str, y: str) -> list[tuple[str, list[str], int]]:
    """(name, arguments, expected exit code) of every invocation, in order."""
    w = WORKDIR
    e6a = [f"{w}/e6affine.ring", "--alpha", "alpha", "--assume-loi-trivial", "--graph", f"{w}/e6affine.graph"]
    fold = ["graph", "fold", f"{w}/chain.graph", "--perm", f"{w}/flip.perm", "--order", "2"]
    return [
        ("validate_l15", ["validate", f"{w}/l15.ring"], 0),
        ("validate_nounit_json", ["validate", f"{w}/nounit.ring", "--json"], 1),
        ("dims_e6affine", ["dims", f"{w}/e6affine.ring"], 0),
        ("dims_l12_json", ["dims", f"{w}/l12.ring", "--json"], 0),
        ("obstruction_e6", ["obstruction", f"{w}/e6.ring", "--alpha", "alpha"], 0),
        ("obstruction_l12_json", ["obstruction", f"{w}/l12.ring", "--alpha", "12,0", "--rho", "4,4", "--json"], 0),
        ("orbifold_e6affine", ["orbifold"] + e6a, 0),
        ("orbifold_e6affine_json", ["orbifold"] + e6a + ["--json"], 0),
        ("orbifold_e6affine_json_again", ["orbifold"] + e6a + ["--json"], 0),
        ("orbifold_request_l12_json", ["orbifold", f"{w}/l12.request", "--json"], 0),
        ("orbifold_e6_unsettled", ["orbifold", f"{w}/e6.ring", "--alpha", "alpha", "--assume-loi-trivial"], 1),
        ("orbifold_fixed_neighbours", ["orbifold", f"{w}/z2.ring", "--alpha", "a", "--rho", "r",
                                       "--assume-loi-trivial", "--graph", f"{w}/star.graph",
                                       "--perm", f"{w}/star.perm"], 2),
        ("graph_identify", ["graph", "identify", f"{w}/chain.graph"], 0),
        ("graph_identify_json", ["graph", "identify", f"{w}/chain.graph", "--json"], 0),
        ("graph_fold", fold, 0),
        ("graph_fold_json", fold + ["--json"], 0),
        ("su3_fuse", ["su3", "fuse", "--level", "12", x, y], 0),
        ("su3_fuse_json", ["su3", "fuse", "--level", "12", x, y, "--json"], 0),
        ("su3_m", ["su3", "m", "--k", str(k)], 0),
        ("su3_m_json", ["su3", "m", "--k", str(k), "--json"], 0),
        ("catalog_list", ["catalog", "list"], 0),
        ("catalog_list_json", ["catalog", "list", "--json"], 0),
        ("catalog_run", ["catalog", "run", f"A{4 * n - 3}"], 0),
        ("catalog_run_json", ["catalog", "run", f"A{4 * n - 3}", "--json"], 0),
        ("validate_not_json", ["validate", f"{w}/notjson.ring"], 3),
        ("orbifold_decimal_phase", ["orbifold", f"{w}/e6.ring", "--alpha", "alpha", "--obstruction", "0.5"], 3),
        # fault: FusionRing.__init__ cannot hold 2**70 in int64, raises
        # OverflowError, and cli.main lets it out as a traceback with exit 1
        ("validate_constant_2_70", ["validate", f"{w}/big.ring"], 3),
    ]


def cli_setup(seed: int, root: str) -> dict:
    rng = random.Random(seed)
    n = rng.randint(4, 10)  # chains of 13..37 vertices, all under the 40-vertex confirmation
    k = rng.randint(1, 8)
    ws = oracles.su3_weights(12)
    x, y = (f"{a},{b}" for a, b in rng.sample(ws, 2))
    N = 4 * n - 3
    e6a, e6 = catalog.build("E6affine"), catalog.build("E6")
    z2_triples = [
        ("e", "e", "e", 1), ("e", "a", "a", 1), ("a", "e", "a", 1), ("a", "a", "e", 1),
        ("e", "r", "r", 1), ("r", "e", "r", 1), ("a", "r", "r", 1), ("r", "a", "r", 1),
        ("r", "r", "e", 1), ("r", "r", "a", 1), ("r", "r", "r", 1),
    ]
    ring_files = {
        "l12.ring": su3.su3_ring(12),
        "l15.ring": su3.su3_ring(15),
        "e6affine.ring": e6a.ring,
        "e6.ring": e6.ring,
        "z2.ring": _hand_ring(["e", "a", "r"], "e", z2_triples),
        # x is self-dual, yet x * x lacks the unit: the dual-unit axiom fails
        "nounit.ring": _hand_ring(["e", "x"], "e", [("e", "e", "e", 1), ("e", "x", "x", 1),
                                                    ("x", "e", "x", 1), ("x", "x", "x", 1)]),
    }
    graph_files = {
        "e6affine.graph": e6a.graph,
        "e6.graph": e6.graph,
        "chain.graph": catalog.chain_graph(N),
        "star.graph": graphs.BipartiteGraph.from_edges(["c"], ["l", "m", "r"],
                                                       [("c", "l", 1), ("c", "m", 1), ("c", "r", 1)]),
    }
    text_files = {
        "flip.perm": json.dumps({f"rho{t}": f"rho{N - 1 - t}" for t in range(N)}),
        "star.perm": json.dumps({"c": "c", "m": "m", "l": "r", "r": "l"}),
        "l12.request": json.dumps({"format": "orbifusion/1", "ring": "l12.ring", "alpha": "12,0",
                                   "rho": "4,4", "loi_trivial": True}),
        "notjson.ring": '{"format": "orbifusion/1", "labels": ["id"],',
        "big.ring": json.dumps({"format": "orbifusion/1", "labels": ["id"], "unit": "id",
                                "dual": {"id": "id"}, "N": [["id", "id", "id", 2**70]]}),
    }
    return {
        "root": root,
        "n": n, "k": k, "x": x, "y": y,
        "ring_files": ring_files,
        "graph_files": graph_files,
        "text_files": text_files,
        "script": _script(n, k, x, y),
    }


class CommandFailed(Exception):
    """A command exited with another code than it should, or with a traceback."""


def _write_files(inputs: dict) -> None:
    work = os.path.join(inputs["root"], WORKDIR)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    texts = {name: fileio.dump_ring(r) for name, r in inputs["ring_files"].items()}
    texts.update({name: fileio.dump_graph(g) for name, g in inputs["graph_files"].items()})
    texts.update(inputs["text_files"])
    for name, text in texts.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_command(inputs: dict, name: str, args: list[str], expect: int, layer_dir: str | None) -> dict:
    if layer_dir is None:
        cmd = [sys.executable, "-m", "orbifusion.cli"] + args
    else:
        here = os.path.dirname(os.path.abspath(__file__))
        cmd = [sys.executable, os.path.join(here, "traced_cli.py"),
               os.path.join(layer_dir, name + ".json")] + args
    proc = subprocess.run(cmd, cwd=inputs["root"], capture_output=True, timeout=120)
    out = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr.decode("utf-8", "replace")}
    if proc.returncode != expect or "Traceback" in out["stderr"]:
        last = out["stderr"].strip().splitlines()[-1:] or [""]
        raise CommandFailed(f"exit {proc.returncode}, want {expect}: {last[0]}")
    return out


def cli_ops(inputs: dict, layer_dir: str | None):
    ops = [("write_files", functools.partial(_write_files, inputs))]
    for name, args, expect in inputs["script"]:
        ops.append((name, functools.partial(_run_command, inputs, name, args, expect, layer_dir)))
    return ops


def _lines(out: dict) -> list[str]:
    return out["stdout"].decode("utf-8").splitlines()


def _doc(out: dict):
    return json.loads(out["stdout"])


def _close(got: float, want: float, tol: float = 1e-9) -> bool:
    return oracles.rel_err(float(got), want) <= tol


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _check_cli_outputs(inputs: dict, o: dict, errors: list[str]) -> None:
    """Per-command content: formulas, and --json against the text report."""
    n, k, x, y = inputs["n"], inputs["k"], inputs["x"], inputs["y"]
    N = 4 * n - 3
    L12 = oracles.su3_weights(12)
    w12 = np.array(L12)
    q12 = oracles.su3_qdim(w12[:, 0], w12[:, 1], 12)
    want = oracles.chain_norm(N)

    def has(name, cond, message):
        _want(errors, cond, f"{name}: {message}")

    if "validate_l15" in o:
        w15 = np.array(oracles.su3_weights(15))
        nnz = sum(
            int(np.count_nonzero(oracles.su3_fusion(
                (a, b), (w15[:, 0, None], w15[:, 1, None]), (w15[None, :, 0], w15[None, :, 1]), 15)))
            for a, b in w15
        )
        has("validate_l15", _lines(o["validate_l15"]) == [f"ring: 136 labels, {nnz} stored constants", "axioms: pass"],
            "report differs from 136 labels, the formula's nonzero count, and a pass")
    if "validate_nounit_json" in o:
        doc = _doc(o["validate_nounit_json"])
        has("validate_nounit_json", doc["labels"] == 2 and doc["constants"] == 4 and doc["passed"] is False
            and "dual-unit" in [f["axiom"] for f in doc["failures"]], f"unexpected report {doc}")
    if "dims_e6affine" in o:
        got = dict(line.split(": ") for line in _lines(o["dims_e6affine"]))
        has("dims_e6affine", set(got) == {"id", "alpha", "alpha2", "rho", "global"}
            and all(_close(got[lab], 1.0) for lab in ("id", "alpha", "alpha2"))
            and _close(got["rho"], 3.0) and _close(got["global"], 12.0), f"dims {got}")
    if "dims_l12_json" in o:
        doc = _doc(o["dims_l12_json"])
        has("dims_l12_json", list(doc["dims"]) == [f"{a},{b}" for a, b in L12]
            and all(_close(v, q) for v, q in zip(doc["dims"].values(), q12))
            and _close(doc["global"], float(np.sum(q12**2))), "dims differ from the q-dimensions")
    if "obstruction_e6" in o:
        has("obstruction_e6", _lines(o["obstruction_e6"]) == [
            "alpha: alpha, order 2", "rho: rho", "m = 2", "n = 2", "gcd(m, n) = 2", "verdict: Inconclusive"],
            "report differs")
    if "obstruction_l12_json" in o:
        m = int(oracles.su3_fusion((4, 4), (4, 4), (4, 4), 12))
        has("obstruction_l12_json", _doc(o["obstruction_l12_json"]) == {
            "alpha": "12,0", "order": 3, "rho": "4,4", "m": m, "n": 3, "gcd": math.gcd(m, 3),
            "verdict": "Trivial" if math.gcd(m, 3) == 1 else "Inconclusive"}, "report differs")
    if "orbifold_e6affine" in o and "orbifold_e6affine_json" in o:
        doc = _doc(o["orbifold_e6affine_json"])
        text = _lines(o["orbifold_e6affine"])
        pieces = sum(len(f["pieces"]) for f in doc["split"])
        graph = doc["graph"]
        has("orbifold_e6affine", doc["m"] == 2 and doc["n"] == 3 and doc["verdict"] == "Trivial"
            and doc["p"] == 3 and len(doc["merged"]) == 1 and pieces == 3
            and _close(doc["global_dim"]["input_sum"], 12.0) and _close(doc["global_dim"]["output_sum"], 4.0)
            and _close(graph["pf_norm"], 2.0) and _close(graph["folded"]["pf_norm"], 2.0)
            and graph["folded"]["class"] == "D_4^(1)", "values differ from the near-group closed forms")
        has("orbifold_e6affine", [f"(A{t + 1}) pass" for t in range(3)] == [line[:9] for line in text[:3]]
            and text[3] == f"m = {doc['m']}, n = {doc['n']}, verdict {doc['verdict']}"
            and f"sectors: merged {len(doc['merged'])}, pieces {pieces}, p = {doc['p']}" in text
            and f"recognized: {graph['folded']['class']}" in text
            and f"graph: 4 even, 3 odd, pf norm {_fmt(graph['pf_norm'])}" in text,
            "text report disagrees with --json")
    if "orbifold_e6affine_json" in o and "orbifold_e6affine_json_again" in o:
        has("orbifold_e6affine_json_again",
            o["orbifold_e6affine_json"]["stdout"] == o["orbifold_e6affine_json_again"]["stdout"],
            "stdout differs between two invocations")
    if "orbifold_request_l12_json" in o:
        doc = _doc(o["orbifold_request_l12_json"])
        total = float(np.sum(q12**2))
        fixed = L12.index((4, 4))
        split = doc["split"]
        has("orbifold_request_l12_json", doc["m"] == 5 and doc["verdict"] == "Trivial" and doc["p"] == 3
            and len(doc["merged"]) == (len(L12) - 1) // 3 and len(split) == 1
            and split[0]["source"] == "4,4" and len(split[0]["pieces"]) == 3
            and _close(split[0]["dimension"], q12[fixed] / 3)
            and _close(doc["global_dim"]["input_sum"], total)
            and _close(doc["global_dim"]["output_sum"], total / 3) and doc["graph"] is None,
            "values differ from the level-12 closed forms")
    if "graph_identify" in o and "graph_identify_json" in o:
        doc = _doc(o["graph_identify_json"])
        has("graph_identify", doc["class"] == f"A_{N}" and _close(doc["pf_norm"], want)
            and (doc["even"], doc["odd"], doc["edges"]) == ((N + 1) // 2, N // 2, N - 1),
            f"chain of {N} identified as {doc}")
        has("graph_identify", _lines(o["graph_identify"]) == [
            f"vertices: {doc['even']} even, {doc['odd']} odd", f"edges: {doc['edges']}",
            f"pf norm: {_fmt(doc['pf_norm'])}", f"class: {doc['class']}"], "text report disagrees with --json")
    if "graph_fold" in o and "graph_fold_json" in o:
        doc = _doc(o["graph_fold_json"])
        has("graph_fold", doc["class"] == f"D_{2 * n}" and len(doc["even"]) + len(doc["odd"]) == 2 * n
            and _close(doc["pf_norm"], want) and _close(doc["input_pf_norm"], want),
            f"fold of A_{N} is {doc['class']}")
        has("graph_fold", _lines(o["graph_fold"]) == [
            f"pf norm: {_fmt(doc['input_pf_norm'])} -> {_fmt(doc['pf_norm'])}",
            f"folded: {len(doc['even'])} even, {len(doc['odd'])} odd", f"class: {doc['class']}"],
            "text report disagrees with --json")
    if "su3_fuse" in o and "su3_fuse_json" in o:
        doc = _doc(o["su3_fuse_json"])
        xa, ya = (tuple(int(t) for t in s.split(",")) for s in (x, y))
        formula = oracles.su3_fusion(xa, ya, (w12[:, 0], w12[:, 1]), 12)
        expected = {f"{a},{b}": int(c) for (a, b), c in zip(L12, formula) if c}
        has("su3_fuse", doc == expected, f"{x} x {y} differs from the formula")
        has("su3_fuse", _lines(o["su3_fuse"]) == [f"{lab}: {c}" for lab, c in doc.items()],
            "text report disagrees with --json")
    if "su3_m" in o and "su3_m_json" in o:
        doc = _doc(o["su3_m_json"])
        g = math.gcd(k + 1, 3)
        has("su3_m", doc == {"k": k, "level": 3 * k, "m": k + 1, "n": 3, "gcd": g,
                             "verdict": "Trivial" if g == 1 else "Inconclusive"}, f"report {doc}")
        has("su3_m", _lines(o["su3_m"]) == [f"level = {3 * k}", f"m = {k + 1}", "n = 3", f"gcd(m, n) = {g}",
                                           f"verdict: {doc['verdict']}"], "text report disagrees with --json")
    if "catalog_list" in o and "catalog_list_json" in o:
        names = _catalog_names()
        has("catalog_list", _doc(o["catalog_list_json"]) == {"names": names}
            and _lines(o["catalog_list"]) == names, "names differ from the expected list")
    if "catalog_run" in o and "catalog_run_json" in o:
        rep = _doc(o["catalog_run_json"])["reports"][0]
        checks = {c["check"]: c["detail"] for c in rep["checks"]}
        has("catalog_run", rep["passed"] and checks.get("folded graph") == f"D_{2 * n}"
            and checks.get("self-coupling count") == "m = 1", f"A_{N} report {checks}")
        has("catalog_run", _lines(o["catalog_run"]) == [f"== A{N}: pass =="] + [
            f"{'PASS' if c['passed'] else 'FAIL'}  {c['check']}: {c['detail']}" for c in rep["checks"]],
            "text report disagrees with --json")


_STDERR_PREFIX = {1: "error: ", 2: "unsupported structure: ", 3: ""}


def cli_check(inputs: dict, outputs: dict) -> list[str]:
    """A command ends either with a report on stdout or with one line on stderr."""
    errors: list[str] = []
    for name, args, expect in inputs["script"]:
        out = outputs.get(name)
        if out is None:
            continue
        err = out["stderr"].splitlines()
        if expect == 0 or out["stdout"]:
            _want(errors, not err, f"{name}: exit {expect} with a report and stderr {err[:2]}")
        else:
            _want(errors, len(err) == 1 and err[0].startswith(_STDERR_PREFIX[expect]),
                  f"{name}: exit {expect} should print one stderr line, got {err[:3]}")
    _check_cli_outputs(inputs, outputs, errors)
    return errors


WORKLOADS = {
    "catalog": {"setup": catalog_setup, "ops": catalog_ops, "check": catalog_check, "rss": "self"},
    "d2n": {"setup": d2n_setup, "ops": d2n_ops, "check": d2n_check, "rss": "self"},
    "cli": {"setup": cli_setup, "ops": cli_ops, "check": cli_check, "rss": "children"},
}
