"""The golden corpus: command lines whose output is pinned byte for byte.

Each case is a command line run through ``orbifusion.cli.main`` in
process, from a directory holding the input files that
:func:`write_inputs` makes under ``work/``. The corpus keeps each case's
stdout in ``<name>.out`` and its exit code and stderr in ``index.json``,
along with the numpy version it was made with. ``tests/test_golden.py``
compares every case against it.

An intended change of output reruns this script from the repository
root and names every file that changed::

    PYTHONPATH=src python -m tests.golden.regen
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from orbifusion import catalog, cli, fileio, graphs, rings, su3

HERE = os.path.dirname(os.path.abspath(__file__))
INDEX = os.path.join(HERE, "index.json")
W = "work"

# the command lines of the benchmark's cli workload, with its seeded
# choices fixed: chains of 4n - 3 vertices, su(3) level 3k, and two
# level-12 weights
N_CHAIN, K, X, Y = 7, 4, "3,2", "1,4"


def _cases() -> list[tuple[str, list[str]]]:
    e6a = [f"{W}/e6affine.ring", "--alpha", "alpha", "--assume-loi-trivial", "--graph", f"{W}/e6affine.graph"]
    fold = ["graph", "fold", f"{W}/chain.graph", "--perm", f"{W}/flip.perm", "--order", "2"]
    chain = f"A{4 * N_CHAIN - 3}"
    return [
        ("catalog_run_all", ["catalog", "run", "--all"]),
        ("catalog_run_all_json", ["catalog", "run", "--all", "--json"]),
        ("validate_l15", ["validate", f"{W}/l15.ring"]),
        ("validate_nounit_json", ["validate", f"{W}/nounit.ring", "--json"]),
        ("dims_e6affine", ["dims", f"{W}/e6affine.ring"]),
        ("dims_l12_json", ["dims", f"{W}/l12.ring", "--json"]),
        ("obstruction_e6", ["obstruction", f"{W}/e6.ring", "--alpha", "alpha"]),
        ("obstruction_l12_json", ["obstruction", f"{W}/l12.ring", "--alpha", "12,0", "--rho", "4,4", "--json"]),
        ("orbifold_e6affine", ["orbifold"] + e6a),
        ("orbifold_e6affine_json", ["orbifold"] + e6a + ["--json"]),
        ("orbifold_e6affine_json_again", ["orbifold"] + e6a + ["--json"]),
        ("orbifold_request_l12_json", ["orbifold", f"{W}/l12.request", "--json"]),
        ("orbifold_e6_unsettled", ["orbifold", f"{W}/e6.ring", "--alpha", "alpha", "--assume-loi-trivial"]),
        ("orbifold_fixed_neighbours", ["orbifold", f"{W}/z2.ring", "--alpha", "a", "--rho", "r",
                                       "--assume-loi-trivial", "--graph", f"{W}/star.graph",
                                       "--perm", f"{W}/star.perm"]),
        ("graph_identify", ["graph", "identify", f"{W}/chain.graph"]),
        ("graph_identify_json", ["graph", "identify", f"{W}/chain.graph", "--json"]),
        ("graph_fold", fold),
        ("graph_fold_json", fold + ["--json"]),
        ("su3_fuse", ["su3", "fuse", "--level", "12", X, Y]),
        ("su3_fuse_json", ["su3", "fuse", "--level", "12", X, Y, "--json"]),
        ("su3_m", ["su3", "m", "--k", str(K)]),
        ("su3_m_json", ["su3", "m", "--k", str(K), "--json"]),
        ("catalog_list", ["catalog", "list"]),
        ("catalog_list_json", ["catalog", "list", "--json"]),
        ("catalog_run", ["catalog", "run", chain]),
        ("catalog_run_json", ["catalog", "run", chain, "--json"]),
        ("validate_not_json", ["validate", f"{W}/notjson.ring"]),
        ("orbifold_decimal_phase", ["orbifold", f"{W}/e6.ring", "--alpha", "alpha", "--obstruction", "0.5"]),
        ("validate_constant_2_70", ["validate", f"{W}/big.ring"]),
        # gate failures: (A2) not attested, a named rho that the action
        # moves, and an (A3) scan that finds no label
        ("orbifold_e6affine_unattested", ["orbifold", f"{W}/e6affine.ring", "--alpha", "alpha"]),
        ("orbifold_e6affine_rho_moved", ["orbifold", f"{W}/e6affine.ring", "--alpha", "alpha",
                                         "--rho", "id", "--assume-loi-trivial"]),
        ("obstruction_su2_level6_scan", ["obstruction", f"{W}/su2_6.ring", "--alpha", "rho6"]),
    ]


CASES = _cases()


def _hand_ring(labels, unit, triples):
    return rings.FusionRing.from_labels(
        labels, unit=unit, dual={lab: lab for lab in labels}, triples=triples
    )


def write_inputs(root: str, su3_ring=su3.su3_ring) -> None:
    """Write every input file of the corpus under ``root/work``; the
    alcove rings come from ``su3_ring``."""
    e6a, e6 = catalog.build("E6affine"), catalog.build("E6")
    chain = 4 * N_CHAIN - 3
    z2 = [
        ("e", "e", "e", 1), ("e", "a", "a", 1), ("a", "e", "a", 1), ("a", "a", "e", 1),
        ("e", "r", "r", 1), ("r", "e", "r", 1), ("a", "r", "r", 1), ("r", "a", "r", 1),
        ("r", "r", "e", 1), ("r", "r", "a", 1), ("r", "r", "r", 1),
    ]
    # x is self-dual, yet x * x lacks the unit: the dual-unit axiom fails
    nounit = [("e", "e", "e", 1), ("e", "x", "x", 1), ("x", "e", "x", 1), ("x", "x", "x", 1)]
    texts = {
        "l12.ring": fileio.dump_ring(su3_ring(12)),
        "l15.ring": fileio.dump_ring(su3_ring(15)),
        "e6affine.ring": fileio.dump_ring(e6a.ring),
        "e6.ring": fileio.dump_ring(e6.ring),
        "z2.ring": fileio.dump_ring(_hand_ring(["e", "a", "r"], "e", z2)),
        "nounit.ring": fileio.dump_ring(_hand_ring(["e", "x"], "e", nounit)),
        "su2_6.ring": fileio.dump_ring(catalog.su2_even_ring(6)),
        "e6affine.graph": fileio.dump_graph(e6a.graph),
        "chain.graph": fileio.dump_graph(catalog.chain_graph(chain)),
        "star.graph": fileio.dump_graph(graphs.BipartiteGraph.from_edges(
            ["c"], ["l", "m", "r"], [("c", "l", 1), ("c", "m", 1), ("c", "r", 1)])),
        "flip.perm": json.dumps({f"rho{t}": f"rho{chain - 1 - t}" for t in range(chain)}),
        "star.perm": json.dumps({"c": "c", "m": "m", "l": "r", "r": "l"}),
        "l12.request": json.dumps({"format": "orbifusion/1", "ring": "l12.ring", "alpha": "12,0",
                                   "rho": "4,4", "loi_trivial": True}),
        "notjson.ring": '{"format": "orbifusion/1", "labels": ["id"],',
        "big.ring": json.dumps({"format": "orbifusion/1", "labels": ["id"], "unit": "id",
                                "dual": {"id": "id"}, "N": [["id", "id", "id", 2**70]]}),
    }
    work = os.path.join(root, W)
    os.makedirs(work, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command line, run in process
    from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def load_index() -> dict:
    with open(INDEX, encoding="utf-8") as fh:
        return json.load(fh)


def expected_stdout(name: str) -> str:
    with open(os.path.join(HERE, name + ".out"), encoding="utf-8", newline="") as fh:
        return fh.read()


def main() -> int:
    old = load_index() if os.path.exists(INDEX) else {"cases": {}}
    index = {"numpy": np.__version__, "cases": {}}
    changed = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        write_inputs(root)
        os.chdir(root)
        try:
            for name, argv in CASES:
                code, out, err = run(argv)
                index["cases"][name] = {"argv": argv, "code": code, "stderr": err}
                path = os.path.join(HERE, name + ".out")
                if old["cases"].get(name) != index["cases"][name]:
                    changed.append("index.json:" + name)
                if not os.path.exists(path) or expected_stdout(name) != out:
                    changed.append(name + ".out")
                    with open(path, "w", encoding="utf-8", newline="") as fh:
                        fh.write(out)
        finally:
            os.chdir(cwd)
    with open(INDEX, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(index, indent=2) + "\n")
    for what in changed:
        print("changed:", what)
    return 0


if __name__ == "__main__":
    sys.exit(main())
