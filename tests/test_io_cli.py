import json
import os
import subprocess
import sys

import pytest

import orbifusion
from orbifusion import (
    BipartiteGraph,
    FusionRing,
    ObstructionValue,
    SchemaError,
    admissible_weights,
    path_graph,
    validate_ring,
    weight_label,
)
from orbifusion.catalog import build
from orbifusion.cli import main
from orbifusion.fileio import (
    dump_graph,
    dump_json,
    dump_ring,
    fmt_float,
    graph_dot,
    is_request,
    load_json,
    load_perm,
    load_request,
    parse_graph,
    parse_request,
    parse_ring,
)
from orbifusion.rings import left_permutation

from .oracles import broken_z3_ring, cyclic_ring, kac_walton, su3_ring
from .test_cli_fuzz import _COMMANDS, _PERM, run_and_check


def _ring_doc():
    return {
        "format": "orbifusion/1",
        "labels": ["e", "a"],
        "unit": "e",
        "dual": {"e": "e", "a": "a"},
        "N": [
            ["e", "e", "e", 1],
            ["e", "a", "a", 1],
            ["a", "e", "a", 1],
            ["a", "a", "e", 1],
        ],
    }


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


@pytest.fixture
def e6affine_files(tmp_path):
    entry = build("E6affine")
    ring = _write(tmp_path, "e6affine.ring", dump_ring(entry.ring))
    graph = _write(tmp_path, "e6affine.graph", dump_graph(entry.graph))
    return entry, ring, graph


@pytest.fixture
def e6_ring_file(tmp_path):
    return _write(tmp_path, "e6.ring", dump_ring(build("E6").ring))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_ring_dump_is_byte_stable(e6affine_files):
    entry, _, _ = e6affine_files
    text = dump_ring(entry.ring)
    again = dump_ring(parse_ring(json.loads(text)))
    assert text == again


def test_ring_dump_golden():
    want = (
        "{\n"
        '  "format": "orbifusion/1",\n'
        '  "labels": ["g0", "g1"],\n'
        '  "unit": "g0",\n'
        '  "dual": {"g0": "g0", "g1": "g1"},\n'
        '  "N": [\n'
        '    ["g0", "g0", "g0", 1],\n'
        '    ["g0", "g1", "g1", 1],\n'
        '    ["g1", "g0", "g1", 1],\n'
        '    ["g1", "g1", "g0", 1]\n'
        "  ]\n"
        "}\n"
    )
    assert dump_ring(cyclic_ring(2)) == want


def test_graph_dump_golden_and_roundtrip():
    g = path_graph(3)
    want = (
        "{\n"
        '  "format": "orbifusion/1",\n'
        '  "even": ["v0", "v2"],\n'
        '  "odd": ["v1"],\n'
        '  "edges": [\n'
        '    ["v0", "v1", 1],\n'
        '    ["v2", "v1", 1]\n'
        "  ]\n"
        "}\n"
    )
    text = dump_graph(g)
    assert text == want
    assert dump_graph(parse_graph(json.loads(text))) == text


def test_ring_schema_failures():
    mutations = []

    def case(apply):
        doc = _ring_doc()
        apply(doc)
        mutations.append(doc)

    case(lambda d: d.update(format="orbifusion/2"))
    case(lambda d: d.pop("N"))
    case(lambda d: d.update(extra=1))
    case(lambda d: d.update(N={"e": 1}))
    case(lambda d: d.update(N=[["e", "e", "e"]]))
    case(lambda d: d.update(N=[["e", "e", "e", 0]]))
    case(lambda d: d.update(N=[["e", "e", "e", True]]))
    case(lambda d: d.update(N=[["e", "e", "e", "1"]]))
    case(lambda d: d.update(labels=["e", 5]))
    case(lambda d: d.update(dual=[["e", "e"]]))
    case(lambda d: d.update(unit="z"))
    case(lambda d: d.update(N=d["N"] + [["e", "e", "z", 1]]))
    for doc in mutations:
        with pytest.raises(SchemaError):
            parse_ring(doc)


def test_graph_schema_failures():
    base = json.loads(dump_graph(path_graph(3)))
    bad = []
    for apply in (
        lambda d: d.pop("odd"),
        lambda d: d.update(junk=[]),
        lambda d: d.update(edges=[["v0", "v1"]]),
        lambda d: d.update(edges=[["v0", "v1", 0]]),
        lambda d: d.update(edges=[["v0", "v1", 1.5]]),
        lambda d: d.update(edges=[["v1", "v0", 1]]),
        lambda d: d.update(even=["v0", "v0"]),
    ):
        doc = json.loads(json.dumps(base))
        apply(doc)
        bad.append(doc)
    for doc in bad:
        with pytest.raises(SchemaError):
            parse_graph(doc)


def test_load_json_failures(tmp_path):
    with pytest.raises(SchemaError):
        load_json(str(tmp_path / "absent.json"))
    broken = _write(tmp_path, "broken.json", "{not json")
    with pytest.raises(SchemaError):
        load_json(broken)
    listfile = _write(tmp_path, "list.json", "[1, 2]\n")
    with pytest.raises(SchemaError):
        load_json(listfile)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"labels": ["\xe9"]}')
    with pytest.raises(SchemaError, match="is not UTF-8 text"):
        load_json(str(latin))
    deep = _write(tmp_path, "deep.json", '{"N": ' + "[" * 100_000)
    with pytest.raises(SchemaError, match="is not valid JSON: maximum recursion depth"):
        load_json(deep)


def test_files_are_read_as_text_mode_reads_them(tmp_path):
    # the reader decodes a memory map of the file, or the file's bytes
    # where it cannot be mapped; either way it must give text mode's
    # string, newlines translated, or text mode's decode error
    from orbifusion.fileio import _read_text

    contents = [b"", b"{}", b'{"a": 1}\r\n', b"a\rb\r\nc\n\r\n\r", "\ufeff\u00e9\u03c1\n".encode(), b"\xe9x", b"ok\n\xff"]
    for t, data in enumerate(contents):
        path = tmp_path / f"{t}.json"
        path.write_bytes(data)
        try:
            with open(path, encoding="utf-8") as fh:
                want = fh.read()
        except UnicodeDecodeError as exc:
            with pytest.raises(SchemaError) as err:
                _read_text(str(path))
            assert str(err.value) == f"{path} is not UTF-8 text: {exc}"
        else:
            assert _read_text(str(path)) == want, data
    for path in (tmp_path, tmp_path / "absent.json"):
        with pytest.raises(OSError) as want:
            open(path, encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            _read_text(str(path))
        assert str(err.value) == f"cannot read {path}: {want.value}"


def test_reading_a_file_makes_no_copy_of_its_bytes(tmp_path):
    # text mode held the file's bytes and its string at once, twice the
    # file; the string alone is the file's size for ASCII text
    import tracemalloc

    from orbifusion.fileio import _read_text

    path = tmp_path / "big.json"
    size = 4_000_000
    path.write_bytes(b" " * (size - 2) + b"{}")
    tracemalloc.start()
    try:
        text = _read_text(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == size and peak < 1.25 * size


def test_perm_files(tmp_path):
    ok = _write(tmp_path, "ok.perm", '{"a": "b", "b": "a"}\n')
    assert load_perm(ok) == {"a": "b", "b": "a"}
    bad = _write(tmp_path, "bad.perm", '{"a": 3}\n')
    with pytest.raises(SchemaError):
        load_perm(bad)


def test_dot_golden():
    g = BipartiteGraph.from_edges(["a"], ["b"], [("a", "b", 2)])
    want = (
        "graph principal {\n"
        '  "a" [shape=circle];\n'
        '  "b" [shape=square];\n'
        '  "a" -- "b" [label="2"];\n'
        "}\n"
    )
    assert graph_dot(g) == want


def test_float_and_json_formatting():
    assert fmt_float(3.0) == "3"
    assert fmt_float(1.0 + 3 ** 0.5) == "2.732050808"
    text = dump_json({"b": 1, "a": [1, 2]})
    assert text.endswith("\n")
    assert text.index('"b"') < text.index('"a"')


# ---------------------------------------------------------------------------
# request documents
# ---------------------------------------------------------------------------

def test_request_with_inline_ring():
    doc = {
        "format": "orbifusion/1",
        "ring": _ring_doc(),
        "alpha": "a",
        "loi_trivial": True,
    }
    assert is_request(doc) and not is_request(_ring_doc())
    req = parse_request(doc)
    assert req.ring.size == 2
    assert req.alpha == "a" and req.rho is None
    assert req.loi_trivial is True and req.obstruction is None


def test_request_resolves_ring_paths_relative_to_itself(tmp_path):
    (tmp_path / "inner").mkdir()
    _write(tmp_path / "inner", "r.ring", dump_json(_ring_doc()))
    reqfile = _write(
        tmp_path / "inner",
        "go.request",
        dump_json(
            {
                "format": "orbifusion/1",
                "ring": "r.ring",
                "alpha": "a",
                "rho": "e",
                "loi_trivial": False,
            }
        ),
    )
    req = load_request(reqfile)
    assert req.ring.size == 2 and req.rho == "e" and req.loi_trivial is False


def test_request_normalizes_the_obstruction():
    doc = {
        "format": "orbifusion/1",
        "ring": _ring_doc(),
        "alpha": "a",
        "loi_trivial": True,
        "obstruction": {"j": -1, "n": 2},
    }
    assert parse_request(doc).obstruction == ObstructionValue(1, 2)


def test_request_schema_failures():
    good = {
        "format": "orbifusion/1",
        "ring": _ring_doc(),
        "alpha": "a",
        "loi_trivial": True,
    }
    for apply in (
        lambda d: d.update(loi_trivial="yes"),
        lambda d: d.update(ring=7),
        lambda d: d.update(obstruction={"j": 0}),
        lambda d: d.update(obstruction={"j": 0, "n": 0}),
        lambda d: d.update(obstruction={"j": 0, "n": 2, "why": "x"}),
        lambda d: d.pop("alpha"),
    ):
        doc = dict(good)
        apply(doc)
        with pytest.raises(SchemaError):
            parse_request(doc)


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def test_cli_validate(e6affine_files, capsys):
    _, ring, _ = e6affine_files
    assert main(["validate", ring]) == 0
    out = capsys.readouterr().out
    assert "axioms: pass" in out


def test_cli_validate_reports_failures(tmp_path, capsys):
    ring = _write(tmp_path, "broken.ring", dump_ring(broken_z3_ring()))
    assert main(["validate", ring]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "associativity" in out


def test_a_file_of_an_alcove_ring_is_never_certified(tmp_path, capsys, monkeypatch):
    # su3_ring's validation mark stays with the ring it built: a file of
    # that ring reads back unmarked and is scanned in full, and one with a
    # constant raised fails as it did before the builder marked its rings
    from orbifusion import rings
    from orbifusion.fileio import load_ring

    ring = su3_ring(9)
    path = _write(tmp_path, "l9.ring", dump_ring(ring))
    loaded = load_ring(path)
    assert ring._validated and not loaded._validated
    scans = []
    scan = rings.associativity_violations
    monkeypatch.setattr(
        rings, "associativity_violations", lambda *a, **kw: scans.append(a[3]) or scan(*a, **kw)
    )
    assert validate_ring(loaded).passed and scans == [55]
    ptr, idx, val = ring.csr()
    val = val.copy()
    val[len(val) // 2] += 1
    raised = FusionRing.from_csr(ring.labels, ring.unit, ring.dual, ptr, idx, val)
    path = _write(tmp_path, "raised.ring", dump_ring(raised))
    assert main(["validate", path]) == 1
    assert scans == [55, 55]
    assert capsys.readouterr() == (
        "ring: 55 labels, 18469 stored constants\n"
        "FAIL frobenius-reciprocity: (23, 42, 25, 2, 3, 2), (25, 25, 42, 3, 2, 2), (42, 23, 25, 2, 2, 3)\n"
        "FAIL associativity: (1, 19, 25, 42, 6, 5), (1, 24, 25, 42, 6, 5), (1, 25, 25, 33, 7, 8), +3 more\n",
        "",
    )


def test_cli_missing_file_is_a_schema_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.ring")]) == 3
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "dims"])
def test_cli_oversized_constant_is_a_schema_error(tmp_path, capsys, command):
    doc = _ring_doc()
    doc["labels"], doc["unit"], doc["dual"] = ["e"], "e", {"e": "e"}
    doc["N"] = [["e", "e", "e", 2**70]]
    path = _write(tmp_path, "big.ring", json.dumps(doc))
    assert main([command, path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("schema error:") and err.count("\n") == 1


@pytest.mark.parametrize("m", [2**63, 2**70])
@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "identify", "{graph}"],
        ["graph", "fold", "{graph}", "--perm", "{perm}", "--order", "2"],
        ["orbifold", "{ring}", "--alpha", "rho4", "--assume-loi-trivial", "--graph", "{graph}"],
    ],
)
def test_cli_oversized_multiplicity_is_a_schema_error(tmp_path, capsys, argv, m):
    entry = build("A5")
    doc = json.loads(dump_graph(entry.graph))
    doc["edges"][0][2] = m
    fill = {
        "graph": _write(tmp_path, "big.graph", json.dumps(doc)),
        "perm": _write(tmp_path, "flip.perm", dump_json(_PERM)),
        "ring": _write(tmp_path, "a5.ring", dump_ring(entry.ring)),
    }
    assert main([part.format(**fill) for part in argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "schema error: multiplicity of (0, 0) must stay below 2**63\n"


def test_dims_and_orbifold_report_one_global_dimension(tmp_path, capsys):
    ring = _write(tmp_path, "l12.ring", dump_ring(su3_ring(12)))
    assert main(["dims", ring, "--json"]) == 0
    dims = json.loads(capsys.readouterr().out)
    argv = ["orbifold", ring, "--alpha", "12,0", "--rho", "4,4", "--assume-loi-trivial", "--json"]
    assert main(argv) == 0
    law = json.loads(capsys.readouterr().out)["global_dim"]
    # the two once summed the same squares in different orders and
    # differed in the last bits
    assert dims["global"] == law["input_sum"] == 34117.842329930594


@pytest.mark.parametrize(
    "argv", [["validate", "{}"], ["dims", "{}", "--json"], ["graph", "identify", "{}"]]
)
def test_cli_deep_nesting_is_a_schema_error(tmp_path, capsys, argv):
    # json.loads recurses once per nested array
    path = _write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    assert main([part.format(path) for part in argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"schema error: {path} is not valid JSON: maximum recursion depth")
    assert err.count("\n") == 1


def test_cli_refuses_a_ring_past_the_label_cap(tmp_path, capsys):
    labels = [f"x{t}" for t in range(4097)]
    doc = {
        "format": "orbifusion/1",
        "labels": labels,
        "unit": "x0",
        "dual": {lab: lab for lab in labels},
        "N": [["x0", "x0", "x0", 1]],
    }
    path = _write(tmp_path, "wide.ring", json.dumps(doc))
    assert main(["validate", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "schema error: a fusion ring may have at most 4096 labels, got 4097\n"


def test_cli_dims(e6affine_files, capsys):
    _, ring, _ = e6affine_files
    assert main(["dims", ring]) == 0
    assert capsys.readouterr().out == (
        "id: 1\nalpha: 1\nalpha2: 1\nrho: 3\nglobal: 12\n"
    )


def _degenerate_rings():
    """Tables whose Perron-Frobenius vector has a unit component of 0,
    with a label to try as alpha."""
    lone = {
        "format": "orbifusion/1",
        "labels": ["a", "b"],
        "unit": "a",
        "dual": {"a": "a", "b": "b"},
        "N": [["b", "b", "b", 1]],
    }
    # E6affine with no row whose second label is the unit
    e6affine = json.loads(dump_ring(build("E6affine").ring))
    e6affine["N"] = [row for row in e6affine["N"] if row[1] != "id"]
    return [(lone, "b"), (e6affine, "alpha")]


def test_ring_commands_end_cleanly_on_degenerate_tables(tmp_path):
    # dividing by the zero unit component would give NaN and infinity,
    # which --json cannot write, and numpy warnings on stderr
    graph = _write(tmp_path, "e6affine.graph", dump_graph(build("E6affine").graph))
    perm = _write(tmp_path, "flip.perm", dump_json(_PERM))
    for doc, alpha in _degenerate_rings():
        request = {"format": "orbifusion/1", "ring": doc, "alpha": alpha, "loi_trivial": True}
        fill = {
            "ring": _write(tmp_path, "ring.json", dump_json(doc)),
            "request": _write(tmp_path, "request.json", dump_json(request)),
            "alpha": alpha,
            "graph": graph,
            "perm": perm,
        }
        for command in _COMMANDS:
            if "{ring}" in command or "{request}" in command:
                argv = [part.format(**fill) for part in command]
                code, out, err = run_and_check(argv)
                if command[0] == "dims":
                    assert (code, out) == (1, ""), argv
                    assert err == "error: dimension vector failed positivity checks\n", argv


def test_dims_of_an_empty_table_ends_in_one_line_without_warnings(tmp_path):
    # M is zero: the power iteration's first step passes, and the steps
    # after it in its block divide by zero
    doc = {"format": "orbifusion/1", "labels": ["e"], "unit": "e", "dual": {"e": "e"}, "N": []}
    path = _write(tmp_path, "empty.ring", dump_json(doc))
    code, out, err = run_and_check(["dims", path])
    assert (code, out, err) == (1, "", "error: dimensions do not satisfy the product equations\n")


def test_cli_obstruction_report_is_exact(e6_ring_file, capsys):
    assert main(["obstruction", e6_ring_file, "--alpha", "alpha"]) == 0
    assert capsys.readouterr().out == (
        "alpha: alpha, order 2\n"
        "rho: rho\n"
        "m = 2\n"
        "n = 2\n"
        "gcd(m, n) = 2\n"
        "verdict: Inconclusive\n"
    )


@pytest.mark.parametrize(
    "case, alpha",
    [
        ("E6affine/bump", "alpha"),
        ("su3_6/non_involutive_dual", "6,0"),
        ("su3_9/non_involutive_dual", "9,0"),
    ],
)
def test_cli_obstruction_refuses_a_ring_that_fails_validation(tmp_path, capsys, case, alpha):
    # the bumped E6affine table has N[rho, id, rho] raised; the gcd test
    # certified it "Trivial" with exit 0 before the ring was validated
    from .test_symmetry import _CASES

    ring = next(r for name, r, _ in _CASES if name == case)
    report = validate_ring(ring)
    assert case != "E6affine/bump" or str(report).startswith("unit: (3, 0);")
    path = _write(tmp_path, "broken.ring", dump_ring(ring))
    for json_flag in ([], ["--json"]):
        assert main(["obstruction", path, "--alpha", alpha] + json_flag) == 1
        assert capsys.readouterr() == ("", f"error: ring fails validation: {report}\n")


def _associativity_only_break():
    """The level-9 alcove ring with N[6,3; 6,1; 0,7] = 1 moved to the
    output 2,0 (of equal dimension), the move closed under both
    Frobenius relations and fusion by alpha = (9,0): the table keeps the
    unit, the duals, both relations and the action's equivariance, and
    fails associativity alone."""
    base = su3_ring(9)
    at, dual = base.index, base.dual
    p = left_permutation(base, at("9,0"))

    def orbit(t):
        seen, todo = {t}, [t]
        while todo:
            i, j, k = todo.pop()
            for u in ((dual[i], k, j), (k, dual[j], i), (p[i], j, p[k])):
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return seen

    take = orbit((at("6,3"), at("6,1"), at("0,7")))
    give = orbit((at("6,3"), at("6,1"), at("2,0")))
    N = {(i, j, k): v for i, j, k, v in base.iter_entries()}
    assert len(take) == len(give) == 54 and not take & give
    assert all(N.get(t, 0) >= 1 for t in take)
    for t in take:
        N[t] -= 1
    for t in give:
        N[t] = N.get(t, 0) + 1
    return FusionRing(base.labels, base.unit, base.dual, N)


def test_cli_orbifold_refuses_a_ring_that_fails_validation(tmp_path, capsys):
    # before orbifold validated its ring, this table passed the action's
    # equivariance and the dimension law and the command exited 0
    ring = _associativity_only_break()
    report = validate_ring(ring)
    assert [f.axiom for f in report.failures] == ["associativity"]
    path = _write(tmp_path, "broken.ring", dump_ring(ring))
    assert main(["obstruction", path, "--alpha", "9,0"]) == 1
    refused = capsys.readouterr()
    assert refused == ("", f"error: ring fails validation: {report}\n")
    # a bare ring file, a request naming it and a request holding it inline
    inputs = [[path, "--alpha", "9,0", "--assume-loi-trivial"]]
    for name, field in (("path", "broken.ring"), ("inline", json.loads(dump_ring(ring)))):
        request = {"format": "orbifusion/1", "ring": field, "alpha": "9,0", "loi_trivial": True}
        inputs.append([_write(tmp_path, f"{name}.request", dump_json(request))])
    for args in inputs:
        for json_flag in ([], ["--json"]):
            assert main(["orbifold"] + args + json_flag) == 1, args
            assert capsys.readouterr() == refused, args


def test_cli_orbifold_full_pipeline(e6affine_files, tmp_path, capsys):
    _, ring, graph = e6affine_files
    dot = str(tmp_path / "folded.dot")
    code = main(
        [
            "orbifold",
            ring,
            "--alpha",
            "alpha",
            "--assume-loi-trivial",
            "--graph",
            graph,
            "--dot",
            dot,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "m = 2, n = 3, verdict Trivial" in out
    assert "obstruction: 1 (certified by the gcd test)" in out
    assert "sectors: merged 1, pieces 3, p = 3" in out
    assert "rho -> rho#0, rho#1, rho#2  d = 1" in out
    assert "global dimension 12 -> 4 (target 4, rel err 0) ok" in out
    assert "recognized: D_4^(1)" in out
    assert f"wrote {dot}" in out
    with open(dot, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("graph principal {")
    assert '"rho#2" [shape=circle];' in text


def test_cli_orbifold_requires_the_attestation(e6affine_files, capsys):
    _, ring, _ = e6affine_files
    assert main(["orbifold", ring, "--alpha", "alpha"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: assumption (A2) fails: analytic triviality not attested; "
        "it cannot be computed here\n"
    )


def test_cli_orbifold_requires_alpha_on_bare_rings(e6affine_files, capsys):
    _, ring, _ = e6affine_files
    assert main(["orbifold", ring, "--assume-loi-trivial"]) == 1
    assert "--alpha is required" in capsys.readouterr().err


def test_cli_orbifold_inconclusive_needs_a_value(e6_ring_file, capsys):
    code = main(["orbifold", e6_ring_file, "--alpha", "alpha", "--assume-loi-trivial"])
    assert code == 1
    assert "does not certify triviality" in capsys.readouterr().err


def test_cli_orbifold_with_supplied_obstruction(e6_ring_file, tmp_path, capsys):
    graph = _write(tmp_path, "e6.graph", dump_graph(build("E6").graph))
    code = main(
        [
            "orbifold",
            e6_ring_file,
            "--alpha",
            "alpha",
            "--assume-loi-trivial",
            "--obstruction",
            "1/2",
            "--graph",
            graph,
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "obstruction: -1 (supplied)" in out
    assert "sectors: merged 1, pieces 1, p = 1" in out
    assert "no graph change predicted; folded graph not computed" in out
    assert "global dimension" not in out


_CONTRADICTED = "error: obstruction -1 contradicts the gcd test: gcd(1, 2) = 1 certifies the trivial value\n"


def test_cli_orbifold_refuses_an_obstruction_the_gcd_test_contradicts(tmp_path, capsys):
    ring = _write(tmp_path, "a5.ring", dump_ring(build("A5").ring))
    argv = ["orbifold", ring, "--alpha", "rho4", "--assume-loi-trivial"]
    assert main(argv + ["--obstruction", "1/2"]) == 1
    assert capsys.readouterr() == ("", _CONTRADICTED)
    assert main(argv + ["--obstruction", "0/2"]) == 0
    assert "obstruction: 1 (supplied)" in capsys.readouterr().out


def test_cli_request_with_a_contradicted_obstruction_is_refused(tmp_path, capsys):
    _write(tmp_path, "a5.ring", dump_ring(build("A5").ring))
    req = _write(
        tmp_path,
        "a5.request",
        dump_json(
            {
                "format": "orbifusion/1",
                "ring": "a5.ring",
                "alpha": "rho4",
                "rho": "rho2",
                "loi_trivial": True,
                "obstruction": {"j": 1, "n": 2},
            }
        ),
    )
    assert main(["orbifold", req, "--json"]) == 1
    assert capsys.readouterr() == ("", _CONTRADICTED)


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "run", "E6affine"],
        ["obstruction", "RING", "--alpha", "alpha"],
        ["orbifold", "RING", "--alpha", "alpha", "--assume-loi-trivial", "--json"],
    ],
)
def test_cli_checks_the_assumptions_once(e6affine_files, monkeypatch, capsys, argv):
    from orbifusion import orbifold

    calls = []
    check = orbifold.check_assumptions
    monkeypatch.setattr(orbifold, "check_assumptions", lambda inp: calls.append(1) or check(inp))
    _, ring, _ = e6affine_files
    assert main([ring if a == "RING" else a for a in argv]) == 0
    assert len(calls) == 1


def test_cli_orbifold_dot_needs_a_fold(e6_ring_file, tmp_path, capsys):
    graph = _write(tmp_path, "e6.graph", dump_graph(build("E6").graph))
    code = main(
        [
            "orbifold",
            e6_ring_file,
            "--alpha",
            "alpha",
            "--assume-loi-trivial",
            "--obstruction",
            "1/2",
            "--graph",
            graph,
            "--dot",
            str(tmp_path / "x.dot"),
        ]
    )
    assert code == 1
    assert "--dot needs a folded graph" in capsys.readouterr().err


def test_cli_orbifold_from_a_request_document(e6affine_files, tmp_path, capsys):
    entry, ring, _ = e6affine_files
    req = _write(
        tmp_path,
        "go.request",
        dump_json(
            {
                "format": "orbifusion/1",
                "ring": "e6affine.ring",
                "alpha": "alpha",
                "rho": "rho",
                "loi_trivial": True,
            }
        ),
    )
    assert main(["orbifold", req]) == 0
    assert "sectors: merged 1, pieces 3, p = 3" in capsys.readouterr().out
    assert main(["orbifold", req, "--alpha", "alpha"]) == 1
    assert "a request document already fixes" in capsys.readouterr().err


def test_cli_orbifold_flag_dependencies(e6affine_files, tmp_path, capsys):
    _, ring, _ = e6affine_files
    perm = _write(tmp_path, "p.perm", "{}")
    code = main(
        ["orbifold", ring, "--alpha", "alpha", "--assume-loi-trivial", "--perm", perm]
    )
    assert code == 1
    assert "--perm only applies together with --graph" in capsys.readouterr().err


def test_cli_orbifold_unsupported_structure_is_exit_two(tmp_path, capsys):
    # an order-2 ring action whose graph has two adjacent fixed vertices
    ring_doc = {
        "format": "orbifusion/1",
        "labels": ["e", "a", "r"],
        "unit": "e",
        "dual": {"e": "e", "a": "a", "r": "r"},
        "N": [
            ["e", "e", "e", 1],
            ["e", "a", "a", 1],
            ["a", "e", "a", 1],
            ["a", "a", "e", 1],
            ["e", "r", "r", 1],
            ["r", "e", "r", 1],
            ["a", "r", "r", 1],
            ["r", "a", "r", 1],
            ["r", "r", "e", 1],
            ["r", "r", "a", 1],
            ["r", "r", "r", 1],
        ],
    }
    ring = _write(tmp_path, "t.ring", dump_json(ring_doc))
    graph = _write(
        tmp_path,
        "t.graph",
        dump_json(
            {
                "format": "orbifusion/1",
                "even": ["c"],
                "odd": ["l", "m", "r"],
                "edges": [["c", "l", 1], ["c", "m", 1], ["c", "r", 1]],
            }
        ),
    )
    perm = _write(
        tmp_path, "t.perm", dump_json({"c": "c", "m": "m", "l": "r", "r": "l"})
    )
    code = main(
        [
            "orbifold",
            ring,
            "--alpha",
            "a",
            "--rho",
            "r",
            "--assume-loi-trivial",
            "--graph",
            graph,
            "--perm",
            perm,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "unsupported structure" in err
    assert "fixed vertices 'c' and 'm' are adjacent" in err


def test_cli_json_output_is_deterministic(e6affine_files, tmp_path, capsys):
    _, ring, graph = e6affine_files
    argv = [
        "orbifold",
        ring,
        "--alpha",
        "alpha",
        "--assume-loi-trivial",
        "--graph",
        graph,
        "--json",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["obstruction"] == {
        "j": 0,
        "n": 3,
        "source": "certified by the gcd test",
    }
    assert doc["p"] == 3
    assert doc["graph"]["folded"]["class"] == "D_4^(1)"
    assert doc["global_dim"]["passed"] is True
    assert [it["item"] for it in doc["assumptions"]] == ["A1", "A2", "A3"]


def test_cli_graph_identify(tmp_path, capsys):
    graph = _write(tmp_path, "chain.graph", dump_graph(path_graph(5)))
    assert main(["graph", "identify", graph]) == 0
    out = capsys.readouterr().out
    assert "class: A_5" in out and "pf norm: 1.732050808" in out


def test_cli_graph_identify_refuses_a_graph_past_the_norm_cap(tmp_path, capsys):
    graph = _write(tmp_path, "long.graph", dump_graph(path_graph(801)))
    assert main(["graph", "identify", graph]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the graph norm needs at most 800 vertices, got 801\n"


def test_cli_graph_fold(tmp_path, capsys):
    graph = _write(tmp_path, "chain.graph", dump_graph(build("A5").graph))
    perm = _write(
        tmp_path,
        "flip.perm",
        dump_json({f"rho{k}": f"rho{4 - k}" for k in range(5)}),
    )
    assert main(["graph", "fold", graph, "--perm", perm, "--order", "2"]) == 0
    assert "class: D_4" in capsys.readouterr().out
    assert main(["graph", "fold", graph, "--perm", perm, "--order", "4"]) == 1
    assert "exact order 2" in capsys.readouterr().err


def test_cli_su3(capsys):
    assert main(["su3", "fuse", "--level", "2", "1,1", "1,1"]) == 0
    assert capsys.readouterr().out == "0,0: 1\n1,1: 1\n"
    assert main(["su3", "fuse", "--level", "2", "9,9", "1,1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: weight (9, 9) is not admissible at level 2\n"
    # the level-0 alcove and a level-24 product, held to the Kac-Walton fold
    for level, x, y in ((0, (0, 0), (0, 0)), (24, (8, 8), (5, 11)), (24, (24, 0), (7, 9))):
        ws = admissible_weights(level)
        want = kac_walton(x, y, level)
        want = {weight_label(w): want[w] for w in ws if w in want}
        argv = ["su3", "fuse", "--level", str(level), weight_label(x), weight_label(y)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "".join(f"{k}: {m}\n" for k, m in want.items())
        assert main(argv + ["--json"]) == 0
        assert list(json.loads(capsys.readouterr().out).items()) == list(want.items())
    assert main(["su3", "m", "--k", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "k": 2,
        "level": 6,
        "m": 3,
        "n": 3,
        "gcd": 3,
        "verdict": "Inconclusive",
    }


_BOUND_MESSAGES = {
    "fuse": "level must be between 0 and 24",
    "m": "k must be between 1 and 8",
}


@pytest.mark.parametrize(
    "argv", [["su3", "fuse", "--level", "25", "0,0", "0,0"], ["su3", "m", "--k", "9"]]
)
def test_cli_su3_work_is_bounded(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {_BOUND_MESSAGES[argv[1]]}\n"


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import orbifusion.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_cli_import_loads_no_library_beyond_numpy_and_scipy():
    src = os.path.dirname(os.path.dirname(orbifusion.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) <= {"numpy", "scipy", "orbifusion"}, done.stdout


def test_cli_exits_one_when_the_reader_closes_stdout_early():
    # the reader's end is closed before the report is written, as
    # `orbifusion su3 fuse ... | head -2` may do: one stderr line, exit 1
    src = os.path.dirname(os.path.dirname(orbifusion.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    child = subprocess.Popen(
        [sys.executable, "-m", "orbifusion.cli", "su3", "fuse", "--level", "24", "8,8", "5,11"],
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    child.stdout.close()
    try:
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1
    finally:
        child.kill()
        child.stderr.close()
    assert err == "error: stdout was closed before the report was written\n"


def test_cli_catalog(capsys):
    assert main(["catalog", "list"]) == 0
    assert "E6affine" in capsys.readouterr().out.split("\n")
    assert main(["catalog", "run", "E6"]) == 0
    assert capsys.readouterr().out.startswith("== E6: pass ==")
    assert main(["catalog", "run", "E9"]) == 1
    assert "unknown catalog entry" in capsys.readouterr().err
    assert main(["catalog", "run"]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_cli_usage_errors_exit_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["orbifold", "x.ring", "--obstruction", "0.5"])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "not an exact phase" in err
