"""Fuzzing ``cli.main`` in-process with valid and mutated documents.

Every run must end with exit code 0, 1, 2 or 3; a nonzero exit prints
exactly one line to stderr, except that ``validate`` reports failed
axioms on stdout; nothing raises out of ``main`` (which, from the
command line, would print a traceback) and nothing warns.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbifusion.catalog import build
from orbifusion.cli import main
from orbifusion.fileio import dump_graph, dump_ring

# examples per run; the suite's time grows about 20 ms with each
FUZZ_EXAMPLES = 150

_A5 = build("A5")
_E6AFFINE = build("E6affine")
_RINGS = [json.loads(dump_ring(_A5.ring)), json.loads(dump_ring(_E6AFFINE.ring))]
_GRAPHS = [json.loads(dump_graph(_A5.graph)), json.loads(dump_graph(_E6AFFINE.graph))]
_PERM = {f"rho{k}": f"rho{4 - k}" for k in range(5)}
_LABELS = sorted(
    set(_A5.ring.labels) | set(_E6AFFINE.ring.labels) | set(_A5.graph.even) | set(_A5.graph.odd)
)

_LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(_LABELS),
)
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_DESCEND = st.sampled_from([True, True, True, False])
_EDGE_VALUES = st.sampled_from([0, -1, 1, 2, 3, 2**63, 2**70, 1.5, True, "1", None, [], {}])


def _mutate(data, doc):
    """One edit at a random place in the document."""
    doc = copy.deepcopy(doc)
    rows = doc.get("N", doc.get("edges")) if isinstance(doc, dict) else None
    if isinstance(rows, list) and rows and data.draw(st.booleans()):
        # a well-formed row with another label or count: a table that
        # parses but may break an axiom, a symmetry or the graph
        row = data.draw(st.sampled_from(rows))
        if isinstance(row, list) and row:
            col = data.draw(st.integers(0, len(row) - 1))
            last = col == len(row) - 1
            row[col] = data.draw(st.integers(1, 3) if last else st.sampled_from(_LABELS))
            return doc
    parent, key, node = None, None, doc
    # edits near the leaves keep the schema and reach the checks behind it
    while isinstance(node, (dict, list)) and node and data.draw(_DESCEND):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = parent[key]
    edit = data.draw(
        st.sampled_from(["replace", "label", "edge", "delete", "repeat", "shuffle", "swap"])
    )
    if edit == "delete" and parent is not None:
        del parent[key]
        return doc
    if edit == "repeat" and isinstance(node, list) and node:
        node.append(copy.deepcopy(node[data.draw(st.integers(0, len(node) - 1))]))
        return doc
    # tables out of pair-major order, with the repeats above also
    # duplicate ones, reach the column reader and its fault reporter
    if edit == "shuffle" and isinstance(rows, list) and len(rows) > 1:
        rows[:] = data.draw(st.permutations(rows))
        return doc
    if edit == "swap" and isinstance(rows, list) and len(rows) > 1:
        a, b = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
        rows[a], rows[b] = rows[b], rows[a]
        return doc
    value = data.draw(
        {"label": st.sampled_from(_LABELS), "edge": _EDGE_VALUES}.get(edit, _JSON)
    )
    if parent is None:
        return value
    parent[key] = value
    return doc


def _document(data, doc) -> bytes:
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 1, 2]))):
        doc = _mutate(data, doc)
    raw = json.dumps(doc).encode()
    damage = data.draw(st.sampled_from(["none"] * 10 + ["truncate", "bytes"]))
    if damage == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw)))]
    elif damage == "bytes":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=4)) + raw[at:]
    return raw


_COMMANDS = [
    ["validate", "{ring}"],
    ["validate", "{ring}", "--json"],
    ["dims", "{ring}"],
    ["dims", "{ring}", "--json"],
    ["obstruction", "{ring}", "--alpha", "{alpha}"],
    ["orbifold", "{ring}", "--alpha", "{alpha}", "--assume-loi-trivial"],
    ["orbifold", "{ring}", "--alpha", "{alpha}", "--assume-loi-trivial", "--graph", "{graph}"],
    [
        "orbifold", "{ring}", "--alpha", "{alpha}", "--assume-loi-trivial",
        "--graph", "{graph}", "--perm", "{perm}", "--json",
    ],
    ["orbifold", "{request}"],
    ["orbifold", "{request}", "--json"],
    ["graph", "identify", "{graph}"],
    ["graph", "identify", "{graph}", "--json"],
    ["graph", "fold", "{graph}", "--perm", "{perm}", "--order", "{order}"],
]


@settings(max_examples=FUZZ_EXAMPLES, derandomize=True, deadline=None)
@given(st.data())
def test_every_run_ends_in_a_known_exit_code_with_one_line_on_failure(data):
    which = data.draw(st.integers(0, 1))
    request = {
        "format": "orbifusion/1",
        "ring": data.draw(st.sampled_from([_RINGS[which], "ring.json", "missing.json"])),
        "alpha": data.draw(st.sampled_from(["rho4", "alpha", "rho"])),
        "loi_trivial": True,
    }
    docs = {
        "ring": _RINGS[which],
        "graph": _GRAPHS[which],
        "perm": _PERM,
        "request": request,
    }
    command = data.draw(st.sampled_from(_COMMANDS))
    fill = {
        "alpha": data.draw(st.sampled_from(["rho4", "alpha", "rho2", "id", "nope"])),
        "order": data.draw(st.sampled_from(["1", "2", "3", "-1", "x"])),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "wb") as fh:
                fh.write(_document(data, doc))
            fill[name] = path
        run_and_check([part.format(**fill) for part in command])


@pytest.mark.parametrize("value", [0, -1, 2**63, 2**70])
def test_every_command_ends_cleanly_on_an_out_of_range_count(tmp_path, value):
    """Every command on a ring file whose first count, and on a graph
    file whose first multiplicity, is out of range or past what int64
    holds: the fuzz reaches these only by chance."""
    for which in ("ring", "graph"):
        docs = {"ring": _RINGS[0], "graph": _GRAPHS[0], "perm": _PERM}
        docs[which] = copy.deepcopy(docs[which])
        docs[which]["N" if which == "ring" else "edges"][0][-1] = value
        docs["request"] = {
            "format": "orbifusion/1", "ring": docs["ring"], "alpha": "rho4", "loi_trivial": True,
        }
        fill = {"alpha": "rho4", "order": "2"}
        for name, doc in docs.items():
            fill[name] = str(tmp_path / f"{name}.json")
            with open(fill[name], "w") as fh:
                json.dump(doc, fh)
        for command in _COMMANDS:
            if which == "ring" or "{graph}" in command:
                run_and_check([part.format(**fill) for part in command])


def run_and_check(argv):
    """Run ``main`` on ``argv`` under the invariant above; its exit code,
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 1 and argv[0] == "validate" and not err:
        # failed axioms are validate's report, and it goes to stdout
        assert "FAIL " in out or '"passed": false' in out, (argv, out)
    elif code:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert "Traceback" not in err
    return code, out, err
