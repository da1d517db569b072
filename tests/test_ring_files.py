"""Ring files read and written on columns agree with the row-by-row code.

``dump_ring`` must give the same bytes as the writer that encoded one
Python list per row, and ``parse_ring`` the same arrays and, on a
faulty document, the same first error message as the reader that
checked one row at a time (both kept in :mod:`tests.oracles`).
``load_ring``, which reads ``N`` in pieces, must give what
``parse_ring(load_json(path))`` gives on the same file.
"""

import copy
import json
import os
import random
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbifusion
from orbifusion import SchemaError, catalog, fileio
from orbifusion.fileio import dump_ring, load_json, load_ring, load_ring_doc, parse_ring
from orbifusion.rings import LABEL_CAP, FusionRing, constant_dtype

from .oracles import dump_ring_by_row, parse_ring_by_row, su3_ring

# the row-by-row writer takes about 4.5 us a row; above this many rows
# (the alcove rings of levels 18, 21 and 24) a sample of the rows stands
# in for the full comparison
_FULL_COMPARE_NNZ = 400_000


def _hand_ring(labels, triples):
    """A ring on the labels with every label self-dual and the first as unit."""
    return FusionRing.from_labels(labels, labels[0], {lab: lab for lab in labels}, triples)


def _escaped_rings():
    odd = ['id', 'q"uote', "back\\slash", "new\nline", "été", "α⊗\U0001d53d", "tab\t"]
    x = odd[1:]
    triples = [(odd[0], a, a, 1) for a in odd] + [(a, odd[0], a, 1) for a in x]
    triples += [(a, a, odd[0], 1) for a in x] + [(x[0], x[1], x[2], 2), (x[3], x[4], x[5], 3)]
    return {
        "escaped": _hand_ring(odd, triples),
        "no-rows": _hand_ring(["e", 'x"'], []),
        "one-label": _hand_ring(["\\"], [("\\", "\\", "\\", 1)]),
    }


def _catalog_ring(name):
    if name.startswith("SU3_level_"):
        return su3_ring(int(name.rsplit("_", 1)[1]))  # built once per session
    return catalog.build(name).ring


# the catalog's alcove rings are su3_ring(3), (6), ..., (24)
_RINGS = {
    **{name: (lambda name=name: _catalog_ring(name)) for name in catalog.names()},
    "su2_even_198": lambda: catalog.su2_even_ring(198),
    **{name: (lambda ring=ring: ring) for name, ring in _escaped_rings().items()},
}


@pytest.mark.parametrize("name", list(_RINGS))
def test_dump_is_byte_identical_to_the_row_writer(name):
    ring = _RINGS[name]()
    text = dump_ring(ring)
    if ring.nnz <= _FULL_COMPARE_NNZ:
        assert text == dump_ring_by_row(ring)
        return
    # the header and the footer from the row writer on the same labels
    # with no rows; then the row count, and a sample of rows each as
    # json.dumps writes the Python list
    bare = FusionRing.from_csr(
        ring.labels, ring.unit, ring.dual, np.zeros(ring.size**2 + 1, dtype=np.int64), [], []
    )
    head, tail = dump_ring_by_row(bare).split('  "N": [\n')
    assert text.startswith(head + '  "N": [\n') and text.endswith("\n" + tail)
    assert text.isascii()  # so that byte offsets are string offsets
    ends = np.flatnonzero(np.frombuffer(text.encode(), dtype=np.uint8) == ord("\n"))
    first = head.count("\n") + 1
    assert len(ends) == first + ring.nnz + tail.count("\n")
    i, j, k, n = ring.entry_arrays()
    lab = ring.labels
    for t in random.Random(name).sample(range(ring.nnz), 2000) + [0, ring.nnz - 1]:
        row = [lab[i[t]], lab[j[t]], lab[k[t]], int(n[t])]
        comma = "," if t + 1 < ring.nnz else ""
        line = text[ends[first + t - 1] + 1 : ends[first + t]]
        assert line == "    " + json.dumps(row) + comma


def test_an_empty_table_keeps_its_two_lines():
    text = dump_ring(_escaped_rings()["no-rows"])
    assert '  "N": [\n  ]\n}\n' in text


_DUMP_PROBE = """
from orbifusion import su3
from orbifusion.fileio import dump_ring


def peak_kib():
    # this process's own peak resident set; ru_maxrss would start at the
    # peak of the process that spawned it, in a test session far above this one's
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith("VmHWM:")).split()[1])


ring = su3.su3_ring(24)
before = peak_kib()
text = dump_ring(ring)
assert len(text) > 100_000_000
print(peak_kib() - before)
"""


def test_the_level_24_dump_holds_about_twice_its_text():
    # the writer that encoded the whole table before joining it raised a
    # fresh process's peak by about 370 MB for the 112 MB text; one slab
    # of first labels at a time, by about 190 MB. Traced allocations say
    # the same (415 and 225 MB) but tracing them takes 14 s.
    src = os.path.dirname(os.path.dirname(orbifusion.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _DUMP_PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 250 * 1024


def _assert_same_ring(got, want):
    assert (got.labels, got.unit, got.dual) == (want.labels, want.unit, want.dual)
    for a, b in zip(got.csr(), want.csr()):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("level", [3, 15, 24])
def test_a_round_trip_keeps_the_width_of_the_constants(level, ring_file):
    # the file's counts are read as int64 and kept at the ring's width
    ring = su3_ring(level)
    got = load_ring(ring_file(dump_ring(ring)))
    assert got.csr()[2].dtype == ring.csr()[2].dtype == constant_dtype(level + 1)


@pytest.mark.parametrize("name", ["A13", "E6affine", "SU3_level_9", "escaped", "no-rows", "one-label"])
def test_shuffled_rows_give_the_arrays_of_the_row_reader(name):
    doc = json.loads(dump_ring(_RINGS[name]()))
    random.Random(name).shuffle(doc["N"])
    _assert_same_ring(parse_ring(doc), parse_ring_by_row(doc))
    _assert_same_ring(parse_ring(doc), _RINGS[name]())


# ---------------------------------------------------------------------------
# first error of a faulty document
# ---------------------------------------------------------------------------

def _base_doc():
    """Z/2 extended by a self-dual r with r * r = e + a + r, rows shuffled."""
    return {
        "format": "orbifusion/1",
        "labels": ["e", "a", "r"],
        "unit": "e",
        "dual": {"e": "e", "a": "a", "r": "r"},
        "N": [
            ["r", "r", "r", 1], ["e", "a", "a", 1], ["a", "r", "r", 1], ["e", "e", "e", 1],
            ["r", "e", "r", 1], ["a", "e", "a", 1], ["a", "a", "e", 1], ["e", "r", "r", 1],
            ["r", "a", "r", 1], ["r", "r", "e", 1], ["r", "r", "a", 1],
        ],
    }


def _row(t, value):
    def edit(doc):
        doc["N"][t] = value
    return edit


def _cell(t, col, value):
    def edit(doc):
        doc["N"][t][col] = value
    return edit


def _key(key, value):
    def edit(doc):
        doc[key] = value
    return edit


def _repeat(t):
    def edit(doc):
        doc["N"].append(list(doc["N"][t]))
    return edit


def _wide(doc):
    doc["labels"] = doc["labels"] + [f"x{t}" for t in range(LABEL_CAP)]
    doc["dual"] = {lab: lab for lab in doc["labels"]}


_SHAPE = "N entry must be [label, label, label, count]: "
_MUTATIONS = {
    # one fault
    "short row": ([_row(4, ["r", "e", "r"])], _SHAPE + "['r', 'e', 'r']"),
    "long row": ([_row(4, ["r", "e", "r", 1, 1])], _SHAPE + "['r', 'e', 'r', 1, 1]"),
    "row not a list": ([_row(2, {"a": 1})], _SHAPE + "{'a': 1}"),
    "label not a string": ([_cell(3, 1, 1)], "N label must be a string, got 1"),
    "label a list": ([_cell(3, 2, ["e"])], "N label must be a string, got ['e']"),
    "bool count": ([_cell(5, 3, True)], "N count must be an integer, got True"),
    "float count": ([_cell(5, 3, 1.0)], "N count must be an integer, got 1.0"),
    "string count": ([_cell(5, 3, "1")], "N count must be an integer, got '1'"),
    "count 0": ([_cell(6, 3, 0)], "N count must be >= 1, got 0 at ['a', 'a', 'e']"),
    "count -2^70": ([_cell(6, 3, -(2**70))], f"N count must be >= 1, got {-(2**70)} at ['a', 'a', 'e']"),
    "count 2^70": ([_cell(0, 3, 2**70)], f"structure constant {2**70} is too large for 3 labels"),
    "count 2^63": ([_cell(0, 3, 2**63)], f"structure constant {2**63} is too large for 3 labels"),
    "bound": ([_cell(0, 3, 2**31)], f"structure constant {2**31} is too large for 3 labels"),
    "unknown label": ([_cell(7, 0, "q")], "unknown label 'q'"),
    "duplicate triple": ([_repeat(8)], "duplicate (i, j, k) entry"),
    "duplicate labels": ([_key("labels", ["e", "a", "r", "a"])], "duplicate labels"),
    "dual misses a label": ([_key("dual", {"e": "e", "a": "a"})], "dual map must cover"),
    "dual to an unknown": ([_key("dual", {"e": "e", "a": "q", "r": "r"})], "unknown label 'q'"),
    "dual not a bijection": ([_key("dual", {"e": "e", "a": "a", "r": "a"})], "dual must be a bijection"),
    "unknown unit": ([_key("unit", "u")], "unknown label 'u'"),
    "label cap": ([_wide], f"a fusion ring may have at most {LABEL_CAP} labels"),
    # two faults: the row checks run row after row, before the header's
    # labels and dual, then the labels of every row, the unit, the cap,
    # the dual's bijection, repeated triples and last the bound
    "unknown label, then a bool count": (
        [_cell(1, 0, "q"), _cell(9, 3, True)], "N count must be an integer, got True"),
    "bool count, then a short row": (
        [_cell(1, 3, True), _row(9, ["e"])], "N count must be an integer, got True"),
    "short row, then a bool count": (
        [_row(1, ["e"]), _cell(9, 3, True)], _SHAPE + "['e']"),
    "label and count in one row": (
        [_cell(1, 2, 7), _cell(1, 3, 0.5)], "N label must be a string, got 7"),
    "count 0, then a label not a string": (
        [_cell(2, 3, 0), _cell(8, 1, None)], "N count must be >= 1, got 0 at ['a', 'r', 'r']"),
    "two unknown labels": ([_cell(2, 1, "q"), _cell(1, 0, "p")], "unknown label 'p'"),
    "unknown label in the third column first": (
        [_cell(1, 2, "q"), _cell(2, 0, "p")], "unknown label 'q'"),
    "unknown unit and an unknown label": ([_key("unit", "u"), _cell(5, 0, "q")], "unknown label 'q'"),
    "duplicate labels and an unknown label": (
        [_key("labels", ["e", "a", "r", "e"]), _cell(5, 0, "q")], "duplicate labels"),
    "dual to an unknown and an unknown label": (
        [_key("dual", {"e": "e", "a": "p", "r": "r"}), _cell(5, 0, "q")], "unknown label 'p'"),
    "label cap and an unknown label": ([_wide, _cell(5, 0, "q")], "unknown label 'q'"),
    "label cap and a duplicate triple": ([_wide, _repeat(3)], "a fusion ring may have at most"),
    "dual not a bijection and a duplicate triple": (
        [_key("dual", {"e": "e", "a": "r", "r": "r"}), _repeat(3)], "dual must be a bijection"),
    "duplicate triple and the bound": ([_repeat(3), _cell(0, 3, 2**31)], "duplicate (i, j, k) entry"),
    "duplicate triple and 2^70": ([_repeat(3), _cell(0, 3, 2**70)], "duplicate (i, j, k) entry"),
    "2^70 and an unknown label": ([_cell(0, 3, 2**70), _cell(9, 1, "q")], "unknown label 'q'"),
    "2^70 and an unknown unit": ([_cell(0, 3, 2**70), _key("unit", "u")], "unknown label 'u'"),
    "2^70 and a dual not a bijection": (
        [_cell(0, 3, 2**70), _key("dual", {"e": "e", "a": "e", "r": "r"})], "dual must be a bijection"),
    "2^70 and a count 0": ([_cell(0, 3, 2**70), _cell(10, 3, 0)], "N count must be >= 1, got 0"),
    "the bound and 2^70": ([_cell(0, 3, 2**31), _cell(10, 3, 2**70)], f"structure constant {2**70} "),
}


def _first_error(parse, doc) -> str:
    with pytest.raises(SchemaError) as info:
        parse(copy.deepcopy(doc))
    return str(info.value)


@pytest.mark.parametrize("name", list(_MUTATIONS))
def test_a_faulty_table_raises_the_row_readers_first_message(name):
    edits, want = _MUTATIONS[name]
    doc = _base_doc()
    for edit in edits:
        edit(doc)
    got = _first_error(parse_ring, doc)
    assert got == _first_error(parse_ring_by_row, doc)
    assert got.startswith(want), got


_FAULTS = st.sampled_from(
    [[1, 2, 3], "r", None, True, False, 0, -1, 2, 2**31, 2**63, 2**70, 1.5, "q", "e", "a", ["r"]]
)


def _random_fault_doc(data) -> dict:
    doc = _base_doc()
    rows = doc["N"]
    random.Random(data.draw(st.integers(0, 2**16))).shuffle(rows)
    for _ in range(data.draw(st.integers(1, 3))):
        t = data.draw(st.integers(0, len(rows) - 1))
        what = data.draw(st.sampled_from(["cell", "row", "repeat", "drop"]))
        fault = copy.deepcopy(data.draw(_FAULTS))
        if what == "cell" and isinstance(rows[t], list) and len(rows[t]) == 4:
            rows[t][data.draw(st.integers(0, 3))] = fault
        elif what == "row":
            rows[t] = fault
        elif what == "repeat":
            rows.insert(data.draw(st.integers(0, len(rows))), copy.deepcopy(rows[t]))
        elif what == "drop":
            del rows[t]
    return doc


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_random_faults_raise_the_row_readers_first_message(data):
    doc = _random_fault_doc(data)
    try:
        want = parse_ring_by_row(copy.deepcopy(doc))
    except SchemaError as exc:
        assert _first_error(parse_ring, doc) == str(exc)
    else:
        _assert_same_ring(parse_ring(doc), want)


# ---------------------------------------------------------------------------
# the piece reader
# ---------------------------------------------------------------------------

def _dump_layout(doc: dict) -> str:
    """``doc`` as dump_ring lays a ring out: a key a line, one row of N a line."""
    head = [f"  {json.dumps(key)}: {json.dumps(value)}," for key, value in doc.items() if key != "N"]
    rows = ",\n".join("    " + json.dumps(row) for row in doc["N"])
    return "\n".join(["{", *head, '  "N": [', *([rows] if rows else []), "  ]", "}", ""])


_LAYOUTS = {
    "rows": _dump_layout,
    "one line": json.dumps,
    # each row across several lines, where a piece still ends at a row end
    "indent": lambda doc: json.dumps(doc, indent=1),
    "indent 2": lambda doc: json.dumps(doc, indent=2),
}


def _outcome(read):
    try:
        return read()
    except SchemaError as exc:
        return str(exc)


def _reads_as_the_parent(path, sizes=(fileio._PIECE_CHARS, 1)):
    """Check that load_ring, at each piece size (by default the module's
    and a cut at every row end), gives what parse_ring(load_json(path))
    gives: the same arrays and dtypes, or the same SchemaError text.

    Returns that, and whether the piece reader read N at every size.
    """
    want = _outcome(lambda: parse_ring(load_json(path)))
    in_pieces = True
    for chars in sizes:
        with mock.patch.object(fileio, "_PIECE_CHARS", chars):
            doc = _outcome(lambda: load_ring_doc(path))
        got = doc if isinstance(doc, str) else _outcome(lambda: parse_ring(doc))
        in_pieces &= isinstance(doc, dict) and isinstance(doc.get("N"), fileio._Columns)
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, FusionRing), got
            _assert_same_ring(got, want)
    return want, in_pieces


@pytest.fixture(scope="session")
def ring_file(tmp_path_factory):
    """A writer of one scratch file, overwritten by each call."""
    path = tmp_path_factory.mktemp("reader") / "doc.ring"

    def write(text: str) -> str:
        path.write_text(text, encoding="utf-8", newline="")
        return str(path)

    return write


# the parent's reading holds about nine times the text, so the rings of
# levels 15 to 24 and the even SU(2) ring (262,684 to 3.5M constants)
# are left to the memory guard below, which reads the level-15 file; a
# ring of more than 20,000 constants (level 12) is read only in
# dump_ring's layout and cut only at the module's piece size, which
# reads it in about ten pieces
_LARGE = {"SU3_level_15", "SU3_level_18", "SU3_level_21", "SU3_level_24", "su2_even_198"}
_EVERY_ROW_NNZ = 20_000
_ROWS_ONLY = {"SU3_level_12"}


@pytest.mark.parametrize(
    "name,layout",
    [
        (name, layout)
        for name in _RINGS
        if name not in _LARGE
        for layout in _LAYOUTS
        if layout == "rows" or name not in _ROWS_ONLY
    ],
)
def test_the_piece_reader_reads_each_ring_as_the_parent(name, layout, ring_file):
    ring = _RINGS[name]()
    text = dump_ring(ring)
    doc = json.loads(text)
    if layout == "rows":
        assert _dump_layout(doc) == text
    sizes = (fileio._PIECE_CHARS,) + ((1,) if ring.nnz <= _EVERY_ROW_NNZ else ())
    got, in_pieces = _reads_as_the_parent(ring_file(_LAYOUTS[layout](doc)), sizes)
    _assert_same_ring(got, ring)
    assert in_pieces  # not read by the fallback


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("name", list(_MUTATIONS))
def test_the_piece_reader_raises_the_parents_message(name, layout, ring_file):
    edits, want = _MUTATIONS[name]
    doc = _base_doc()
    for edit in edits:
        edit(doc)
    got, _ = _reads_as_the_parent(ring_file(_LAYOUTS[layout](doc)))
    assert got.startswith(want), got


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_the_piece_reader_meets_random_faults_as_the_parent(ring_file, data):
    doc = _random_fault_doc(data)
    for layout in _LAYOUTS.values():
        _reads_as_the_parent(ring_file(layout(doc)))


def _edge_documents() -> dict[str, str]:
    doc = _base_doc()
    text = _dump_layout(doc)
    rows = ",\n".join("    " + json.dumps(row) for row in doc["N"])
    head = text[: text.index('  "N"')]
    table = f"[\n{rows}\n  ]"

    def keys(*pairs):
        return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in pairs) + "\n}\n"

    def n_is(value):
        return head + f'  "N": {value}\n}}\n'

    def last_count(value):
        return text.replace("1]\n  ]", f"{value}]\n  ]")

    fields = [(key, json.dumps(value)) for key, value in doc.items() if key != "N"]
    return {
        "N twice, the table last": keys(*fields, ("N", "[]"), ("N", table)),
        "N twice, the table first": keys(*fields, ("N", table), ("N", "[]")),
        "N before labels": keys(("N", table), *fields),
        "labels again after N, in another order": keys(*fields, ("N", table), ("labels", '["r", "e", "a"]')),
        "N escaped": keys(*fields, ("\\u004e", table)),
        "N empty": n_is("[]"),
        "N null": n_is("null"),
        "N an object": n_is('{"e": 1}'),
        "a line holding only a comma": n_is(table.replace("1],\n", "1],\n,\n", 1)),
        "a comma before the closing bracket": n_is(table.replace("1]\n  ]", "1],\n  ]")),
        "two rows on a line": n_is(table.replace("],\n    [", "], [", 3)),
        "a blank line between rows": n_is(table.replace("],\n", "],\n\n", 2)),
        "CRLF line endings": text.replace("\n", "\r\n"),
        "a BOM": "\ufeff" + text,
        "data after the closing brace": text + "{}\n",
        "whitespace after the closing brace": text + "\n \t\r\n",
        "an empty object": "{}",
        "an array": "[]\n",
        "a row nested 100,000 deep": n_is(table.replace('["r", "r", "r", 1]', "[" * 100_000 + "]" * 100_000)),
        "count NaN": last_count("NaN"),
        "count 2^70": last_count(2**70),
        "count of 5,000 digits": last_count("7" * 5000),
        "a raw control character in a label": text.replace('"a"', '"a\x01"'),
        "a raw newline in a label": text.replace('"a"', '"a\n"'),
    }


# the rest read the whole document: N before the labels is decoded whole,
# and any other document goes to the fallback
_EDGES_IN_PIECES = {
    "N twice, the table last", "N twice, the table first", "N escaped", "N empty",
    "two rows on a line", "a blank line between rows", "CRLF line endings",
    "whitespace after the closing brace",
}


@pytest.mark.parametrize("name", list(_edge_documents()))
def test_the_piece_reader_meets_edge_documents_as_the_parent(name, ring_file):
    _, in_pieces = _reads_as_the_parent(ring_file(_edge_documents()[name]))
    assert in_pieces == (name in _EDGES_IN_PIECES)


def test_a_dumped_file_sends_no_piece_through_the_json_decoder(ring_file):
    # the level-12 file is read in about ten pieces, each in dump_ring's
    # row layout, so the array reader takes every one of them
    ring = su3_ring(12)
    path = ring_file(dump_ring(ring))
    with (
        mock.patch.object(fileio.json, "loads", wraps=json.loads) as loads,
        mock.patch.object(fileio, "_n_columns", wraps=fileio._n_columns) as columns,
    ):
        got = load_ring(path)
    assert (loads.call_count, columns.call_count) == (0, 0)
    _assert_same_ring(got, ring)


# one byte to insert or to put in place of another, and counts to put in
# place of a row's count
_EDIT_BYTES = list('019",[] \t\n\\ue.-') + ["\x00", "\x7f", "é"]
_EDIT_COUNTS = ["10", "9" * 18, "01", "1.0", "true", "0", "-1", "1e0", "9" * 19, " 1", "1 "]


def _edited_dump(data) -> tuple[str, dict, bool]:
    """_base_doc in dump_ring's row layout with one edit inside N: one
    byte inserted, deleted or replaced, a count replaced, or a label
    written with an escape or a raw tab. The third label's json.dumps
    form has 3, 8 (the longest the array reader packs) or 9 bytes.
    Also returns whether the edit kept dump_ring's layout."""
    doc = _base_doc()
    third = data.draw(st.sampled_from(["r", "abcdef", "rstuvwx"]))
    doc["labels"][2] = third
    doc["dual"] = {lab: lab for lab in doc["labels"]}
    doc["N"] = [[third if lab == "r" else lab for lab in row[:3]] + row[3:] for row in doc["N"]]
    text = _dump_layout(doc)
    lo, hi = text.index('"N": [') + 6, text.rindex("}")
    kind = data.draw(st.sampled_from(["insert", "delete", "replace", "count", "label"]))
    kept = False
    if kind == "count":
        counts = [m.span(1) for m in re.finditer(r"(\d+)\]", text)]
        a, b = data.draw(st.sampled_from(counts))
        count = data.draw(st.sampled_from(_EDIT_COUNTS))
        text = text[:a] + count + text[b:]
        kept = re.fullmatch(r"[1-9][0-9]{0,17}", count) is not None
    elif kind == "label":
        a = data.draw(st.sampled_from([m.end() for m in re.finditer(r'"e"', text) if m.start() > lo])) - 2
        text = text[:a] + data.draw(st.sampled_from(["\\u0065", "\\u0065\\u0065", "e\t", '\\"e'])) + text[a + 1 :]
    else:
        # any byte of N, one of its brackets, commas, blanks and quotes,
        # or one of the bytes around the first row's opening and the last
        # row's closing
        layout = [m.start() for m in re.finditer(r'[\[\], \n"]', text) if lo <= m.start() < hi]
        head = st.integers(lo, text.index('"', lo))
        tail = st.integers(text.rindex("]\n  ]") - 2, hi - 1)
        at = data.draw(st.integers(lo, hi - 1) | st.sampled_from(layout) | head | tail)
        byte = "" if kind == "delete" else data.draw(st.sampled_from(_EDIT_BYTES))
        text = text[:at] + byte + text[at + (kind != "insert") :]
    return text, doc, kept


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_one_edit_to_a_dumped_table_reads_as_the_parent(ring_file, data):
    # each read cuts N into pieces of one row, of two or three rows, and
    # not at all (the last piece then holds every row)
    text, doc, kept = _edited_dump(data)
    _reads_as_the_parent(ring_file(text), sizes=(fileio._PIECE_CHARS, 1, 40))
    # a piece that the array reader takes is one that json.loads reads
    # to the same columns
    order = {lab: t for t, lab in enumerate(doc["labels"])}
    start, end = text.find("[", text.find('"N": [') + 6), text.rfind("\n  ]")
    got = fileio._dump_rows(text[start:end], fileio._label_slots(order))
    if kept and "rstuvwx" not in order:  # every label packs
        assert got is not None
    if got is not None:
        want = fileio._n_columns(json.loads("[" + text[start:end] + "]"), order)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------------------
# rows in dump_ring's order, taken as they come, and in any other order
# ---------------------------------------------------------------------------

def _with_pieces_of_one_row(read):
    """``read()`` at the module's piece size and with a cut at every row end."""
    out = [read()]
    with mock.patch.object(fileio, "_PIECE_CHARS", 1):
        out.append(read())
    return out


@pytest.mark.parametrize("name", ["A13", "E6affine", "SU3_level_9", "escaped", "one-label"])
def test_a_file_with_shuffled_rows_loads_to_the_arrays_of_the_dumped_file(name, ring_file):
    text = dump_ring(_RINGS[name]())
    want = load_ring(ring_file(text))
    doc = json.loads(text)
    random.Random(name).shuffle(doc["N"])
    doc["N"].reverse()
    for layout in _LAYOUTS.values():
        path = ring_file(layout(doc))
        for got in _with_pieces_of_one_row(lambda: load_ring(path)):
            _assert_same_ring(got, want)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("order", ["in order", "shuffled"])
def test_a_repeated_triple_is_refused_in_and_out_of_order(order, where, ring_file):
    doc = json.loads(dump_ring(_RINGS["E6affine"]()))
    rows = doc["N"]
    at = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1}[where]
    rows.insert(at + 1, rows[at][:3] + [rows[at][3] + 1])
    if order == "shuffled":
        random.Random(where).shuffle(rows)
    with pytest.raises(SchemaError, match=r"^duplicate \(i, j, k\) entry$"):
        parse_ring(doc)
    for layout in _LAYOUTS.values():
        path = ring_file(layout(doc))
        for got in _with_pieces_of_one_row(lambda: _outcome(lambda: load_ring(path))):
            assert got == "duplicate (i, j, k) entry"


def test_an_inline_ring_with_rows_in_any_order_loads(tmp_path):
    ring = _RINGS["E6affine"]()
    inline = json.loads(dump_ring(ring))
    random.Random(6).shuffle(inline["N"])
    path = tmp_path / "go.request"
    request = {"format": "orbifusion/1", "ring": inline, "alpha": "alpha", "loi_trivial": True}
    for rows in (inline["N"], sorted(inline["N"]), inline["N"][::-1]):
        inline["N"] = rows
        path.write_text(json.dumps(request, indent=1), encoding="utf-8")
        _assert_same_ring(fileio.load_request(str(path)).ring, ring)


_LOAD_PROBE = """
import sys
import numpy as np
import scipy.sparse
from orbifusion import fileio


def peak_kib():
    # this process's own peak resident set; ru_maxrss would start at the
    # peak of the process that spawned it, in a test session far above this one's
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith("VmHWM:")).split()[1])


before = peak_kib()
ring = fileio.load_ring(sys.argv[1])
grown = peak_kib() - before
from orbifusion import su3

assert all(np.array_equal(a, b) for a, b in zip(ring.csr(), su3.su3_ring(15).csr()))
print(grown)
"""


def _load_growth_kib(path) -> int:
    """How far loading the level-15 file at ``path`` raises a fresh
    process's peak resident set, in KiB."""
    src = os.path.dirname(os.path.dirname(orbifusion.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _LOAD_PROBE, str(path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


@pytest.fixture(scope="session")
def level15_file(tmp_path_factory):
    """The level-15 alcove ring in dump_ring's layout (8.0 MB, 262,684
    rows), written once per session."""
    path = tmp_path_factory.mktemp("level15") / "l15.ring"
    path.write_text(dump_ring(su3_ring(15)), encoding="utf-8")
    return path


def test_a_level_15_file_loads_in_bounded_memory(level15_file):
    # the whole-document reader raised a fresh process's peak by about
    # 95 MB for this 8 MB file (262,684 rows), the piece reader by about 30
    assert _load_growth_kib(level15_file) < 45 * 1024


def test_a_pretty_printed_level_15_file_loads_in_bounded_memory(level15_file, tmp_path):
    # written with indent=2 the file is 15.9 MB, each row over six lines;
    # a reader that cut pieces only at a newline after a comma met a cut
    # inside a row and decoded the rest whole, raising the peak by about
    # 109 MB, where cutting at row ends raises it by about 34 MB
    path = tmp_path / "l15.ring"
    path.write_text(json.dumps(json.loads(level15_file.read_text(encoding="utf-8")), indent=2), encoding="utf-8")
    assert _load_growth_kib(path) < 55 * 1024


_VALIDATE_PROBE = """
import sys
from orbifusion.cli import main

assert main(["validate", sys.argv[1]]) == 0
with open("/proc/self/status") as status:
    peak = int(next(line for line in status if line.startswith("VmHWM:")).split()[1])
print(any(name.partition(".")[0] == "scipy" for name in sys.modules), peak)
"""


def test_validating_the_level_15_file_stays_small_and_loads_no_scipy(level15_file):
    # the whole command in a fresh process, its own peak (VmHWM): 63.0-63.1
    # MiB when the scan of these 136 labels imported scipy.sparse and the
    # label columns were int64, 53.7-55.9 MiB (by working directory) with
    # the int32 dense scan and int32 columns (2 cores, numpy 2.4.6, scipy
    # 1.17.1)
    src = os.path.dirname(os.path.dirname(orbifusion.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _VALIDATE_PROBE, str(level15_file)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    scipy_loaded, peak_kib = done.stdout.splitlines()[-1].split()
    assert scipy_loaded == "False"
    assert int(peak_kib) < 60 * 1024
