"""On-disk document formats and their parsers.

Every document is JSON. Ring files, graph files, and orbifold request
files carry a ``format`` field pinned to ``"orbifusion/1"``; permutation
files are bare JSON objects mapping label to label. Anything that fails
to parse, carries the wrong format tag, has unknown or missing keys, or
holds a value of the wrong shape raises :class:`SchemaError` before any
computation touches it.

Ring file::

    {"format": "orbifusion/1",
     "labels": ["id", "alpha", "rho"],
     "unit": "id",
     "dual": {"id": "id", "alpha": "alpha", "rho": "rho"},
     "N": [["alpha", "alpha", "id", 1], ...]}

Unlisted triples are zero; listed multiplicities must be >= 1.

Graph file::

    {"format": "orbifusion/1",
     "even": ["id", "rho"], "odd": ["m1"],
     "edges": [["rho", "m1", 2], ...]}

Orbifold request file: ``ring`` is either an inline ring object or a
path, resolved relative to the request file; ``alpha`` and ``rho`` are
labels, ``loi_trivial`` the explicit attestation, and ``obstruction``
an optional exact root of unity ``{"j": int, "n": int}``.

Writers emit byte-stable text: keys in one fixed order, arrays in index
order, two-space indent, trailing newline. Floats elsewhere in reports
go through :func:`fmt_float` so repeated runs agree to the byte.

:func:`load_ring` reads a file's ``N`` in pieces, so that at most one
piece's rows are alive at once. It walks the top-level object key by
key with the decoder's ``raw_decode``; the last of repeated keys wins,
as in :func:`json.loads`. A top-level ``N`` that follows a list of
label strings is cut after ``_PIECE_CHARS`` characters, at the first
closing bracket that a comma and a newline follow, with only blanks
between them: the end of a row, whether the file writes a row on one
line or across several (``json.dumps(doc, indent=2)``). A JSON string
cannot hold a raw newline, so the cut never falls inside a string. A
piece in the layout that :func:`dump_ring` writes, and the last piece
when dump_ring's closing line ends it, is read with array operations
on its bytes, without a Python object per row (:func:`_dump_rows`).
Any doubt sends a piece to :func:`json.loads`: another blank, a
backslash, non-ASCII text, a label whose ``json.dumps`` form is longer
than 8 bytes or is not a label, or a count that is not 1 to 18 digits
without a leading zero. Either way the piece goes straight into
columns, int32 labels and counts read as int64 and kept at the width a
ring stores them in (:func:`_narrow_counts`); the first piece that does
not decode ends the cutting, and the rest of the array is decoded whole:
that file still reads, only without the bound.
On a decode error, deep nesting or a refused row the whole text is
decoded as :func:`load_json` decodes it and :func:`parse_ring` reads
that, so every message and the order of the checks are those of the
whole-document reader. Loading the 8.0 MB level-15 alcove file
(262,684 rows) takes 0.052 s where decoding each piece took 0.30 s,
and the 112 MB level-24 file 0.69 s where it took 3.8 s (one
process, medians of 5 and 3 runs). ``orbifusion validate`` on the
level-15 file takes 0.28 s in a fresh process where it took 0.44 s,
and peaks at 52 MiB where it peaked at 54 MiB; read whole, it peaked
at 124 MB. Its 15.9 MB ``indent=2`` copy is decoded piece by piece and
raises the peak by about 34 MB, where a cut at any newline after a
comma raised it by about 109 MB (2 cores, numpy 2.4.6).
"""

from __future__ import annotations

import json
import mmap
import os
import re
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import SchemaError
from .graphs import BipartiteGraph
from .orbifold import ObstructionValue
from .rings import (
    FusionRing,
    _dual_indices,
    _label_index,
    constant_dtype,
)

__all__ = [
    "SCHEMA",
    "load_json",
    "parse_ring",
    "load_ring",
    "load_ring_doc",
    "dump_ring",
    "parse_graph",
    "load_graph",
    "dump_graph",
    "load_perm",
    "OrbifoldRequest",
    "parse_request",
    "load_request",
    "is_request",
    "dump_json",
    "fmt_float",
    "graph_dot",
]

SCHEMA = "orbifusion/1"


def fmt_float(x: float) -> str:
    return f"{float(x):.10g}"


def dump_json(doc) -> str:
    """Serialize a report document; keys keep their insertion order."""
    return json.dumps(doc, indent=2) + "\n"


def _read_text(path: str) -> str:
    """The file's text as text mode reads it: UTF-8, with "\r\n" and
    "\r" read as "\n".

    A file that can be mapped is decoded from the map, so no copy of its
    bytes is made and freed. Freeing an 8 MB copy raised glibc malloc's
    trim threshold to 16 MB for the rest of the process, and the freed
    heap that the reading left behind then stayed resident or not
    depending on the heap's layout.
    """
    try:
        with open(path, "rb") as fh:
            try:
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):  # an empty file, or one that cannot be mapped
                text = fh.read().decode("utf-8")
            else:
                with mapped:
                    text = str(mapped, "utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _decode(path: str, text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # deep nesting recurses
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path} must hold a JSON object at top level")
    return doc


def load_json(path: str) -> dict:
    return _decode(path, _read_text(path))


def _expect_keys(doc: dict, required: set[str], optional: set[str] = frozenset()):
    keys = set(doc)
    missing = required - keys
    if missing:
        raise SchemaError(f"missing keys: {', '.join(sorted(missing))}")
    unknown = keys - required - optional
    if unknown:
        raise SchemaError(f"unknown keys: {', '.join(sorted(unknown))}")


def _expect_format(doc: dict):
    tag = doc.get("format")
    if tag != SCHEMA:
        raise SchemaError(f"format must be {SCHEMA!r}, got {tag!r}")


def _string(x, what: str) -> str:
    if not isinstance(x, str):
        raise SchemaError(f"{what} must be a string, got {x!r}")
    return x


def _count(x, what: str) -> int:
    # JSON gives int, float or bool, and bool is an int subclass that
    # must not pass here
    if type(x) is not int:
        raise SchemaError(f"{what} must be an integer, got {x!r}")
    return x


def _string_list(x, what: str) -> list[str]:
    if not isinstance(x, list):
        raise SchemaError(f"{what} must be an array")
    return [_string(v, f"{what} entry") for v in x]


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

def parse_ring(doc: dict) -> FusionRing:
    """Check a ring document and build its ring.

    ``N`` is read as columns: one pass checks the row shapes and the
    count types, and the label columns map through the label index in
    bulk, into int32. When any column check fails,
    :func:`_raise_row_fault` names the fault that a reading row by row
    meets first. Rows in the order :func:`dump_ring` writes them are
    taken in that order; rows in any other order are sorted.
    """
    _expect_format(doc)
    _expect_keys(doc, {"format", "labels", "unit", "dual", "N"})
    labels = _string_list(doc["labels"], "labels")
    unit = _string(doc["unit"], "unit")
    dual = doc["dual"]
    if not isinstance(dual, dict):
        raise SchemaError("dual must be an object mapping label to label")
    dual = {
        _string(k, "dual key"): _string(v, "dual value") for k, v in dual.items()
    }
    rows = doc["N"]
    order = {lab: t for t, lab in enumerate(labels)}
    if isinstance(rows, _Columns):  # read in pieces by load_ring_doc
        columns = rows
    else:
        if not isinstance(rows, list):
            raise SchemaError("N must be an array of [label, label, label, count]")
        columns = _n_columns(rows, order)
        if columns is None:
            _raise_row_fault(labels, unit, dual, rows)
    dual_ix = _dual_indices(labels, dual, order)
    return FusionRing.from_entries(labels, _label_index(order, unit), dual_ix, *columns)


def _n_columns(rows: list, order: dict[str, int]):
    """``N`` as columns ``(i, j, k, n)``, the labels int32 and the counts
    as :func:`_narrow_counts` keeps them, or None if a row is at fault.

    The three labels of every row map through ``order`` in one pass; a
    successful lookup proves that a label is one of the label strings.
    """
    if not all(isinstance(row, list) and len(row) == 4 for row in rows):
        return None
    flat = list(chain.from_iterable(rows))
    counts = flat[3::4]
    if not set(map(type, counts)) <= {int}:
        return None
    del flat[3::4]  # the labels, three per row
    try:
        n = np.array(counts, dtype=np.int64)
        ijk = np.fromiter(map(order.__getitem__, flat), dtype=np.int32, count=len(flat))
    except (KeyError, TypeError, OverflowError):
        return None
    if len(n) and n.min() < 1:
        return None
    return (*ijk.reshape(-1, 3).T, _narrow_counts(n))


def _narrow_counts(n: np.ndarray) -> np.ndarray:
    """Positive int64 counts at the width of :func:`constant_dtype`, so
    that a file's count column takes the ring's bytes, not eight per
    count. A column holding a count of 2**32 or more, which no ring
    accepts, stays int64, so that the bound's message quotes it; pieces
    joined by ``np.concatenate`` take the widest piece's dtype."""
    largest = int(n.max()) if len(n) else 0
    return n.astype(constant_dtype(largest)) if largest < 2**32 else n


def _raise_row_fault(
    labels: list[str], unit: str, dual: dict[str, str], rows: list
) -> NoReturn:
    """Raise the first error of a reading of ``N`` row by row.

    Each row's shape, labels, count type and count sign are checked row
    after row; the rows then go to :meth:`FusionRing.from_labels`, whose
    checks come in its own order.
    """
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4):
            raise SchemaError(f"N entry must be [label, label, label, count]: {row!r}")
        for x in row[:3]:
            _string(x, "N label")
        n = _count(row[3], "N count")
        if n < 1:
            raise SchemaError(f"N count must be >= 1, got {n} at {row[:3]}")
    FusionRing.from_labels(labels, unit, dual, map(tuple, rows))
    raise AssertionError("the N columns were refused, yet every row check passed")


class _Columns(NamedTuple):
    """A top-level ``N`` read in pieces, as the columns of :func:`_n_columns`."""

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    n: np.ndarray


# characters of N text per piece: a piece ends at the first row end
# (_ROW_END) after this many
_PIECE_CHARS = 1 << 18
_ROW_END = re.compile(r"\][ \t\r]*,[ \t\r]*\n")
_WS = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


def load_ring_doc(path: str) -> dict:
    """The document at ``path`` as :func:`load_json` reads it, with a
    top-level ``N`` that follows a list of label strings read in pieces.

    Such an ``N`` becomes the columns of :func:`_n_columns`, which
    :func:`parse_ring` takes as they are. On a document in which
    anything is amiss, a refused row included, this is
    :func:`load_json`, so its errors come as they always did.
    """
    text = _read_text(path)
    try:
        return _walk(text)
    except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
        return _decode(path, text)


def _need(ok: bool) -> None:
    if not ok:
        raise ValueError("not a document that the piece reader takes")


def _walk(text: str) -> dict:
    """Decode the top-level object key by key; the last of repeated keys
    wins, as in :func:`json.loads`."""
    ws = _WS.match
    pos = ws(text, 0).end()
    _need(text.startswith("{", pos))
    doc = {}
    pos = ws(text, pos + 1).end()
    more = not text.startswith("}", pos)
    pos += not more
    while more:
        _need(text.startswith('"', pos))
        key, pos = _DECODER.raw_decode(text, pos)
        pos = ws(text, pos).end()
        _need(text.startswith(":", pos))
        pos = ws(text, pos + 1).end()
        labels = doc.get("labels")
        if (
            key == "N"
            and text.startswith("[", pos)
            and isinstance(labels, list)
            and all(isinstance(lab, str) for lab in labels)
        ):
            value, pos = _n_pieces(text, pos, {lab: t for t, lab in enumerate(labels)})
        else:
            # columns index the labels that were read before them
            _need(key != "labels" or not isinstance(doc.get("N"), _Columns))
            value, pos = _DECODER.raw_decode(text, pos)
        doc[key] = value
        pos = ws(text, pos).end()
        more = text.startswith(",", pos)
        _need(more or text.startswith("}", pos))
        pos = ws(text, pos + 1).end()
    _need(ws(text, pos).end() == len(text))
    return doc


def _n_pieces(text: str, pos: int, order: dict[str, int]) -> tuple[_Columns, int]:
    """Columns of the array that opens at ``text[pos]``, and the position
    after it.

    A piece runs to a row end, a closing bracket, a comma and a newline.
    A piece in dump_ring's row layout is read by :func:`_dump_rows`; any
    other is decoded and converted on its own. The decoder refuses a raw
    newline inside a string, so a cut never splits a token. The first
    piece that does not decode ends the loop, and the rest of the array
    is decoded whole. The last piece, closed by dump_ring's ``\\n  ]``,
    is tried on the array reader too.
    """
    pos = _WS.match(text, pos + 1).end()
    slots = _label_slots(order)
    parts = []
    while (cut := _ROW_END.search(text, pos + _PIECE_CHARS)) is not None:
        piece = text[pos : cut.start() + 1]
        columns = _dump_rows(piece, slots)
        if columns is None:
            try:
                rows = json.loads("[" + piece + "]")
            except (ValueError, RecursionError):
                break
            columns = _n_columns(rows, order)
            _need(columns is not None)  # a refused row goes to the fallback
        parts.append(columns)
        pos = _WS.match(text, cut.end()).end()
    # no row end follows pos + _PIECE_CHARS, so the last piece, if the
    # array reader takes it, closes within this window: its last row,
    # with the ",\n    " before it, holds at most 56 characters (three
    # 8-byte labels, 18 digits)
    end = text.find("\n  ]", pos, pos + _PIECE_CHARS + 64)
    columns = _dump_rows(text[pos:end], slots) if end >= 0 else None
    if columns is not None:
        parts.append(columns)
        return _Columns(*map(np.concatenate, zip(*parts))), end + 4
    rows, end = _DECODER.raw_decode("[" + text[pos:])
    _need(rows or not parts)  # else a comma comes before the closing bracket
    parts.append(_n_columns(rows, order))
    _need(parts[-1] is not None)
    return _Columns(*map(np.concatenate, zip(*parts))), pos + end - 1


def _word(text: bytes) -> np.uint64:
    """Up to 8 bytes as the little-endian word that :func:`_dump_rows` reads."""
    return np.uint64(int.from_bytes(text, "little"))


# dump_ring's row layout as the words _dump_rows compares: '", "' from
# each of the first two labels' closing quote, '", ' from the third's,
# and '],\n    [' from each row's closing bracket to the next row's opening
_LABEL_SEP = _word(b'", "')
_COUNT_SEP = _word(b'", ')
_ROW_SEP = _word(b'],\n    [')
# _MASKS[w] keeps the first w bytes of a word
_MASKS = np.array([(1 << 8 * w) - 1 for w in range(9)], dtype=np.uint64)
# Fibonacci hashing: a label's word times this, its top bits the slot
_HASH = np.uint64(0x9E3779B97F4A7C15)
# the largest label slot table is 2**_SLOT_BITS words, 8 MB, and its index
_SLOT_BITS = 20


class _Slots(NamedTuple):
    """A table in which each packed label takes its own slot."""

    shift: np.uint64  # a word's slot is (word * _HASH) >> shift
    words: np.ndarray  # uint64, the packed label in its slot, 0 elsewhere
    index: np.ndarray  # int32, the label's index in its slot


def _label_slots(order: dict[str, int]) -> _Slots | None:
    """The labels whose ``json.dumps`` form has at most 8 bytes and no
    backslash, packed into words as :func:`_dump_rows` reads them, in a
    table with one slot each; None when no table of at most
    ``2**_SLOT_BITS`` slots is free of collisions."""
    packed = {}
    for lab, t in order.items():
        enc = json.dumps(lab)  # ASCII
        if len(enc) <= 8 and "\\" not in enc:
            packed[int.from_bytes(enc.encode("ascii"), "little")] = t
    words = np.array(list(packed), dtype=np.uint64)
    for bits in range(len(words).bit_length() + 1, _SLOT_BITS + 1):
        shift = np.uint64(64 - bits)
        slot = (words * _HASH) >> shift
        if len(np.unique(slot)) == len(words):
            table = np.zeros(1 << bits, dtype=np.uint64)
            index = np.zeros(1 << bits, dtype=np.int32)
            table[slot] = words
            index[slot] = list(packed.values())
            return _Slots(shift, table, index)
    return None


def _dump_rows(piece: str, slots: _Slots | None):
    """A piece of ``N`` in dump_ring's row layout as the columns that
    ``_n_columns(json.loads("[" + piece + "]"), order)`` gives, without a
    Python object per row; None when the piece is anything else.

    The piece must be rows ``["a", "b", "c", n]`` joined by
    ``,\\n    ``, byte for byte: no other blank, only ASCII, every label
    the ``json.dumps`` form of one in ``slots``, and each count 1 to 18
    digits with no leading zero. Those forms hold no backslash, so the
    quotes fall six to a row, and every byte of the piece is read
    against the layout that they fix.
    """
    m = len(piece)
    if slots is None or not piece.isascii():
        return None
    raw = (piece + "\0" * 7).encode("ascii")
    b = np.frombuffer(raw, dtype=np.uint8)
    # words[p] is the 8 bytes from p on, little-endian
    words = np.ndarray((m,), dtype="<u8", buffer=raw, strides=(1,))
    q = np.flatnonzero(b == ord('"'))
    if len(q) == 0 or len(q) % 6 or q[0] != 1 or raw[0] != ord("[") or raw[m - 1] != ord("]"):
        return None
    q = q.reshape(-1, 6)
    starts = q[:, 5] + 3  # of the counts
    ends = np.append(q[1:, 0] - 8, m - 1)  # the closing brackets
    lens = ends - starts
    if not (
        1 <= lens.min()
        and lens.max() <= 18  # below 2**63
        and np.all(words[q[:, 1:4:2]] & _MASKS[4] == _LABEL_SEP)
        and np.all(words[q[:, 5]] & _MASKS[3] == _COUNT_SEP)
        and np.all(words[ends[:-1]] == _ROW_SEP)
    ):
        return None
    n = np.zeros(len(q), dtype=np.int64)
    for t in range(lens.max()):
        # a count shorter than t + 1 digits reads its last digit again
        d = b[starts + np.minimum(t, lens - 1)] - np.uint8(ord("0"))
        if d.max() > 9 or (t == 0 and d.min() == 0):
            return None
        n = np.where(lens > t, n * 10 + d, n)
    spans = q[:, 0::2].ravel()
    widths = q[:, 1::2].ravel() + 1 - spans
    if widths.max() > 8:
        return None
    labels = words[spans] & _MASKS[widths]
    slot = (labels * _HASH) >> slots.shift
    if not np.array_equal(slots.words[slot], labels):
        return None
    return (*slots.index[slot].reshape(-1, 3).T, _narrow_counts(n))


def load_ring(path: str) -> FusionRing:
    return parse_ring(load_ring_doc(path))


def _row_block(name: str, rows: list[str]) -> list[str]:
    """The last key of a document: an array with one row per line."""
    body = [",\n".join(rows)] if rows else []
    return [f'  "{name}": [', *body, "  ]"]


def dump_ring(ring: FusionRing) -> str:
    """Ring file text, rows written straight from the pair-major arrays.

    The rows are encoded one slab of first labels at a time and the text
    is joined once, so the peak is about twice the text.
    """
    L = ring.size
    lab = ring.labels
    enc = [json.dumps(x) for x in lab]
    dual = {lab[i]: lab[ring.dual[i]] for i in range(L)}
    ptr, idx, val = ring.csr()
    firsts = np.flatnonzero(ptr[L::L] > ptr[:-1:L]).tolist()

    def slabs():
        for i in firsts:
            at = ptr[i * L]
            cut = (ptr[i * L : (i + 1) * L + 1] - at).tolist()
            ks, vs = idx[at : at + cut[-1]].tolist(), val[at : at + cut[-1]].tolist()
            blocks = []
            # the rows of one product i * j share their first two labels
            for j, lo, hi in zip(range(L), cut, cut[1:]):
                if lo < hi:
                    head = f"    [{enc[i]}, {enc[j]}, "
                    blocks.append(",\n".join([f"{head}{enc[k]}, {v}]" for k, v in zip(ks[lo:hi], vs[lo:hi])]))
            yield ",\n".join(blocks) + ("," if i != firsts[-1] else "")

    head = [
        "{",
        f'  "format": {json.dumps(SCHEMA)},',
        f'  "labels": [{", ".join(enc)}],',
        f'  "unit": {enc[ring.unit]},',
        f'  "dual": {json.dumps(dual)},',
        '  "N": [',
    ]
    # the empty last line ends the text with a newline
    return "\n".join(chain(head, slabs(), ["  ]", "}", ""]))


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def parse_graph(doc: dict) -> BipartiteGraph:
    _expect_format(doc)
    _expect_keys(doc, {"format", "even", "odd", "edges"})
    even = _string_list(doc["even"], "even")
    odd = _string_list(doc["odd"], "odd")
    rows = doc["edges"]
    if not isinstance(rows, list):
        raise SchemaError("edges must be an array of [even, odd, multiplicity]")
    edges = []
    for row in rows:
        if not (isinstance(row, list) and len(row) == 3):
            raise SchemaError(f"edge must be [even, odd, multiplicity]: {row!r}")
        e = _string(row[0], "edge even endpoint")
        o = _string(row[1], "edge odd endpoint")
        m = _count(row[2], "edge multiplicity")
        if m < 1:
            raise SchemaError(f"edge multiplicity must be >= 1, got {m} at ({e}, {o})")
        edges.append((e, o, m))
    return BipartiteGraph.from_edges(even=even, odd=odd, edges=edges)


def load_graph(path: str) -> BipartiteGraph:
    return parse_graph(load_json(path))


def dump_graph(graph: BipartiteGraph) -> str:
    lines = ["{", f'  "format": {json.dumps(SCHEMA)},']
    lines.append(f'  "even": {json.dumps(list(graph.even))},')
    lines.append(f'  "odd": {json.dumps(list(graph.odd))},')
    rows = ["    " + json.dumps([e, o, int(m)]) for e, o, m in graph.edges()]
    lines.extend(_row_block("edges", rows))
    return "\n".join([*lines, "}", ""])


def _dot_quote(lab: str) -> str:
    return '"' + lab.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_dot(graph: BipartiteGraph) -> str:
    """DOT text: even vertices circles, odd squares, counts as labels."""
    lines = ["graph principal {"]
    for lab in graph.even:
        lines.append(f"  {_dot_quote(lab)} [shape=circle];")
    for lab in graph.odd:
        lines.append(f"  {_dot_quote(lab)} [shape=square];")
    for e, o, m in graph.edges():
        attr = f' [label="{m}"]' if m >= 2 else ""
        lines.append(f"  {_dot_quote(e)} -- {_dot_quote(o)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# permutations and orbifold requests
# ---------------------------------------------------------------------------

def load_perm(path: str) -> dict[str, str]:
    doc = load_json(path)
    return {
        _string(k, "permutation key"): _string(v, "permutation value")
        for k, v in doc.items()
    }


@dataclass(frozen=True)
class OrbifoldRequest:
    """Parsed orbifold request: the ring plus the run parameters."""

    ring: FusionRing
    alpha: str
    rho: str | None
    loi_trivial: bool
    obstruction: ObstructionValue | None


def is_request(doc: dict) -> bool:
    """Distinguish a request document from a bare ring document."""
    return "alpha" in doc


def parse_request(doc: dict, *, base: str = ".") -> OrbifoldRequest:
    _expect_format(doc)
    _expect_keys(
        doc,
        {"format", "ring", "alpha", "loi_trivial"},
        optional={"rho", "obstruction"},
    )
    ring_field = doc["ring"]
    if isinstance(ring_field, str):
        ring = load_ring(os.path.join(base, ring_field))
    elif isinstance(ring_field, dict):
        ring = parse_ring(ring_field)
    else:
        raise SchemaError("ring must be an inline ring object or a path string")
    alpha = _string(doc["alpha"], "alpha")
    rho = _string(doc["rho"], "rho") if "rho" in doc else None
    loi = doc["loi_trivial"]
    if not isinstance(loi, bool):
        raise SchemaError(f"loi_trivial must be true or false, got {loi!r}")
    obstruction = None
    if "obstruction" in doc:
        ob = doc["obstruction"]
        if not isinstance(ob, dict):
            raise SchemaError('obstruction must be an object {"j": int, "n": int}')
        _expect_keys(ob, {"j", "n"})
        jj = _count(ob["j"], "obstruction j")
        nn = _count(ob["n"], "obstruction n")
        if nn < 1:
            raise SchemaError(f"obstruction n must be >= 1, got {nn}")
        obstruction = ObstructionValue(jj % nn, nn)
    return OrbifoldRequest(
        ring=ring, alpha=alpha, rho=rho, loi_trivial=loi, obstruction=obstruction
    )


def load_request(path: str) -> OrbifoldRequest:
    return parse_request(load_json(path), base=os.path.dirname(path) or ".")
