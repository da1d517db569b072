import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbifusion import (
    FormalSum,
    FusionRing,
    InputError,
    SchemaError,
    ValidationError,
    classify_group,
    fp_dimensions,
    fuse,
    hom_dim,
    invertibles,
    require_valid,
    validate_ring,
)
from orbifusion.catalog import build, su2_even_ring
from orbifusion import rings, su3
from orbifusion.fileio import dump_ring, parse_ring
from orbifusion.rings import LABEL_CAP, classify_by_orders, constant_dtype

from .oracles import (
    broken_z3_ring,
    cyclic_ring,
    dense_associator,
    int64_width_bytes,
    klein_ring,
    rows_out_of_order_four_masks,
    su3_ring,
    unvalidated,
    validate_ring_two_scans,
)


def tiny_ring(**overrides):
    kw = dict(
        labels=["e", "x"],
        unit="e",
        dual={"e": "e", "x": "x"},
        triples=[("e", "e", "e", 1), ("e", "x", "x", 1), ("x", "e", "x", 1), ("x", "x", "e", 1)],
    )
    kw.update(overrides)
    return FusionRing.from_labels(**kw)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_duplicate_labels_rejected():
    with pytest.raises(SchemaError):
        tiny_ring(labels=["e", "e"])


def test_unknown_unit_rejected():
    with pytest.raises(SchemaError):
        tiny_ring(unit="q")


def test_dual_must_be_bijection():
    with pytest.raises(SchemaError):
        tiny_ring(dual={"e": "e", "x": "e"})


def test_negative_constant_rejected():
    with pytest.raises(SchemaError):
        tiny_ring(triples=[("e", "e", "e", 1), ("x", "x", "e", -1)])


def test_duplicate_triple_rejected():
    with pytest.raises(SchemaError):
        tiny_ring(
            triples=[("e", "e", "e", 1), ("x", "x", "e", 1), ("x", "x", "e", 2)]
        )


def test_unknown_label_in_triple_rejected():
    with pytest.raises(SchemaError):
        tiny_ring(triples=[("e", "e", "e", 1), ("x", "y", "e", 1)])


def test_constants_must_keep_products_inside_int64():
    # L * N**2 < 2**63: for one label the largest admissible constant is
    # floor(sqrt(2**63 - 1)) = 3037000499
    FusionRing(["e"], 0, [0], [(0, 0, 0, 3037000499)])
    for n in (3037000500, 2**70):
        with pytest.raises(SchemaError):
            FusionRing(["e"], 0, [0], [(0, 0, 0, n)])
    with pytest.raises(SchemaError):
        tiny_ring(triples=[("e", "e", "e", 1), ("x", "x", "e", 2**31)])


@pytest.mark.parametrize("size", [LABEL_CAP + 1, 50_000])
def test_label_cap_is_checked_before_any_square_allocation(size):
    # the pair-major ptr alone would hold size**2 + 1 int64 entries: 134 MB
    # at the cap, 20 GB at 50,000 labels
    labels = [f"x{t}" for t in range(size)]
    dual = list(range(size))
    empty = np.zeros(0, dtype=np.int64)
    builds = (
        lambda: FusionRing(labels, 0, dual, []),
        lambda: FusionRing.from_csr(labels, 0, dual, np.zeros(1, dtype=np.int64), empty, empty),
    )
    for build in builds:
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError) as err:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"a fusion ring may have at most 4096 labels, got {size}"
        assert peak < 2**20


def test_label_cap_edge(monkeypatch):
    monkeypatch.setattr(rings, "LABEL_CAP", 2)
    assert tiny_ring().size == 2
    with pytest.raises(SchemaError, match="at most 2 labels, got 3"):
        tiny_ring(labels=["e", "x", "y"], dual={"e": "e", "x": "x", "y": "y"})
    ptr, idx, val = tiny_ring().csr()
    with pytest.raises(SchemaError, match="at most 2 labels, got 3"):
        FusionRing.from_csr(["e", "x", "y"], 0, [0, 1, 2], ptr, idx, val)


def _raises_schema(nconst, message):
    with pytest.raises(SchemaError) as err:
        FusionRing(["e", "x"], 0, [0, 1], nconst)
    assert str(err.value) == message


def test_index_out_of_range_names_the_entry():
    _raises_schema(
        [(0, 0, 0, 1), (0, 2, 0, 1)],
        "structure constant index out of range: (0, 2, 0)",
    )
    _raises_schema([(-1, 0, 0, 1)], "structure constant index out of range: (-1, 0, 0)")
    # the range is checked before the constant of the same entry
    _raises_schema([(0, 5, 0, -1)], "structure constant index out of range: (0, 5, 0)")


def test_an_index_that_is_not_an_integer_is_refused_not_converted():
    good = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)]
    message = "structure constant index must be an integer: {}"
    # int() would truncate 1.7 and store the constant in row (1, 1)
    _raises_schema(good + [(1.7, 1, 0, 1)], message.format((1.7, 1, 0)))
    _raises_schema(good + [(1, "1", 0, 1)], message.format((1, "1", 0)))
    _raises_schema(good + [(1, 1, True, 1)], message.format((1, 1, True)))
    _raises_schema({(1, 1, np.float64(0.0)): 1}, message.format((1, 1, np.float64(0.0))))
    # the type is checked before the range
    _raises_schema(good + [(9.0, 1, 0, 1)], message.format((9.0, 1, 0)))
    ring = FusionRing(["e", "x"], 0, [0, 1], good + [(np.int64(1), np.uint8(1), np.int32(0), 1)])
    assert ring.n(1, 1, 0) == 1


def test_constant_must_be_a_nonnegative_integer():
    message = "structure constant must be a nonnegative integer: {}"
    _raises_schema([(0, 0, 0, 1), (1, 1, 0, 1.5)], message.format((1, 1, 0, 1.5)))
    _raises_schema([(0, 0, 0, 1), (1, 1, 0, -1)], message.format((1, 1, 0, -1)))
    _raises_schema({(1, 1, 0): -2}, message.format((1, 1, 0, -2)))


def test_first_bad_entry_in_input_order_is_reported():
    good = [(0, 0, 0, 1), (1, 1, 0, 1)]
    _raises_schema(
        good + [(1, 0, 1, -3), (0, 9, 0, 1)],
        "structure constant must be a nonnegative integer: (1, 0, 1, -3)",
    )
    _raises_schema(
        good + [(0, 9, 0, 1), (1, 0, 1, -3)],
        "structure constant index out of range: (0, 9, 0)",
    )
    # every entry is checked before duplicates are looked for
    _raises_schema(
        good + [(1, 1, 0, 1), (0, 1, 1, 2.5)],
        "structure constant must be a nonnegative integer: (0, 1, 1, 2.5)",
    )


def test_duplicate_entry_message():
    _raises_schema([(0, 0, 0, 1), (1, 1, 0, 1), (1, 1, 0, 2)], "duplicate (i, j, k) entry")
    # duplicates are looked for before the size bound
    _raises_schema([(0, 0, 0, 2**70), (0, 0, 0, 2**70)], "duplicate (i, j, k) entry")
    # a zero entry is dropped, so it duplicates nothing
    ring = FusionRing(["e"], 0, [0], [(0, 0, 0, 0), (0, 0, 0, 1)])
    assert ring.n(0, 0, 0) == 1 and ring.nnz == 1


def test_size_bound_message():
    _raises_schema(
        [(0, 0, 0, 1), (1, 1, 0, 2**70)],
        f"structure constant {2**70} is too large for 2 labels: L * N**2 must stay below 2**63",
    )


def test_constructor_arrays_are_pair_major_and_sorted():
    # entries in scrambled order, integral floats and a zero among them
    ring = FusionRing(
        ["e", "x", "y"],
        0,
        [0, 1, 2],
        [(2, 1, 2, 3), (0, 0, 0, 1), (1, 2, 2, 2.0), (2, 1, 0, 1), (1, 1, 1, 0)],
    )
    ptr, idx, val = ring.csr()
    assert ptr.dtype == np.int64 and idx.dtype == np.int32 and val.dtype == constant_dtype(3)
    assert ptr.tolist() == [0, 1, 1, 1, 1, 1, 2, 2, 4, 4]
    assert idx.tolist() == [0, 2, 0, 2]
    assert val.tolist() == [1, 2, 1, 3]


def _su3_level2_csr():
    """The ring and copies of its arrays, val widened to int64 so that a
    breakage can write any constant into it."""
    ring = su3_ring(2)
    ptr, idx, val = ring.csr()
    return ring, [ptr.copy(), idx.copy(), val.astype(np.int64)]


def test_from_entries_matches_the_main_constructor_on_shuffled_columns():
    ring, _ = _su3_level2_csr()
    i, j, k, n = ring.entry_arrays()
    order = np.random.default_rng(0).permutation(len(i))
    built = FusionRing.from_entries(ring.labels, ring.unit, ring.dual, *(a[order] for a in (i, j, k, n)))
    main = FusionRing(ring.labels, ring.unit, ring.dual, zip(i[order], j[order], k[order], n[order]))
    for got, want in zip(built.csr(), main.csr()):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    one = np.array([0])
    with pytest.raises(SchemaError, match="duplicate \\(i, j, k\\) entry"):
        FusionRing.from_entries(["e"], 0, [0], *(np.array([0, 0]),) * 3, np.array([1, 1]))
    with pytest.raises(SchemaError, match="index out of range"):
        FusionRing.from_entries(["e"], 0, [0], one, one + 1, one, one)
    with pytest.raises(SchemaError, match="too large for 1 labels"):
        FusionRing.from_entries(["e"], 0, [0], one, one, one, np.array([2**32]))


def test_from_csr_adopts_well_formed_arrays():
    ring, (ptr, idx, val) = _su3_level2_csr()
    again = FusionRing.from_csr(ring.labels, ring.unit, ring.dual, ptr, idx, val)
    for a, b in zip(again.csr(), ring.csr()):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _rings_by_constructor():
    ring, (ptr, idx, val) = _su3_level2_csr()
    return {
        "__init__": tiny_ring(),
        "from_entries": FusionRing.from_entries(ring.labels, ring.unit, ring.dual, *ring.entry_arrays()),
        "from_csr": FusionRing.from_csr(ring.labels, ring.unit, ring.dual, ptr, idx, val),
        "su3_ring": su3.su3_ring(2),
        "parse_ring": parse_ring(json.loads(dump_ring(ring))),
    }


def test_the_arrays_a_ring_hands_out_are_read_only():
    # validate_ring's record of a pass stays true only while the table
    # cannot change under it
    for ring in _rings_by_constructor().values():
        for a in ring.csr():
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
        ks, _ = ring.row(0, 0)
        with pytest.raises(ValueError, match="read-only"):
            ks[:] = 0


@pytest.mark.parametrize("field", ["labels", "unit", "dual"])
def test_the_labels_unit_and_dual_cannot_be_reassigned(field):
    # a reassigned unit or dual would leave the mark of a passed
    # validation on a table that no longer passes
    marked = su3.su3_ring(3)
    for ring in [marked, *_rings_by_constructor().values()]:
        before = getattr(ring, field)
        with pytest.raises(AttributeError):
            setattr(ring, field, tuple(range(ring.size)) if field == "dual" else before)
        assert getattr(ring, field) == before
    assert validate_ring(marked).passed and validate_ring(unvalidated(marked)).passed


def _units_only(labels, unit, dual):
    L = len(labels)
    return FusionRing(labels, unit, dual, [(unit, j, j, 1) for j in range(L)])


@pytest.mark.parametrize(
    "labels, unit, dual, want",
    [
        # the unit is not self-dual and not involutive: once, not twice
        (["e", "a", "b"], 0, [1, 2, 0], ((0,), (1,), (2,))),
        # the unit is not self-dual but involutive, behind it a 3-cycle:
        # ascending, not with the unit last
        (list("abcdef"), 1, [0, 2, 1, 4, 5, 3], ((1,), (3,), (4,), (5,))),
    ],
)
def test_the_duality_involution_names_each_label_once_in_order(labels, unit, dual, want):
    ring = _units_only(labels, unit, dual)
    for report in (validate_ring(ring), validate_ring_two_scans(ring)):
        got = next(f.witnesses for f in report.failures if f.axiom == "duality-involution")
        assert got == want


def _first_long_row(ptr):
    return int(np.nonzero(np.diff(ptr) >= 2)[0][0])


def _csr_breakages():
    def start_above_zero(ptr, idx, val):
        ptr[0] = 1
        return ptr, idx, val

    def decreasing(ptr, idx, val):
        ptr[2] = ptr[1] - 1
        return ptr, idx, val

    def short_end(ptr, idx, val):
        return ptr, np.append(idx, 0), np.append(val, 1)

    def val_length(ptr, idx, val):
        return ptr, idx, val[:-1]

    def index_too_large(ptr, idx, val):
        idx[-1] = 6
        return ptr, idx, val

    def index_negative(ptr, idx, val):
        idx[0] = -1
        return ptr, idx, val

    def row_out_of_order(ptr, idx, val):
        lo = ptr[_first_long_row(ptr)]
        idx[lo], idx[lo + 1] = idx[lo + 1], idx[lo]
        return ptr, idx, val

    def row_repeats_an_index(ptr, idx, val):
        lo = ptr[_first_long_row(ptr)]
        idx[lo + 1] = idx[lo]
        return ptr, idx, val

    def zero_constant(ptr, idx, val):
        val[0] = 0
        return ptr, idx, val

    def negative_constant(ptr, idx, val):
        val[-1] = -1
        return ptr, idx, val

    def constant_too_large(ptr, idx, val):
        val[0] = 2**62
        return ptr, idx, val

    def constant_beyond_int64(ptr, idx, val):
        return ptr, idx, [2**70] + val.tolist()[1:]

    return [
        start_above_zero,
        decreasing,
        short_end,
        val_length,
        index_too_large,
        index_negative,
        row_out_of_order,
        row_repeats_an_index,
        zero_constant,
        negative_constant,
        constant_too_large,
        constant_beyond_int64,
    ]


@pytest.mark.parametrize("breakage", _csr_breakages(), ids=lambda f: f.__name__)
def test_from_csr_rejects_malformed_arrays(breakage):
    ring, arrays = _su3_level2_csr()
    with pytest.raises(SchemaError):
        FusionRing.from_csr(ring.labels, ring.unit, ring.dual, *breakage(*arrays))


def _row_order_tables(rng, L=4):
    """Pair-major (ptr, idx) of L labels by kind: rows as built, with
    many empty; a step down or a repeat at every row start; one position
    inside a row moved down or onto its predecessor; a tenth of the
    indices redrawn at random; a one-entry table; the empty table."""
    counts = rng.choice([0, 0, 1, 2, 3], size=L * L)
    rows = [np.sort(rng.choice(L, size=c, replace=False)) for c in counts]
    ptr = np.concatenate(([0], np.cumsum(counts)))
    built = np.concatenate(rows).astype(np.int64)
    starts = built.copy()
    last = None
    for lo, hi in zip(ptr[:-1], ptr[1:]):
        if hi > lo:
            if last is not None:
                starts[lo] = min(starts[lo], rng.integers(0, last + 1))
            last = starts[hi - 1]
    inside = built.copy()
    p = rng.choice([t for t in range(1, len(built)) if t not in set(ptr)])
    inside[p] = rng.integers(0, inside[p - 1] + 1)
    noisy = built.copy()
    moved = rng.random(len(built)) < 0.1
    noisy[moved] = rng.integers(0, L, size=np.count_nonzero(moved))
    one = np.zeros(L * L + 1, dtype=np.int64)
    one[rng.integers(1, L * L + 1) :] = 1
    return {
        "built": (ptr, built),
        "starts": (ptr, starts),
        "inside": (ptr, inside),
        "noisy": (ptr, noisy),
        "one entry": (one, rng.integers(0, L, size=1)),
        "empty": (np.zeros(L * L + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    }


def test_the_one_mask_row_order_check_refuses_what_four_masks_refused():
    rng = np.random.default_rng(24)
    L = 4
    header = ([str(t) for t in range(L)], 0, list(range(L)))
    verdicts = {}
    for _ in range(200):
        for kind, (ptr, idx) in _row_order_tables(rng, L).items():
            refused = rows_out_of_order_four_masks(ptr, idx)
            verdicts.setdefault(kind, set()).add(refused)
            val = np.ones(len(idx), dtype=np.int64)
            if refused:
                with pytest.raises(SchemaError) as err:
                    FusionRing.from_csr(*header, ptr, idx, val)
                assert str(err.value) == "output indices must increase strictly within each row"
            else:
                assert FusionRing.from_csr(*header, ptr, idx, val).nnz == len(idx)
    assert verdicts == {
        "built": {False},
        "starts": {False},
        "inside": {True},
        "noisy": {False, True},
        "one entry": {False},
        "empty": {False},
    }


def test_adopting_the_level_24_arrays_allocates_one_small_mask():
    # checking the row order with four masks as long as the table
    # allocated 0.25 times the arrays' bytes; with one, 0.10 times
    # (bytes counted with val as int64)
    ring = su3_ring(24)
    own = int64_width_bytes(*ring.csr())
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        FusionRing.from_csr(ring.labels, ring.unit, ring.dual, *ring.csr())
        extra = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert extra < 0.15 * own


@pytest.mark.parametrize(
    "labels, unit, message",
    [
        (["a"], 5, "unit index 5 out of range"),
        (["a"], -1, "unit index -1 out of range"),
        ([], 0, "a fusion ring needs at least one label"),
    ],
)
def test_from_csr_checks_the_header_as_the_constructor_does(labels, unit, message):
    L = len(labels)
    dual = list(range(L))
    ptr = np.zeros(L * L + 1, dtype=np.int64)
    ptr[1:] = np.arange(1, L * L + 1)
    idx, val = np.zeros(L * L, dtype=np.int32), np.ones(L * L, dtype=np.int64)
    for build in (
        lambda: FusionRing(labels, unit, dual, []),
        lambda: FusionRing.from_csr(labels, unit, dual, ptr, idx, val),
    ):
        with pytest.raises(SchemaError) as err:
            build()
        assert str(err.value) == message


def test_from_csr_refuses_arrays_that_are_not_integers():
    # cast to integers, the index 0.7 and the constant 1.9 made the single
    # constant N[e, e, e] = 1, a ring that passed validation
    with pytest.raises(SchemaError) as err:
        FusionRing.from_csr(["e"], 0, [0], [0, 1], [0.7], [1.9])
    assert str(err.value) == "idx must be an integer array, got dtype float64"
    ring, (ptr, idx, val) = _su3_level2_csr()
    header = (ring.labels, ring.unit, ring.dual)
    for name, arrays in (
        ("ptr", (ptr.astype(np.float64), idx, val)),
        ("idx", (ptr, idx.astype(np.float32), val)),
        ("val", (ptr, idx, val.astype(np.float64))),
        ("val", (ptr, idx, val == 1)),
        ("val", (ptr, idx, val.astype(object))),
    ):
        with pytest.raises(SchemaError) as err:
            FusionRing.from_csr(*header, *arrays)
        dtype = next(a.dtype for a in arrays if a.dtype.kind not in "iu")
        assert str(err.value) == f"{name} must be an integer array, got dtype {dtype}"
    # integers of any width are taken, and empty arrays hold nothing to cut
    again = FusionRing.from_csr(*header, ptr.astype(np.uint32), idx.astype(np.int16), val.astype(np.int8))
    assert all(np.array_equal(a, b) for a, b in zip(again.csr(), ring.csr()))
    assert FusionRing.from_csr(["e"], 0, [0], [0, 0], [], []).nnz == 0


def test_from_entries_refuses_columns_that_are_not_integers():
    # cast to integers, the output 0.7 and the count 1.9 made the single
    # constant N[e, e, e] = 1, a ring that passed validation; a float i
    # column raised a bare TypeError from np.bincount
    a = np.array
    with pytest.raises(SchemaError) as err:
        FusionRing.from_entries(["e"], 0, [0], a([0]), a([0]), a([0.7]), a([1.9]))
    assert str(err.value) == "k must be an integer array, got dtype float64"
    ring = su3.su3_ring(2)
    header = (ring.labels, ring.unit, ring.dual)
    cols = ring.entry_arrays()
    for t, name in enumerate("ijkn"):
        for bad in (cols[t].astype(np.float64), cols[t] == 1, cols[t].astype(object)):
            with pytest.raises(SchemaError) as err:
                FusionRing.from_entries(*header, *cols[:t], bad, *cols[t + 1 :])
            assert str(err.value) == f"{name} must be an integer array, got dtype {bad.dtype}"
    # integers of any width are taken, and empty columns hold nothing to cut
    again = FusionRing.from_entries(*header, *(c.astype(np.int32) for c in cols))
    assert all(np.array_equal(x, y) for x, y in zip(again.csr(), ring.csr()))
    assert FusionRing.from_entries(["e"], 0, [0], *(a([]),) * 4).nnz == 0
    # an output past int32 was cut to another label: 2**32 read as 0
    with pytest.raises(SchemaError, match="structure constant index out of range"):
        FusionRing.from_entries(["e"], 0, [0], a([0]), a([0]), a([2**32]), a([1]))


def test_zero_count_is_dropped():
    ring = tiny_ring(
        triples=[
            ("e", "e", "e", 1),
            ("e", "x", "x", 1),
            ("x", "e", "x", 1),
            ("x", "x", "e", 1),
            ("x", "x", "x", 0),
        ]
    )
    assert ring.n(1, 1, 1) == 0
    assert ring.nnz == 4


def test_row_and_n_agree_with_entries():
    ring = klein_ring()
    for i, j, k, v in ring.iter_entries():
        assert ring.n(i, j, k) == v
    ks, vs = ring.row(1, 2)
    assert list(ks) == [3] and list(vs) == [1]


def test_label_readers_refuse_an_index_outside_the_labels():
    # i * L + j wrapped around: on E6affine, row(-1, 0) read the row
    # (3, 1), and fuse answered rho for the sum of label -1 and label 1
    ring = build("E6affine").ring
    L = ring.size
    reads = (
        lambda t: ring.row(t, 0),
        lambda t: ring.row(0, t),
        lambda t: ring.n(t, 0, 0),
        lambda t: ring.n(0, t, 0),
        lambda t: ring.n(0, 0, t),
        lambda t: rings.left_permutation(ring, t),
        lambda t: fuse(ring, FormalSum.basis(t), FormalSum.basis(1)),
        lambda t: fuse(ring, FormalSum.basis(1), FormalSum.basis(t)),
    )
    for t in (-1, -L, L, L + 1):
        for read in reads:
            with pytest.raises(InputError) as err:
                read(t)
            assert str(err.value) == f"label index {t} out of range for {L} labels"
    # the last label is still read
    assert ring.row(L - 1, ring.unit)[0].tolist() == [L - 1]
    assert ring.n(ring.unit, L - 1, L - 1) == 1


def test_describe_refuses_an_index_outside_the_labels():
    # on E6affine the sum 2 x_{-1} was described as "2 rho", the last
    # label, and the basis element 7 raised a bare IndexError
    ring = build("E6affine").ring
    L = ring.size
    for t in (-1, -L, L, L + 1):
        for total in (FormalSum.basis(t), FormalSum.make({t: 2}), FormalSum.make({0: 1, t: 1})):
            with pytest.raises(InputError) as err:
                total.describe(ring)
            assert str(err.value) == f"label index {t} out of range for {L} labels"
    assert FormalSum.make({0: 1, L - 1: 2}).describe(ring) == f"{ring.labels[0]} + 2 {ring.labels[L - 1]}"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_group_rings_validate():
    for ring in (cyclic_ring(1), cyclic_ring(5), klein_ring()):
        assert validate_ring(ring).passed


def test_broken_table_caught_with_real_witnesses():
    ring = broken_z3_ring()
    report = validate_ring(ring)
    assert not report.passed
    failure = next(f for f in report.failures if f.axiom == "associativity")
    _, lhs, rhs = dense_associator(ring)
    for i, j, k, l, a, b in failure.witnesses:
        assert a != b
        assert lhs[i, j, k, l] == a and rhs[i, j, k, l] == b


def test_dual_unit_axiom_caught():
    # x * x lands on x instead of the unit
    ring = tiny_ring(
        triples=[
            ("e", "e", "e", 1),
            ("e", "x", "x", 1),
            ("x", "e", "x", 1),
            ("x", "x", "x", 1),
        ]
    )
    report = validate_ring(ring)
    assert not report.passed
    assert any(f.axiom == "dual-unit" for f in report.failures)


def test_unit_axiom_caught():
    ring = tiny_ring(
        triples=[
            ("e", "e", "e", 1),
            ("e", "x", "x", 2),
            ("x", "e", "x", 1),
            ("x", "x", "e", 1),
        ]
    )
    report = validate_ring(ring)
    assert any(f.axiom == "unit" for f in report.failures)


def test_require_valid_raises_with_report_attached():
    with pytest.raises(ValidationError) as err:
        require_valid(broken_z3_ring())
    assert err.value.report is not None and not err.value.report.passed


@given(st.integers(min_value=1, max_value=8))
def test_cyclic_rings_validate_and_have_unit_dims(n):
    ring = cyclic_ring(n)
    assert validate_ring(ring).passed
    dims = fp_dimensions(ring)
    assert np.allclose(dims.dims, 1.0)
    assert dims.global_dim() == pytest.approx(n)


# ---------------------------------------------------------------------------
# formal sums and pairing
# ---------------------------------------------------------------------------

def test_fuse_matches_table():
    ring = klein_ring()
    out = fuse(ring, FormalSum.basis(1), FormalSum.basis(2))
    assert dict(out.items()) == {3: 1}


def test_fuse_is_bilinear():
    ring = cyclic_ring(3)
    x = FormalSum.make({0: 1, 1: 2})
    y = FormalSum.make({2: 3})
    out = fuse(ring, x, y)
    assert dict(out.items()) == {2: 3, 0: 6}


def test_hom_dim_frobenius_symmetry():
    ring = su2_even_ring(8)
    rho2 = FormalSum.basis(ring.index("rho2"))
    rho4 = FormalSum.basis(ring.index("rho4"))
    lhs = hom_dim(ring, fuse(ring, rho2, rho4), rho2)
    rhs = hom_dim(ring, rho4, fuse(ring, rho2, rho2))
    assert lhs == rhs == 1


def test_formal_sum_describe():
    ring = klein_ring()
    s = FormalSum.make({0: 1, 2: 3})
    assert s.describe(ring) == "e + 3 b"


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

def test_chain_ring_dimensions_are_exact_small_integers():
    ring = su2_even_ring(4)
    dims = fp_dimensions(ring)
    order = [ring.index(lab) for lab in ("rho0", "rho2", "rho4")]
    assert [dims[i] for i in order] == pytest.approx([1.0, 2.0, 1.0], abs=1e-9)


def test_even_su2_dimensions_are_the_quantum_dimensions():
    # d(rho_k) = sin((k+1) pi / (level+2)) / sin(pi / (level+2)); the worst
    # relative error over these levels is about 1e-11
    worst = 0.0
    for level in range(2, 200, 2):
        dims = fp_dimensions(su2_even_ring(level)).dims
        h = math.pi / (level + 2)
        want = [math.sin((2 * t + 1) * h) / math.sin(h) for t in range(len(dims))]
        worst = max(worst, max(abs(d - w) / w for d, w in zip(dims, want)))
    assert worst <= 1e-10


def test_dimensions_reject_inconsistent_product_equations():
    from orbifusion import NumericError

    # klein table with an extra unit summand in a*b: forces 1 = 2
    base = klein_ring()
    triples = [
        (base.labels[i], base.labels[j], base.labels[k], v)
        for i, j, k, v in base.iter_entries()
    ]
    triples.append(("a", "b", "e", 1))
    ring = FusionRing.from_labels(
        list(base.labels), unit="e", dual={lab: lab for lab in base.labels}, triples=triples
    )
    with pytest.raises(NumericError):
        fp_dimensions(ring)


def test_a_repeating_iterate_ends_the_power_iteration_at_once():
    from orbifusion import NumericError

    # M is a path on the first three labels (eigenvalues +-sqrt(2), 0), so
    # the iterates flip between its two sides and no step passes; the
    # full budget of steps took about 6 s at this size
    L = 512
    entries = [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 2, 1), (0, 2, 1, 1)]
    ring = FusionRing([f"x{t}" for t in range(L)], 0, range(L), entries)
    start = time.perf_counter()
    with pytest.raises(NumericError) as err:
        fp_dimensions(ring)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == "power iteration did not converge; is the ring validated?"


# ---------------------------------------------------------------------------
# units and group classification
# ---------------------------------------------------------------------------

def test_invertibles_of_group_ring_is_everything():
    ring = klein_ring()
    assert invertibles(ring) == ["e", "a", "b", "c"]


def test_invertibles_of_chain_ring():
    ring = su2_even_ring(8)
    assert invertibles(ring) == ["rho0", "rho8"]


def test_classify_group_separates_the_order_four_groups():
    assert classify_group(klein_ring(), ["e", "a", "b", "c"]).name == "Z/2 x Z/2"
    z4 = cyclic_ring(4)
    assert classify_group(z4, ["g0", "g1", "g2", "g3"]).name == "Z/4"


def test_classify_by_orders_needs_an_identity():
    with pytest.raises(SchemaError):
        classify_by_orders([2, 2])
