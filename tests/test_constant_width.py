"""A ring stores its constants at their own width, and every stage gives
on it what it gives on an int64 copy of the same table.

``FusionRing`` keeps ``val`` in the narrowest of uint8, uint16 and
uint32 that holds its largest constant
(:func:`orbifusion.rings.constant_dtype`). numpy keeps a product, a
difference or a residue of narrow unsigned arrays in their dtype, or
raises, so a kernel that forgot to widen would wrap or fail. The tables
here sit at each width's edge: a largest constant of 255 or 256, of
65535 or 65536, and 2**31 - 1, the largest the constant bound accepts
at two labels. Each stage runs on the ring and on a copy that holds the
same arrays with ``val`` as int64, as every ring did before, and the two
outcomes, results or error messages, must be equal.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from orbifusion import (
    FusionRing,
    ObstructionValue,
    OrbifoldInput,
    OrbifusionError,
    SchemaError,
    catalog,
    cyclic_action,
    fp_dimensions,
    global_dim_check,
    kernels,
    orbifold_sectors,
    validate_ring,
)
from orbifusion.catalog import _near_group_ring
from orbifusion.fileio import dump_ring, load_ring
from orbifusion.rings import constant_dtype

from .oracles import su3_ring

_TOP = 2**31 - 1  # 2 * _TOP**2 < 2**63 <= 2 * (_TOP + 1)**2


@pytest.mark.parametrize(
    "largest,dtype",
    [(1, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32), (_TOP, np.uint32)],
)
def test_the_width_is_the_narrowest_that_holds_the_largest_constant(largest, dtype):
    assert constant_dtype(largest) == np.dtype(dtype)
    ring = _two_labels(largest)
    assert ring.csr()[2].dtype == np.dtype(dtype)
    assert ring.n(1, 1, 1) == largest and type(ring.n(1, 1, 1)) is int


def test_the_largest_constant_two_labels_accept_is_stored_in_uint32():
    with pytest.raises(SchemaError, match="too large for 2 labels"):
        _two_labels(_TOP + 1)
    assert _two_labels(_TOP).csr()[2].dtype == np.uint32


def test_the_level_24_ring_takes_at_most_18_mib():
    # with val as int64 it took 40.8 MiB, 26.7 of them val's, and the
    # catalog's pass on it traced 46.6 MiB; with val as uint8, 23.1 MiB
    ring = su3_ring(24)
    assert ring.csr()[2].dtype == np.uint8
    assert sum(a.nbytes for a in ring.csr()) <= 18 * 2**20
    del ring
    tracemalloc.start()
    try:
        assert catalog.run("SU3_level_24").passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 * 2**20


@pytest.mark.parametrize("count", [2**31, 2**32 - 1, 2**32, 2**32 + 7, 2**62])
@pytest.mark.parametrize("layout", ["rows", "indented"])
def test_a_file_count_past_the_bound_is_refused_as_written(count, layout, tmp_path):
    # a count the reader narrowed to uint32 before the bound saw it would
    # wrap from 2**32 + 7 to 7 and be taken
    text = dump_ring(_two_labels(7)).replace('"rho", 7]', f'"rho", {count}]')
    assert str(count) in text
    if layout == "indented":
        text = json.dumps(json.loads(text), indent=2)
    path = tmp_path / "ring.json"
    path.write_text(text, encoding="utf-8")
    message = f"structure constant {count} is too large for 2 labels: L * N**2 must stay below 2**63"
    with pytest.raises(SchemaError) as err:
        load_ring(str(path))
    assert str(err.value) == message


def _two_labels(m: int) -> FusionRing:
    """The ring on id and rho with rho * rho = id + m rho, valid for any m."""
    triples = [("id", "id", "id", 1), ("id", "rho", "rho", 1), ("rho", "id", "rho", 1)]
    triples += [("rho", "rho", "id", 1), ("rho", "rho", "rho", m)]
    return FusionRing.from_labels(["id", "rho"], "id", {"id": "id", "rho": "rho"}, triples)


def _uniform(L: int, m: int) -> FusionRing:
    """Every N[i,j,k] = m but the last, m - 1: it fails every axiom, and
    its bracketings reach L * m**2."""
    val = np.full(L**3, m, dtype=np.int64)
    val[-1] -= 1
    ptr = np.arange(L * L + 1, dtype=np.int64) * L
    idx = np.tile(np.arange(L, dtype=np.int32), L * L)
    return FusionRing.from_csr([str(t) for t in range(L)], 0, list(range(L)), ptr, idx, val)


_TABLES = {
    **{f"near-group m={m}": (lambda m=m: _near_group_ring(2, m)) for m in (255, 256, 65535, 65536)},
    **{f"uniform m={m}": (lambda m=m: _uniform(3, m)) for m in (255, 256, 65535, 65536)},
    "two labels m=2**31-1": lambda: _two_labels(_TOP),
    "uniform L=2 m=2**31-1": lambda: _uniform(2, _TOP),
}


def _adopted(ring: FusionRing, ptr, idx, val) -> FusionRing:
    """An unvalidated ring on the arrays as they are, without the width
    rule that every constructor applies."""
    copy = FusionRing.__new__(FusionRing)
    copy._adopt(ring.labels, ring.unit, ring.dual, ptr, idx, val)
    return copy


def _fresh(ring: FusionRing) -> FusionRing:
    return _adopted(ring, *ring.csr())


def _wide(ring: FusionRing) -> FusionRing:
    ptr, idx, val = ring.csr()
    return _adopted(ring, ptr, idx, val.astype(np.int64))


def _outcome(fn):
    try:
        return fn()
    except OrbifusionError as exc:
        return "raised", type(exc).__name__, str(exc)


def _raised(outcome) -> bool:
    return isinstance(outcome, tuple) and outcome[0] == "raised"


def _sectors(ring: FusionRing, alpha: str):
    action = cyclic_action(ring, alpha)
    inp = OrbifoldInput.make(action, None, loi_trivial_attested=True)
    sectors = orbifold_sectors(inp, ObstructionValue(0, action.order))
    return sectors.labels(), sectors.dimensions(), global_dim_check(ring, sectors)


def _stages(ring: FusionRing, tmp_path) -> dict:
    """Every stage's outcome, each on its own unvalidated copy of the
    ring's arrays in their dtypes."""
    L = ring.size
    out = {"validate, dense": validate_ring(_fresh(ring))}
    with mock.patch.object(kernels, "_DENSE_BYTES", 0):
        out["validate, sparse"] = validate_ring(_fresh(ring))
    out["generating_set"] = kernels.generating_set(*ring.csr(), L)
    out["fp_dimensions"] = _outcome(lambda: fp_dimensions(ring))
    for alpha in ring.labels:
        action = _outcome(lambda: cyclic_action(_fresh(ring), alpha))
        out[f"cyclic_action {alpha}"] = action if _raised(action) else (action.order, action.perm)
        out[f"sectors {alpha}"] = _outcome(lambda: _sectors(_fresh(ring), alpha))
    out["entries"] = list(ring.iter_entries())
    text = dump_ring(ring)
    path = tmp_path / "ring.json"
    path.write_text(text, encoding="utf-8")
    loaded = load_ring(str(path))
    out["dump_ring"] = text
    out["load_ring"] = [(a.dtype, a.tolist()) for a in loaded.csr()]
    return out


@pytest.mark.parametrize("name", list(_TABLES))
def test_every_stage_on_the_narrow_ring_is_the_int64_copys(name, tmp_path):
    ring = _TABLES[name]()
    largest = int(ring.csr()[2].max())
    assert ring.csr()[2].dtype == constant_dtype(largest) != np.int64
    got, want = _stages(ring, tmp_path), _stages(_wide(ring), tmp_path)
    # a file always reads back at the ring's own width
    assert got.pop("load_ring") == want.pop("load_ring") == [(a.dtype, a.tolist()) for a in ring.csr()]
    assert got == want
    valid = name.startswith(("near-group", "two labels"))
    assert got["validate, dense"].passed == got["validate, sparse"].passed == valid
    if valid:
        # wherever the dimensions are found, the stages run on to the sectors
        sectors = got[f"sectors {ring.labels[-2]}"]
        assert _raised(got["fp_dimensions"]) or not _raised(sectors), sectors
    else:
        # the bracketings reach L * m**2, which overflows a narrow dtype
        axioms = [f.axiom for f in got["validate, dense"].failures]
        assert axioms[-1] == "associativity", axioms
        witnesses = got["validate, dense"].failures[-1].witnesses
        assert max(max(w[4:]) for w in witnesses) == ring.size * largest**2
