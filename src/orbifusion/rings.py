"""Fusion rings: exact structure constants, validation, dimensions.

A :class:`FusionRing` is a finite list of sector labels with sparse
nonnegative integer structure constants ``N[i,j,k]``, a unit label and a
duality involution. All multiplicity arithmetic is exact integer; floats
appear only in Frobenius-Perron dimensions.

Constants are stored pair-major (see :mod:`orbifusion.kernels`), which
keeps hand-written rings cheap and lets the level-24 SU(3) table share
the same validation path as a three-label toy ring.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, NumericError, SchemaError, ValidationError
from .kernels import associativity_violations, generating_set, power_iteration
from .kernels import row_blocks, single_outputs, slab_mismatches
from .kernels import slab_is_moved as _slab_is_moved

__all__ = [
    "FusionRing",
    "FormalSum",
    "DimensionTable",
    "ValidationReport",
    "AxiomFailure",
    "GroupClass",
    "validate_ring",
    "require_valid",
    "fuse",
    "hom_dim",
    "fp_dimensions",
    "invertibles",
    "left_permutation",
    "classify_group",
    "classify_by_orders",
]


_INT64_LIMIT = 2**63

# the most labels a ring may have: the pair-major ptr holds L**2 + 1 int64
# entries (134 MB at the cap)
LABEL_CAP = 4096

# power iteration of fp_dimensions: the tolerance of its three checks on
# the table, and the iteration budget
FP_TOLERANCE = 1e-9
FP_MAX_ITER = 100_000

# the largest group order classify_by_orders and classify_group name
GROUP_ORDER_CAP = 12


def _check_constant_bound(L: int, largest: int) -> None:
    # a product of two constants summed over L middle labels, as the
    # associativity scan forms it, must stay exact in int64
    if L * largest * largest >= _INT64_LIMIT:
        raise SchemaError(
            f"structure constant {largest} is too large for {L} labels: "
            "L * N**2 must stay below 2**63"
        )


def _check_label_count(L: int) -> None:
    if L > LABEL_CAP:
        raise SchemaError(f"a fusion ring may have at most {LABEL_CAP} labels, got {L}")


def _check_label_index(i: int, L: int) -> None:
    """Refuse a label index outside [0, L): a negative one would wrap."""
    if not 0 <= i < L:
        raise InputError(f"label index {i} out of range for {L} labels")


def _label_index(order: Mapping[str, int], lab: str) -> int:
    try:
        return order[lab]
    except KeyError:
        raise SchemaError(f"unknown label {lab!r}") from None


def _dual_indices(
    labels: Sequence[str], dual: Mapping[str, str], order: Mapping[str, int]
) -> list[int]:
    """The dual as label indices, after the label list's own checks."""
    if len(order) != len(labels):
        raise SchemaError("duplicate labels")
    if set(dual) != set(labels):
        raise SchemaError("dual map must cover every label exactly once")
    return [_label_index(order, dual[lab]) for lab in labels]


def _checked_header(labels, unit: int, dual) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The labels and the dual as tuples, or the first error they raise."""
    labels = tuple(str(x) for x in labels)
    _check_label_count(len(labels))
    if not labels:
        raise SchemaError("a fusion ring needs at least one label")
    if len(set(labels)) != len(labels):
        raise SchemaError("duplicate labels")
    L = len(labels)
    if not (0 <= unit < L):
        raise SchemaError(f"unit index {unit} out of range")
    dual = tuple(int(d) for d in dual)
    if len(dual) != L or sorted(dual) != list(range(L)):
        raise SchemaError("dual must be a bijection on label indices")
    return labels, dual


def _integer_arrays(**arrays) -> tuple[np.ndarray, ...]:
    """The named arrays as numpy arrays, in order, an empty one as int64.
    A non-empty one whose dtype is not an integer dtype is refused
    before any cast, which would truncate it."""
    out = tuple(np.asarray(a) for a in arrays.values())
    for name, a in zip(arrays, out):
        if a.size and a.dtype.kind not in "iu":
            raise SchemaError(f"{name} must be an integer array, got dtype {a.dtype}")
    return tuple(a if a.size else a.astype(np.int64) for a in out)


def _pair_major(L: int, p: np.ndarray, k: np.ndarray, n: np.ndarray):
    """Entries keyed by pair ``p = i * L + j`` as sorted ``(ptr, idx, val)``.

    Entries whose keys ``p * L + k`` strictly ascend, as :func:`dump_ring`
    writes them, are taken in their order; any other order is sorted
    first. A repeated ``(p, k)`` or a constant past the int64 bound raises.
    """
    key = p.astype(np.int64) * L + k
    if not np.all(key[1:] > key[:-1]):
        order = np.argsort(key, kind="stable")
        key, p, k, n = key[order], p[order], k[order], n[order]
        if np.any(key[1:] == key[:-1]):
            raise SchemaError("duplicate (i, j, k) entry")
    del key
    _check_constant_bound(L, int(n.max()) if len(n) else 0)
    ptr = np.zeros(L * L + 1, dtype=np.int64)
    np.cumsum(np.bincount(p, minlength=L * L), out=ptr[1:])
    return ptr, k.astype(np.int32), n.astype(np.int64)


def _checked_entry(t, L: int) -> tuple[int, int, int, int]:
    """One ``(i, j, k, n)`` entry as ints, or the error it raises. An
    index that is a bool, or not an ``int`` or ``np.integer``, is refused
    before any conversion, which would truncate it."""
    i, j, k, n = t
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (i, j, k)):
        raise SchemaError(f"structure constant index must be an integer: {(i, j, k)}")
    i, j, k = int(i), int(j), int(k)
    if not (0 <= i < L and 0 <= j < L and 0 <= k < L):
        raise SchemaError(f"structure constant index out of range: {(i, j, k)}")
    if int(n) != n or n < 0:
        raise SchemaError(f"structure constant must be a nonnegative integer: {(i, j, k, n)}")
    return i, j, k, int(n)


class FusionRing:
    """Immutable fusion ring on string labels.

    Parameters
    ----------
    labels : sequence of str
        Ordered, duplicate-free sector names, at most ``LABEL_CAP`` of
        them. Indices into this list are the working representation
        everywhere.
    unit : int
        Index of the unit label.
    dual : sequence of int
        ``dual[i]`` is the index of the conjugate of label ``i``. Must be
        a bijection; the involution property is an axiom checked by
        :func:`validate_ring`, not a construction requirement.
    nconst : mapping or iterable
        Either a mapping ``(i, j, k) -> n`` or an iterable of
        ``(i, j, k, n)`` tuples, integer ``n >= 1``, absent means zero.
        The indices must be integers (``int`` or ``np.integer``, not
        ``bool``); any other index is refused, not converted.
        Every ``n`` must satisfy ``L * n**2 < 2**63`` so that sums of
        products of constants stay exact in int64. Each entry is
        converted and checked on its own: there is one conversion path.

    Notes
    -----
    The pair-major arrays are read-only from construction on, and
    :meth:`csr` hands out those arrays themselves; ``labels``, ``unit``
    and ``dual`` are read-only properties, so reassigning one raises
    :class:`AttributeError`. The one field set later is ``_validated``,
    the record, which cannot go stale, that the ring meets every axiom.
    :func:`validate_ring` sets it when the ring passes, and
    :func:`orbifusion.su3.su3_ring` sets it on every ring it returns,
    since the test suite's certificate scans all the levels it accepts;
    :func:`validate_ring` and :func:`orbifusion.orbifold.cyclic_action`
    read it. A ring made by a constructor, a file among them, starts
    unmarked. Every operation on a ring is a pure function, so sharing
    between threads is safe.
    """

    __slots__ = ("_labels", "_unit", "_dual", "_ptr", "_idx", "_val", "_index", "_validated")

    def __init__(
        self,
        labels: Sequence[str],
        unit: int,
        dual: Sequence[int],
        nconst: Mapping[tuple[int, int, int], int] | Iterable[tuple[int, int, int, int]],
    ):
        labels, dual = _checked_header(labels, unit, dual)
        L = len(labels)
        if isinstance(nconst, Mapping):
            nconst = ((i, j, k, n) for (i, j, k), n in nconst.items())
        ent = np.array([_checked_entry(t, L) for t in nconst], dtype=object).reshape(-1, 4)
        ijk, n = ent[:, :3].astype(np.int64), ent[:, 3]
        keep = np.flatnonzero(n != 0)
        pair_major = _pair_major(L, ijk[keep, 0] * L + ijk[keep, 1], ijk[keep, 2], n[keep])
        self._adopt(labels, unit, dual, *pair_major)

    def _adopt(self, labels, unit: int, dual, ptr: np.ndarray, idx: np.ndarray, val: np.ndarray):
        """Take the checked header and the arrays as they are, read-only, unvalidated."""
        for a in (ptr, idx, val):
            a.setflags(write=False)
        self._labels, self._unit, self._dual = labels, int(unit), dual
        self._index = {lab: t for t, lab in enumerate(labels)}
        self._ptr, self._idx, self._val = ptr, idx, val
        self._validated = False

    @classmethod
    def from_labels(
        cls,
        labels: Sequence[str],
        unit: str,
        dual: Mapping[str, str],
        triples: Iterable[tuple[str, str, str, int]],
    ) -> "FusionRing":
        """Build from label strings instead of indices."""
        order = {lab: t for t, lab in enumerate(labels)}
        dual_ix = _dual_indices(labels, dual, order)
        at = functools.partial(_label_index, order)
        n_ix = [(at(a), at(b), at(c), n) for a, b, c, n in triples]
        return cls(labels, at(unit), dual_ix, n_ix)

    @classmethod
    def from_entries(
        cls,
        labels: Sequence[str],
        unit: int,
        dual: Sequence[int],
        i: np.ndarray,
        j: np.ndarray,
        k: np.ndarray,
        n: np.ndarray,
    ) -> "FusionRing":
        """Build from integer entry columns ``(i, j, k, n)`` in any order.

        Every count must be >= 1. The header checks, the check for a
        repeated triple and the constant bound run in the main
        constructor's order with its messages; a non-empty column whose
        dtype is not an integer dtype is refused before any cast, as in
        :meth:`from_csr`. The label columns, once in range, are read as
        int32 (``i * L + j`` fits, as L is at most ``LABEL_CAP``).
        Entries already in pair-major order, as :func:`dump_ring` writes
        them, are taken as they come; any others are sorted. The
        pair-major arrays are adopted through :meth:`from_csr`.
        """
        labels, dual = _checked_header(labels, unit, dual)
        L = len(labels)
        i, j, k, n = _integer_arrays(i=i, j=j, k=k, n=n)
        for col in (i, j, k):  # before the cast to int32
            if len(col) and (col.min() < 0 or col.max() >= L):
                raise SchemaError("structure constant index out of range")
        i, j, k = (col.astype(np.int32, copy=False) for col in (i, j, k))
        ptr, idx, val = _pair_major(L, i * L + j, k, n)
        return cls.from_csr(labels, unit, dual, ptr, idx, val)

    @classmethod
    def from_csr(
        cls,
        labels: Sequence[str],
        unit: int,
        dual: Sequence[int],
        ptr: np.ndarray,
        idx: np.ndarray,
        val: np.ndarray,
    ) -> "FusionRing":
        """Adopt prebuilt pair-major arrays (bulk constructors).

        The labels, unit and dual get the main constructor's checks,
        with its messages. The arrays are checked, in time linear in
        their length: ``ptr`` starts at 0, never decreases and ends at
        ``len(idx) == len(val)``; every index lies in ``[0, L)``;
        indices increase strictly within each row; and every stored
        constant is positive and obeys the bound of the main
        constructor. A non-empty array whose dtype is not an integer
        dtype is refused before any cast, which would truncate it.
        Validation and the symmetry checks rely on the sorted rows. The arrays adopted are
        made read-only, the caller's own when no conversion copied them.
        """
        labels, dual = _checked_header(labels, unit, dual)
        L = len(labels)
        if len(ptr) != L * L + 1:
            raise SchemaError("ptr length mismatch")
        self = cls.__new__(cls)
        ptr, idx, val = _integer_arrays(ptr=ptr, idx=idx, val=val)
        ptr, val = ptr.astype(np.int64, copy=False), val.astype(np.int64, copy=False)
        if ptr[0] != 0 or np.any(ptr[1:] < ptr[:-1]):
            raise SchemaError("ptr must start at 0 and never decrease")
        if not (ptr[-1] == len(idx) == len(val)):
            raise SchemaError("ptr must end at the number of stored constants")
        if len(idx) and (idx.min() < 0 or idx.max() >= L):
            raise SchemaError("structure constant index out of range")
        # a step down or a repeat is allowed only where a new row starts;
        # bad[p - 1] compares entry p with the one before it
        bad = idx[1:] <= idx[:-1]
        starts = ptr[1:-1]
        bad[starts[(starts > 0) & (starts < len(idx))] - 1] = False
        if bad.any():
            raise SchemaError("output indices must increase strictly within each row")
        if len(val):
            if val.min() < 1:
                raise SchemaError("stored structure constants must be positive")
            _check_constant_bound(L, int(val.max()))
        self._adopt(labels, unit, dual, ptr, idx.astype(np.int32, copy=False), val)
        return self

    # -- basic queries ----------------------------------------------------

    labels = property(lambda self: self._labels)
    unit = property(lambda self: self._unit)
    dual = property(lambda self: self._dual)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def nnz(self) -> int:
        return len(self._idx)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise SchemaError(f"unknown label {label!r}") from None

    def row(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Sparse row of the product ``i * j``: (output indices, counts).

        An index outside ``[0, L)`` raises :class:`InputError`.
        """
        L = self.size
        _check_label_index(i, L)
        _check_label_index(j, L)
        p = i * L + j
        lo, hi = self._ptr[p], self._ptr[p + 1]
        return self._idx[lo:hi], self._val[lo:hi]

    def n(self, i: int, j: int, k: int) -> int:
        """Structure constant ``N[i,j,k]``; an index outside ``[0, L)`` raises."""
        ks, vs = self.row(i, j)
        _check_label_index(k, self.size)
        t = np.searchsorted(ks, k)
        if t < len(ks) and ks[t] == k:
            return int(vs[t])
        return 0

    def iter_entries(self):
        """Yield every nonzero ``(i, j, k, n)`` in deterministic order."""
        yield from zip(*(col.tolist() for col in self.entry_arrays()))

    def entry_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All nonzeros as parallel arrays ``(i, j, k, n)``."""
        L = self.size
        counts = np.diff(self._ptr)
        pairs = np.repeat(np.arange(L * L, dtype=np.int64), counts)
        return pairs // L, pairs % L, self._idx.astype(np.int64), self._val.copy()

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only pair-major arrays ``(ptr, idx, val)`` themselves."""
        return self._ptr, self._idx, self._val

    def __repr__(self):
        return f"FusionRing({self.size} labels, unit={self.labels[self.unit]!r}, nnz={self.nnz})"


@dataclass(frozen=True)
class FormalSum:
    """Nonnegative integer combination of ring labels, by index.

    Zero coefficients are dropped at construction, so equality of the
    stored mapping is equality of the sums.
    """

    coeffs: tuple[tuple[int, int], ...]

    @staticmethod
    def make(coeffs: Mapping[int, int] | Iterable[tuple[int, int]]) -> "FormalSum":
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for i, c in items:
            if int(c) != c or c < 0:
                raise SchemaError(f"multiplicity must be a nonnegative integer, got {c!r}")
            if c:
                acc[int(i)] = acc.get(int(i), 0) + int(c)
        return FormalSum(tuple(sorted(acc.items())))

    @staticmethod
    def basis(i: int) -> "FormalSum":
        return FormalSum(((int(i), 1),))

    def coeff(self, i: int) -> int:
        for j, c in self.coeffs:
            if j == i:
                return c
        return 0

    def items(self):
        return iter(self.coeffs)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum.make(list(self.coeffs) + list(other.coeffs))

    def total(self) -> int:
        return sum(c for _, c in self.coeffs)

    def describe(self, ring: FusionRing) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in self.coeffs:
            _check_label_index(i, ring.size)
            lab = ring.labels[i]
            parts.append(lab if c == 1 else f"{c} {lab}")
        return " + ".join(parts)


@dataclass(frozen=True)
class DimensionTable:
    """Frobenius-Perron dimensions per label."""

    dims: tuple[float, ...]

    def __getitem__(self, i: int) -> float:
        return self.dims[i]

    def global_dim(self) -> float:
        """Sum of squared dimensions."""
        return float(np.sum(np.asarray(self.dims) ** 2))


@dataclass(frozen=True)
class AxiomFailure:
    axiom: str
    witnesses: tuple[tuple, ...]

    def __str__(self):
        head = ", ".join(repr(w) for w in self.witnesses[:3])
        more = "" if len(self.witnesses) <= 3 else f", +{len(self.witnesses) - 3} more"
        return f"{self.axiom}: {head}{more}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_ring`, at most 20 witnesses per axiom."""

    failures: tuple[AxiomFailure, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self):
        if self.passed:
            return "pass"
        return "; ".join(str(f) for f in self.failures)


_WITNESS_CAP = 20


def _frobenius_witnesses(ring: FusionRing) -> tuple[tuple[int, ...], ...]:
    """The first ``_WITNESS_CAP`` stored constants, in pair-major order,
    that break a Frobenius relation, as ``(i, j, k, v, N[i*,k,j], N[k,j*,i])``.

    N[i,j,k] = N[i*,k,j] says that first-label slab i is slab i*
    transposed, and N[i,j,k] = N[k,j*,i] that second-label slab j is
    slab j* transposed. Mismatches come back ascending within a slab, and
    the first relation's slabs in pair-major order, so the first cap of
    each relation, the second's taken per slab, hold the first of both.
    Once the first relation holds a cap, no position past its last one
    is among them, so the second relation reads only the rows (t, j)
    whose first label t is at most that position's.
    """
    L = ring.size
    ptr, idx, val = ring.csr()
    first, second = {}, {}  # position -> N[i*,k,j], and -> N[k,j*,i], where it differs
    for i in range(L):
        pos, held = slab_mismatches(ptr, idx, val, L, i, ring.dual[i])
        first.update(zip(pos[:_WITNESS_CAP].tolist(), held[:_WITNESS_CAP].tolist()))
        if len(first) >= _WITNESS_CAP:
            break
    rows = L
    if len(first) >= _WITNESS_CAP:
        last = sorted(first)[_WITNESS_CAP - 1]
        rows = (int(np.searchsorted(ptr, last, side="right")) - 1) // L + 1
    for j in range(L):
        pos, held = slab_mismatches(ptr, idx, val, L, j, ring.dual[j], second=True, rows=rows)
        second.update(zip(pos[:_WITNESS_CAP].tolist(), held[:_WITNESS_CAP].tolist()))
    at = np.array(sorted(first.keys() | second.keys())[:_WITNESS_CAP], dtype=np.int64)
    i, j = np.divmod(np.searchsorted(ptr, at, side="right") - 1, L)
    found = zip(at.tolist(), i.tolist(), j.tolist(), idx[at].tolist(), val[at].tolist())
    return tuple((i, j, k, v, first.get(p, v), second.get(p, v)) for p, i, j, k, v in found)


def validate_ring(ring: FusionRing) -> ValidationReport:
    """Check every fusion-ring axiom, exhaustively.

    Axioms, in reporting order: unit (left and right), duality
    involution, dual-unit pairing ``N[i,j,unit] = delta(j, dual i)``,
    Frobenius reciprocity, associativity. Witnesses are index tuples;
    associativity witnesses are ``(i, j, k, l, lhs, rhs)``. A ring that
    passes is marked as validated, which lets
    :func:`orbifusion.orbifold.cyclic_action` skip the equivariance that
    validation implies. A marked ring, one that passed before or an
    alcove ring from :func:`orbifusion.su3.su3_ring`, gets the passing
    report at once, with no scan.
    """
    if ring._validated:
        return ValidationReport(())
    failures = []
    L = ring.size
    e = ring.unit
    ptr, idx, val = ring.csr()

    # the rows (e, j) and (j, e) must be the one entry (j, 1); witnesses
    # by ascending j, (e, j) before (j, e)
    labels = np.arange(L)
    left = single_outputs(ptr, idx, val, e * L + labels) != labels
    right = single_outputs(ptr, idx, val, labels * L + e) != labels
    jj, on_right = np.nonzero(np.stack([left, right], axis=1))
    wit = [(j, e) if r else (e, j) for j, r in zip(jj[:_WITNESS_CAP].tolist(), on_right.tolist())]
    if wit:
        failures.append(AxiomFailure("unit", tuple(wit)))

    # each label once, in order
    wit = [(i,) for i in range(L) if ring.dual[ring.dual[i]] != i or (i == e and ring.dual[e] != e)]
    if wit:
        failures.append(AxiomFailure("duality-involution", tuple(wit[:_WITNESS_CAP])))

    dual = np.asarray(ring.dual, dtype=np.int64)
    at = np.flatnonzero(idx == e)
    pairs = np.searchsorted(ptr, at, side="right") - 1
    if not (np.array_equal(pairs, np.arange(L) * L + dual) and np.all(val[at] == 1)):
        by_first: dict[int, dict[tuple[int, int], int]] = {}
        for p, v in zip(pairs.tolist(), val[at].tolist()):
            by_first.setdefault(p // L, {})[(p // L, p % L)] = v
        wit = []
        for i in range(L):
            want = {(i, ring.dual[i]): 1}
            got = by_first.get(i, {})
            if got != want:
                for key in set(got) | set(want):
                    wit.append((key[0], key[1], e, got.get(key, 0), want.get(key, 0)))
        failures.append(AxiomFailure("dual-unit", tuple(sorted(wit)[:_WITNESS_CAP])))

    # Frobenius reciprocity, N[i,j,k] = N[i*,k,j] and N[i,j,k] = N[k,j*,i],
    # is decided after the associativity scan, which settles most of it.
    # With the unit, the involution, the dual-unit pairing and
    # associativity, the coefficient of the unit in (x_i x_j) x_k* =
    # x_i (x_j x_k*) gives the 3-cycle N[i,j,k] = N[j,k*,i*]. The first
    # relation says that the left multiplication L_i* is the transpose of
    # L_i. The x whose transpose L_x^T is a left multiplication form a
    # subalgebra, the words of the scan's generators span the ring, and
    # L_i^T sends the unit to x_i*, so the first relation on the
    # generators' slabs gives it on every label. The two relations give
    # the second, as the bijections fixing a table form a group. On any
    # other table the witness search decides: both relations move the
    # triples by a bijection, as the dual is one, and a bijection that
    # sends every stored constant to a stored constant of the same value
    # maps the support onto itself, so no witness means both hold
    gens = generating_set(ptr, idx, val, L)
    ok, aw = associativity_violations(ptr, idx, val, L, cap=_WITNESS_CAP, gens=gens)
    clean = ok and not failures
    if clean and all(_slab_is_moved(ptr, idx, val, L, g, ring.dual[g]) for g in gens):
        wit = ()
    else:
        wit = _frobenius_witnesses(ring)
    if wit:
        failures.append(AxiomFailure("frobenius-reciprocity", wit))
    if not ok:
        failures.append(AxiomFailure("associativity", tuple(map(tuple, aw.tolist()))))

    if not failures:
        ring._validated = True
    return ValidationReport(tuple(failures))


def require_valid(ring: FusionRing) -> None:
    """Raise :class:`ValidationError` unless the ring passes validation."""
    report = validate_ring(ring)
    if not report.passed:
        raise ValidationError(f"ring fails validation: {report}", report=report)


def fuse(ring: FusionRing, x: FormalSum, y: FormalSum) -> FormalSum:
    """Bilinear product of two formal sums."""
    acc: dict[int, int] = {}
    for i, a in x.items():
        for j, b in y.items():
            ks, vs = ring.row(i, j)
            for k, v in zip(ks, vs):
                k = int(k)
                acc[k] = acc.get(k, 0) + a * b * int(v)
    return FormalSum.make(acc)


def hom_dim(ring: FusionRing, x: FormalSum, y: FormalSum) -> int:
    """Dimension of the intertwiner space between two sums of sectors.

    For sums of irreducibles this is the coefficient dot product.
    """
    ys = dict(y.items())
    return sum(a * ys.get(i, 0) for i, a in x.items())


# stored constants fp_dimensions sums per block of first labels, roughly
_FP_BLOCK_ENTRIES = 1 << 18


def fp_dimensions(ring: FusionRing) -> DimensionTable:
    """Frobenius-Perron dimensions by power iteration.

    Iterates ``M = sum_i N_i`` (symmetric for a ring satisfying
    Frobenius reciprocity, primitive because the diagonal is positive
    and the unit connects every label) by :func:`kernels.power_iteration`,
    for at most ``FP_MAX_ITER`` steps, and normalizes so the unit has dimension
    exactly 1. The table is checked against the defining equations, to
    ``FP_TOLERANCE``, before it is returned.
    """
    L = ring.size
    ptr, idx, val = ring.csr()
    blocks = list(row_blocks(ptr[::L], _FP_BLOCK_ENTRIES))
    # add.at and bincount add in input order, and each pair's row lies in
    # one block, so M and rhs are bitwise the entry-by-entry sums
    M = np.zeros(L * L, dtype=np.float64)
    for i0, i1 in blocks:
        lo, hi = ptr[i0 * L], ptr[i1 * L]
        jk = np.repeat(np.tile(np.arange(L) * L, i1 - i0), np.diff(ptr[i0 * L : i1 * L + 1]))
        jk += idx[lo:hi]
        np.add.at(M, jk, val[lo:hi].astype(np.float64))
        del jk  # before the next block's is made
    failure = "power iteration did not converge; is the ring validated?"
    v = power_iteration(M.reshape(L, L), 1e-12, FP_MAX_ITER, failure)[1]
    # v >= 0 as M >= 0; each gate is written to fail on NaN: a unit
    # component of 0 would divide to NaN and infinity, and NaN passes ``err > tol``
    if not v[ring.unit] > 0:
        raise NumericError("dimension vector failed positivity checks")
    d = v / v[ring.unit]

    if not (
        abs(d[ring.unit] - 1.0) <= FP_TOLERANCE
        and np.all(np.isfinite(d))
        and np.min(d) >= 1 - FP_TOLERANCE
    ):
        raise NumericError("dimension vector failed positivity checks")
    rhs = np.empty(L * L, dtype=np.float64)
    for i0, i1 in blocks:
        lo, hi = ptr[i0 * L], ptr[i1 * L]
        dk = d[idx[lo:hi]]
        dk *= val[lo:hi]
        rows = np.repeat(np.arange((i1 - i0) * L), np.diff(ptr[i0 * L : i1 * L + 1]))
        rhs[i0 * L : i1 * L] = np.bincount(rows, weights=dk, minlength=(i1 - i0) * L)
        del dk, rows
    lhs = np.outer(d, d).ravel()
    if not np.max(np.abs(lhs - rhs)) <= FP_TOLERANCE * max(1.0, float(np.max(lhs))):
        raise NumericError("dimensions do not satisfy the product equations")
    for i in range(L):
        if not abs(d[i] - d[ring.dual[i]]) <= FP_TOLERANCE:
            raise NumericError("dimensions are not duality invariant")
    return DimensionTable(tuple(float(x) for x in d))


def left_permutation(ring: FusionRing, i: int) -> tuple[int, ...] | None:
    """Left fusion by label ``i`` as a label permutation, if it is one.

    ``perm[j]`` is the single k with ``N[i,j,k] = 1``. The answer is None
    when some row ``i * j`` is not a single output with constant 1, or
    when two rows share an output: exactly when the fusion matrix of
    ``i`` is not a permutation matrix. Reads the L rows of ``i`` from the
    pair-major arrays; an ``i`` outside ``[0, L)`` raises
    :class:`InputError`.
    """
    L = ring.size
    _check_label_index(i, L)
    ks = single_outputs(*ring.csr(), i * L + np.arange(L))
    if ks.min() < 0 or np.any(np.bincount(ks, minlength=L) != 1):
        return None
    return tuple(ks.tolist())


def invertibles(ring: FusionRing) -> list[str]:
    """Labels whose fusion matrix is a permutation matrix.

    Equivalent to dimension 1; `classify_group` accepts the result.
    """
    return [
        lab for i, lab in enumerate(ring.labels) if left_permutation(ring, i) is not None
    ]


@dataclass(frozen=True)
class GroupClass:
    """Isomorphism class of a small group, named by its standard form."""

    name: str
    order: int

    def __str__(self):
        return self.name


def _template_order_multisets() -> dict[tuple[int, ...], GroupClass]:
    """Order multisets of the recognizable families, computed not quoted."""

    def cyclic_orders(n):
        return [n // math.gcd(n, t) for t in range(n)]

    out: dict[tuple[int, ...], GroupClass] = {}

    def put(orders, name, order):
        key = tuple(sorted(orders))
        out.setdefault(key, GroupClass(name, order))

    for n in range(1, GROUP_ORDER_CAP + 1):
        put(cyclic_orders(n), f"Z/{n}" if n > 1 else "trivial", n)
    # products of two or three cyclic factors, smallest factors first
    for a in range(2, GROUP_ORDER_CAP + 1):
        for b in range(a, GROUP_ORDER_CAP + 1):
            if a * b > GROUP_ORDER_CAP:
                break
            # order of (s, t) in Z/a x Z/b is the lcm of the component orders
            orders = [
                math.lcm(a // math.gcd(a, s), b // math.gcd(b, t))
                for s in range(a)
                for t in range(b)
            ]
            put(orders, f"Z/{a} x Z/{b}", a * b)
            for c in range(b, GROUP_ORDER_CAP + 1):
                if a * b * c > GROUP_ORDER_CAP:
                    break
                orders3 = [
                    math.lcm(math.lcm(a // math.gcd(a, s), b // math.gcd(b, t)), c // math.gcd(c, u))
                    for s in range(a)
                    for t in range(b)
                    for u in range(c)
                ]
                put(orders3, f"Z/{a} x Z/{b} x Z/{c}", a * b * c)
    for m in range(3, GROUP_ORDER_CAP // 2 + 1):
        orders = [m // math.gcd(m, t) for t in range(m)] + [2] * m
        put(orders, f"D_{m}", 2 * m)
    return out


_GROUP_TEMPLATES = _template_order_multisets()


def classify_by_orders(orders: Sequence[int]) -> GroupClass:
    """Identify a group of order <= ``GROUP_ORDER_CAP`` from its element-order multiset.

    Cyclic groups, products of cyclics and dihedral groups are pairwise
    separated by this invariant at these orders. Anything else comes
    back as an unknown class of the right order.
    """
    key = tuple(sorted(int(o) for o in orders))
    if not key or key[0] != 1:
        raise SchemaError("order multiset must contain exactly one identity entry")
    got = _GROUP_TEMPLATES.get(key)
    if got is not None:
        return got
    return GroupClass(f"unknown group of order {len(key)}", len(key))


def classify_group(ring: FusionRing, elems: Sequence[str]) -> GroupClass:
    """Isomorphism class of a set of invertible labels, order <= ``GROUP_ORDER_CAP``.

    ``elems`` must be closed under fusion and duality; violations raise
    :class:`InputError` rather than reporting a wrong group.
    """
    ix = [ring.index(lab) for lab in elems]
    members = set(ix)
    if ring.unit not in members:
        raise InputError("the unit must belong to the invertible set")
    L = ring.size
    ptr, idx, val = ring.csr()
    table: dict[tuple[int, int], int] = {}
    for i in ix:
        if ring.dual[i] not in members:
            raise InputError(f"{ring.labels[i]!r} has its dual outside the set")
        outs = single_outputs(ptr, idx, val, i * L + np.asarray(ix, dtype=np.int64))
        for j, k in zip(ix, outs.tolist()):
            if k < 0:
                raise InputError(f"{ring.labels[i]!r} * {ring.labels[j]!r} is not a single sector")
            if k not in members:
                raise InputError(f"{ring.labels[i]!r} * {ring.labels[j]!r} leaves the set")
            table[(i, j)] = k
    if len(members) > GROUP_ORDER_CAP:
        raise InputError(f"group classification is implemented for order <= {GROUP_ORDER_CAP}")

    def element_order(g):
        acc = g
        n = 1
        while acc != ring.unit:
            acc = table[(g, acc)]
            n += 1
            if n > len(members):
                raise InputError("set is not a group under fusion")
        return n

    return classify_by_orders([element_order(g) for g in members])
