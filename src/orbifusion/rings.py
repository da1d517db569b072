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
from .kernels import associativity_violations, generating_set, row_blocks, single_outputs

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


def _pair_major(L: int, p: np.ndarray, k: np.ndarray, n: np.ndarray):
    """Entries keyed by pair ``p = i * L + j`` as sorted ``(ptr, idx, val)``.

    A repeated ``(p, k)`` or a constant past the int64 bound raises.
    """
    order = np.lexsort((k, p))
    p, k, n = p[order], k[order], n[order]
    if np.any((p[1:] == p[:-1]) & (k[1:] == k[:-1])):
        raise SchemaError("duplicate (i, j, k) entry")
    _check_constant_bound(L, int(n.max()) if len(n) else 0)
    ptr = np.zeros(L * L + 1, dtype=np.int64)
    np.cumsum(np.bincount(p, minlength=L * L), out=ptr[1:])
    return ptr, k.astype(np.int32), n.astype(np.int64)


def _checked_entry(t, L: int) -> tuple[int, int, int, int]:
    """One ``(i, j, k, n)`` entry as ints, or the error it raises."""
    i, j, k, n = t
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
        Every ``n`` must satisfy ``L * n**2 < 2**63`` so that sums of
        products of constants stay exact in int64.

    Notes
    -----
    The pair-major arrays are read-only from construction on, and
    :meth:`csr` hands out those arrays themselves. The one field set
    later is ``_validated``, a memo that only :func:`validate_ring`
    sets, and only when the ring passes;
    :func:`orbifusion.orbifold.cyclic_action` reads it. Every operation
    on a ring is a pure function, so sharing between threads is safe.
    """

    __slots__ = ("labels", "unit", "dual", "_ptr", "_idx", "_val", "_index", "_validated")

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
            rows = [(i, j, k, n) for (i, j, k), n in nconst.items()]
        else:
            rows = [tuple(t) for t in nconst]
        try:
            ent = np.asarray(rows) if rows else np.zeros((0, 4), dtype=np.int64)
        except ValueError:  # rows of unequal length: the loop below reports them
            ent = np.zeros(0, dtype=object)
        if ent.dtype.kind == "i" and ent.shape == (len(rows), 4):
            ent = ent.astype(np.int64, copy=False)
            ijk, n = ent[:, :3], ent[:, 3]
            bad = np.flatnonzero(np.any((ijk < 0) | (ijk >= L), axis=1) | (n < 0))
            if len(bad):
                _checked_entry(rows[bad[0]], L)
        else:
            # floats, strings, constants beyond int64: one entry at a time
            ent = np.array([_checked_entry(t, L) for t in rows], dtype=object).reshape(-1, 4)
            ijk, n = ent[:, :3].astype(np.int64), ent[:, 3]
        keep = np.flatnonzero(n != 0)
        self._adopt(*_pair_major(L, ijk[keep, 0] * L + ijk[keep, 1], ijk[keep, 2], n[keep]))
        self.labels = labels
        self.unit = int(unit)
        self.dual = dual
        self._index = {lab: t for t, lab in enumerate(labels)}

    def _adopt(self, ptr: np.ndarray, idx: np.ndarray, val: np.ndarray) -> None:
        """Take the pair-major arrays as they are, read-only, not yet validated."""
        for a in (ptr, idx, val):
            a.setflags(write=False)
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
        """Build from int64 entry columns ``(i, j, k, n)`` in any order.

        Every count must be >= 1. The header checks, the check for a
        repeated triple and the constant bound run in the main
        constructor's order with its messages; the columns are sorted
        into pair-major arrays and adopted through :meth:`from_csr`.
        """
        labels, dual = _checked_header(labels, unit, dual)
        L = len(labels)
        for col in (i, j):  # from_csr checks k
            if len(col) and (col.min() < 0 or col.max() >= L):
                raise SchemaError("structure constant index out of range")
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
        self.labels = labels
        self.unit = int(unit)
        self.dual = dual
        ptr, idx, val = (np.asarray(a) for a in (ptr, idx, val))
        for name, a in (("ptr", ptr), ("idx", idx), ("val", val)):
            if a.size and a.dtype.kind not in "iu":
                raise SchemaError(f"{name} must be an integer array, got dtype {a.dtype}")
        ptr, val = ptr.astype(np.int64, copy=False), val.astype(np.int64, copy=False)
        if ptr[0] != 0 or np.any(ptr[1:] < ptr[:-1]):
            raise SchemaError("ptr must start at 0 and never decrease")
        if not (ptr[-1] == len(idx) == len(val)):
            raise SchemaError("ptr must end at the number of stored constants")
        if len(idx) and (idx.min() < 0 or idx.max() >= L):
            raise SchemaError("structure constant index out of range")
        # a step down or a repeat is allowed only where a new row starts
        starts = np.zeros(len(idx), dtype=bool)
        starts[ptr[:-1][ptr[:-1] < len(idx)]] = True
        if np.any((idx[1:] <= idx[:-1]) & ~starts[1:]):
            raise SchemaError("output indices must increase strictly within each row")
        if len(val):
            if val.min() < 1:
                raise SchemaError("stored structure constants must be positive")
            _check_constant_bound(L, int(val.max()))
        self._adopt(ptr, idx.astype(np.int32, copy=False), val)
        self._index = {lab: t for t, lab in enumerate(labels)}
        return self

    # -- basic queries ----------------------------------------------------

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
        return float(sum(d * d for d in self.dims))


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


def _slab_is_moved(ptr, idx, val, L: int, g: int, h: int, rename=None) -> bool:
    """Whether slab h is slab g moved: ``N[h,k,j] = N[g,j,k]`` for all j, k
    (the transpose) when ``rename`` is None, else ``N[h,j,rename[k]] =
    N[g,j,k]`` (the outputs renamed by the label permutation ``rename``).
    Work and memory are of the size of the slabs."""
    a, b = ptr[g * L], ptr[(g + 1) * L]
    c, d = ptr[h * L], ptr[(h + 1) * L]
    if b - a != d - c:
        return False
    rows_g = np.repeat(np.arange(L), np.diff(ptr[g * L : (g + 1) * L + 1]))
    rows_h = np.repeat(np.arange(L), np.diff(ptr[h * L : (h + 1) * L + 1]))
    # the key j * L + k of each moved constant; slab h's own keys ascend
    if rename is None:
        moved = idx[a:b] * L + rows_g
    else:
        moved = rows_g * L + rename[idx[a:b]]
    # the moved keys are distinct, and the sorted rows of slab g leave
    # them in runs, which a stable sort merges faster than quicksort
    order = np.argsort(moved, kind="stable")
    return np.array_equal(moved[order], rows_h * L + idx[c:d]) and np.array_equal(
        val[a:b][order], val[c:d]
    )


# stored constants the Frobenius witness search reads per step
_WITNESS_CHUNK = 1 << 16


def _frobenius_witnesses(ring: FusionRing) -> tuple[tuple[int, ...], ...]:
    """The first ``_WITNESS_CAP`` stored constants, in pair-major order,
    that break a Frobenius relation, as ``(i, j, k, v, N[i*,k,j], N[k,j*,i])``.

    The key ``(i * L + j) * L + k`` of the stored constants ascends, so
    both lookups are binary searches over it, a chunk of constants at a
    time, until the witnesses are found. Each chunk's queries are
    searched in ascending order, which keeps the searches in cache.
    """
    L = ring.size
    ptr, idx, val = ring.csr()
    dual = np.asarray(ring.dual, dtype=np.int64)
    key = np.repeat(np.arange(L * L, dtype=np.int64) * L, np.diff(ptr))
    key += idx

    def lookup(q):
        order = np.argsort(q)
        qs = q[order]
        t = np.minimum(np.searchsorted(key, qs), len(key) - 1)
        out = np.empty_like(q)
        out[order] = np.where(key[t] == qs, val[t], 0)
        return out

    wit: list[tuple[int, ...]] = []
    for lo in range(0, len(key), _WITNESS_CHUNK):
        q = key[lo : lo + _WITNESS_CHUNK]
        v = val[lo : lo + _WITNESS_CHUNK]
        ij, k = np.divmod(q, L)
        i, j = np.divmod(ij, L)
        a = lookup((dual[i] * L + k) * L + j)
        b = lookup((k * L + dual[j]) * L + i)
        bad = np.flatnonzero((a != v) | (b != v))[: _WITNESS_CAP - len(wit)]
        wit += map(tuple, np.stack([i, j, k, v, a, b], axis=1)[bad].tolist())
        if len(wit) >= _WITNESS_CAP:
            break
    return tuple(wit)


def validate_ring(ring: FusionRing) -> ValidationReport:
    """Check every fusion-ring axiom, exhaustively.

    Axioms, in reporting order: unit (left and right), duality
    involution, dual-unit pairing ``N[i,j,unit] = delta(j, dual i)``,
    Frobenius reciprocity, associativity. Witnesses are index tuples;
    associativity witnesses are ``(i, j, k, l, lhs, rhs)``. A ring that
    passes is marked as validated, which lets
    :func:`orbifusion.orbifold.cyclic_action` skip the equivariance that
    validation implies.
    """
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

    wit = [(i,) for i in range(L) if ring.dual[ring.dual[i]] != i]
    if ring.dual[e] != e:
        wit.append((e,))
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
    and the unit connects every label) from the all-ones vector, for at
    most ``FP_MAX_ITER`` steps, and normalizes so the unit has dimension
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
    M = M.reshape(L, L)
    v = np.ones(L, dtype=np.float64) / math.sqrt(L)
    for _ in range(FP_MAX_ITER):
        w = M @ v
        lam = float(v @ w)
        if np.max(np.abs(w - lam * v)) <= 1e-12 * max(1.0, lam):
            break
        v = w / np.linalg.norm(w)
    else:
        raise NumericError("power iteration did not converge; is the ring validated?")
    if v[ring.unit] <= 0:
        v = -v
    # each gate is written to fail on NaN: a unit component of 0 would
    # divide to NaN and infinity, and a NaN passes ``err > tol``
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
