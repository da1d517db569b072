"""Independent reimplementations used as test oracles.

Everything here is deliberately naive: enumerate, backtrack,
diagonalize. The package should win on speed and agree on every value.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from orbifusion import su3
from orbifusion.errors import InputError, NumericError, SchemaError
from orbifusion.fileio import SCHEMA, _expect_format, _expect_keys, _string, _string_list
from orbifusion.kernels import _SPAN_BLOCK, _SPAN_PRIME
from orbifusion.rings import FusionRing


# ---------------------------------------------------------------------------
# one alcove ring per level for the whole suite
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def su3_ring(level: int) -> FusionRing:
    """The package's alcove ring at the level, built once per test session.

    The package keeps no cache of its own, so that a long run does not
    hold every level it has touched.
    """
    return su3.su3_ring(level)


def unvalidated(ring: FusionRing) -> FusionRing:
    """A copy of the ring, sharing its arrays, that no validation has
    passed: ``validate_ring`` scans it in full and ``cyclic_action``
    checks its equivariance, where they trust the mark of a ring that
    ``su3_ring`` built or that passed before."""
    return FusionRing.from_csr(ring.labels, ring.unit, ring.dual, *ring.csr())


def int64_width_bytes(ptr: np.ndarray, idx: np.ndarray, val: np.ndarray) -> int:
    """The bytes of a ring's arrays with ``val`` counted as int64, as a
    ring stored its constants before it kept them at their own width.
    The memory bounds are stated in these bytes, so that a smaller ring
    loosens none of them."""
    return ptr.nbytes + idx.nbytes + 8 * len(val)


# ---------------------------------------------------------------------------
# the row-order check of FusionRing.from_csr with a mask per term
# ---------------------------------------------------------------------------

def rows_out_of_order_four_masks(ptr: np.ndarray, idx: np.ndarray) -> bool:
    """Whether an index steps down or repeats inside a row, decided as
    ``FusionRing.from_csr`` decided it before it kept one mask: a mask of
    row starts, the comparison, the negated starts and their conjunction,
    each as long as the table."""
    starts = np.zeros(len(idx), dtype=bool)
    starts[ptr[:-1][ptr[:-1] < len(idx)]] = True
    return bool(np.any((idx[1:] <= idx[:-1]) & ~starts[1:]))


# ---------------------------------------------------------------------------
# ring files one row at a time, as the package read and wrote them before
# it worked on columns
# ---------------------------------------------------------------------------

def _count_by_row(x, what: str) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise SchemaError(f"{what} must be an integer, got {x!r}")
    return x


def parse_ring_by_row(doc: dict) -> FusionRing:
    """Check and convert each N row as a Python tuple, then build."""
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
    if not isinstance(rows, list):
        raise SchemaError("N must be an array of [label, label, label, count]")
    triples = []
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4):
            raise SchemaError(f"N entry must be [label, label, label, count]: {row!r}")
        a, b, c = (_string(x, "N label") for x in row[:3])
        n = _count_by_row(row[3], "N count")
        if n < 1:
            raise SchemaError(f"N count must be >= 1, got {n} at {row[:3]}")
        triples.append((a, b, c, n))
    return FusionRing.from_labels(labels, unit=unit, dual=dual, triples=triples)


def dump_ring_by_row(ring: FusionRing) -> str:
    """JSON-encode each N row as a Python list."""
    lab = ring.labels
    lines = ["{", f'  "format": {json.dumps(SCHEMA)},']
    lines.append(f'  "labels": {json.dumps(list(lab))},')
    lines.append(f'  "unit": {json.dumps(lab[ring.unit])},')
    dual = {lab[i]: lab[ring.dual[i]] for i in range(ring.size)}
    lines.append(f'  "dual": {json.dumps(dual)},')
    rows = [[lab[i], lab[j], lab[k], int(v)] for i, j, k, v in ring.iter_entries()]
    lines.append('  "N": [')
    for t, row in enumerate(rows):
        comma = "," if t + 1 < len(rows) else ""
        lines.append("    " + json.dumps(row) + comma)
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tableau rule for the classical rank-2 product
# ---------------------------------------------------------------------------

def partition3(w: tuple[int, int]) -> tuple[int, int, int]:
    """Dynkin labels (a, b) as a three-row partition (a+b, b, 0)."""
    a, b = w
    return (a + b, b, 0)


def lr_count(lam, mu, nu) -> int:
    """Skew tableaux of shape nu/lam, content mu, ballot reading word.

    Shapes have at most three rows. Cells are filled in reading order
    (each row right to left, rows top to bottom) so the ballot
    condition, the row condition, and the column condition are all
    checkable at placement time.
    """
    if any(lam[r] > nu[r] for r in range(3)):
        return 0
    if sum(mu) != sum(nu) - sum(lam):
        return 0
    cells = [(r, c) for r in range(3) for c in range(nu[r] - 1, lam[r] - 1, -1)]
    counts = [0, 0, 0, 0]
    grid: dict[tuple[int, int], int] = {}

    def place(t: int) -> int:
        if t == len(cells):
            return 1
        r, c = cells[t]
        hi = grid.get((r, c + 1), 3)
        lo = grid.get((r - 1, c), 0) if r > 0 and lam[r - 1] <= c < nu[r - 1] else 0
        total = 0
        for v in range(lo + 1, hi + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v >= 2 and counts[v] >= counts[v - 1]:
                continue
            counts[v] += 1
            grid[(r, c)] = v
            total += place(t + 1)
            counts[v] -= 1
            del grid[(r, c)]
        return total

    return place(0)


def classical_fusion(w1: tuple[int, int], w2: tuple[int, int]) -> dict:
    """Untruncated product by the tableau rule, keyed by Dynkin labels."""
    lam, mu = partition3(w1), partition3(w2)
    boxes = sum(lam) + sum(mu)
    out: dict[tuple[int, int], int] = {}
    for a in range(boxes + 1):
        for b in range(boxes + 1):
            d3, rem = divmod(boxes - (a + 2 * b), 3)
            if rem != 0 or d3 < 0:
                continue
            nu = (a + b + d3, b + d3, d3)
            if nu[0] < nu[1] or nu[1] < nu[2]:
                continue
            c = lr_count(lam, mu, nu)
            if c:
                out[(a, b)] = c
    return out


# ---------------------------------------------------------------------------
# the Kac-Walton route: Racah-Speiser over Gelfand-Tsetlin weight systems,
# then the alcove fold. The package's closed-form rule is held to it; one
# fold serves both steps, the dominant chamber being the alcove of
# infinite height.
# ---------------------------------------------------------------------------

def dim3(a: int, b: int) -> int:
    """Classical dimension of the irreducible with Dynkin labels (a, b)."""
    return (a + 1) * (b + 1) * (a + b + 2) // 2


@functools.lru_cache(maxsize=None)
def weight_system(a: int, b: int) -> dict[tuple[int, int], int]:
    """Weight multiplicities of the irreducible (a, b).

    Enumerates Gelfand-Tsetlin patterns over the partition
    ``(a+b, b, 0)``; the result maps Dynkin coordinates of each weight
    to its multiplicity and sums to the classical dimension.
    """
    m13, m23, m33 = a + b, b, 0
    acc: dict[tuple[int, int], int] = {}
    for m12 in range(m23, m13 + 1):
        for m22 in range(m33, m23 + 1):
            for m11 in range(m22, m12 + 1):
                lam1 = m11
                lam2 = m12 + m22 - m11
                lam3 = m13 + m23 + m33 - m12 - m22
                w = (lam1 - lam2, lam2 - lam3)
                acc[w] = acc.get(w, 0) + 1
    return acc


def _affine_fold(x: int, y: int, h: float) -> tuple[int, int, int]:
    """Reflect a shifted weight into the alcove at height h, with sign.

    With h = inf this is the finite Weyl fold into the dominant chamber:
    its third wall x + y = 0 needs no test, since a weight on it has a
    negative coordinate whose reflection lands on a wall x = 0 or y = 0.
    """
    s = 1
    for _ in range(1000):
        if x == 0 or y == 0 or x + y == h:
            return 0, 0, 0
        if x < 0:
            x, y, s = -x, x + y, -s
        elif y < 0:
            x, y, s = x + y, -y, -s
        elif x + y > h:
            x, y, s = h - y, h - x, -s
        else:
            return x, y, s
    raise NumericError("alcove fold failed to terminate")


def classical_lr(lam: tuple[int, int], mu: tuple[int, int]) -> dict[tuple[int, int], int]:
    """Decompose the classical tensor product (a,b) x (c,d).

    Returns a multiplicity map over dominant Dynkin weights. Candidates
    are the weights of the smaller factor shifted by the larger highest
    weight, folded by the finite Weyl group with signs.
    """
    for w in (lam, mu):
        if w[0] < 0 or w[1] < 0:
            raise InputError(f"Dynkin labels must be nonnegative, got {w}")
    if dim3(*mu) > dim3(*lam):
        lam, mu = mu, lam
    out: dict[tuple[int, int], int] = {}
    for (wa, wb), m in weight_system(*mu).items():
        x, y, s = _affine_fold(lam[0] + wa + 1, lam[1] + wb + 1, math.inf)
        if s:
            key = (x - 1, y - 1)
            out[key] = out.get(key, 0) + s * m
    out = {k: v for k, v in out.items() if v}
    if any(v < 0 for v in out.values()):
        raise NumericError("negative classical multiplicity, fold logic broken")
    return out


def kac_walton(
    lam: tuple[int, int], mu: tuple[int, int], level: int
) -> dict[tuple[int, int], int]:
    """Level-truncated fusion product of two admissible weights.

    The classical decomposition is folded into the alcove by the shifted
    affine reflections at height ``level + 3``; wall hits cancel and the
    survivors accumulate with signs into a nonnegative multiset. Levels
    outside 0 .. ``LEVEL_CAP`` are refused: the work grows with the
    weight systems, which are enumerated in Python.
    """
    if not 0 <= level <= su3.LEVEL_CAP:
        raise InputError(f"level must be between 0 and {su3.LEVEL_CAP}")
    su3._check_admissible(lam, level)
    su3._check_admissible(mu, level)
    h = level + 3
    out: dict[tuple[int, int], int] = {}
    for (a, b), m in classical_lr(lam, mu).items():
        x, y, s = _affine_fold(a + 1, b + 1, h)
        if s:
            key = (x - 1, y - 1)
            out[key] = out.get(key, 0) + s * m
    out = {k: v for k, v in out.items() if v}
    if any(v < 0 for v in out.values()):
        raise NumericError("negative truncated multiplicity, fold logic broken")
    return out


# ---------------------------------------------------------------------------
# characters: the Verlinde sum behind every alcove table
# ---------------------------------------------------------------------------

_S3 = (
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
    ((1, 0, 2), -1),
)


@functools.lru_cache(maxsize=None)
def _character_data(level: int):
    """Character values chi[w, s] and vacuum weights rho[s].

    Built from the antisymmetrized exponential determinant in centered
    shifted coordinates. Overall normalizations cancel in the ratios and
    in rho, which is normalized to sum to one.
    """
    ws = su3.admissible_weights(level)
    h = level + 3
    coords = np.empty((len(ws), 3), dtype=np.float64)
    for t, (a, b) in enumerate(ws):
        l1, l2, l3 = a + b + 2, b + 1, 0
        mean = (l1 + l2 + l3) / 3.0
        coords[t] = (l1 - mean, l2 - mean, l3 - mean)
    M = np.zeros((len(ws), len(ws)), dtype=np.complex128)
    for perm, sign in _S3:
        M += sign * np.exp(-2j * np.pi / h * (coords @ coords[:, perm].T))
    chi = M / M[0]
    rho = np.abs(M[0]) ** 2
    rho /= rho.sum()
    return chi, rho


def _gate_integer(value: complex, what: str) -> int:
    nearest = round(value.real)
    if abs(value.real - nearest) > 1e-6 or abs(value.imag) > 1e-6:
        raise NumericError(f"{what} is not integral within 1e-6: {value!r}")
    return int(nearest)


def verlinde(
    lam: tuple[int, int], mu: tuple[int, int], nu: tuple[int, int], level: int
) -> int:
    """Fusion coefficient from the character sum, gated on integrality."""
    for w in (lam, mu, nu):
        su3._check_admissible(w, level)
    chi, rho = _character_data(level)
    a, b, c = su3._windex(*lam), su3._windex(*mu), su3._windex(*nu)
    value = np.sum(chi[a] * chi[b] * np.conj(chi[c]) * rho)
    return _gate_integer(value, f"character sum for {lam} x {mu} -> {nu}")


def verlinde_table(level: int) -> np.ndarray:
    """All coefficients at once, as an integer cube indexed like the ring."""
    chi, rho = _character_data(level)
    cube = np.einsum("as,bs,cs,s->abc", chi, chi, np.conj(chi), rho)
    resid = np.max(np.abs(cube - np.round(cube.real)))
    if resid > 1e-6:
        raise NumericError(f"character table residue {resid:.3g} exceeds 1e-6")
    return np.round(cube.real).astype(np.int64)


# ---------------------------------------------------------------------------
# rank-1 truncated rule, for the chain rings
# ---------------------------------------------------------------------------

def su2_truncated(i: int, j: int, level: int) -> dict[int, int]:
    """Product of twice-spins i, j at the level, by the min rule."""
    top = min(i + j, 2 * level - i - j)
    return {k: 1 for k in range(abs(i - j), top + 1, 2)}


def su2_even_ring_from_labels(level: int):
    """The even SU(2) ring from string triples, one per nonzero constant."""
    from orbifusion import FusionRing

    ks = list(range(0, level + 1, 2))
    labels = [f"rho{k}" for k in ks]
    triples = []
    for a in ks:
        for b in ks:
            for c in range(abs(a - b), min(a + b, 2 * level - a - b) + 1, 2):
                triples.append((f"rho{a}", f"rho{b}", f"rho{c}", 1))
    return FusionRing.from_labels(
        labels, unit="rho0", dual={lab: lab for lab in labels}, triples=triples
    )


# ---------------------------------------------------------------------------
# dense checks
# ---------------------------------------------------------------------------

def dense_cube(ring) -> np.ndarray:
    L = ring.size
    N = np.zeros((L, L, L), dtype=np.int64)
    for i, j, k, v in ring.iter_entries():
        N[i, j, k] = v
    return N


def dense_associator(ring):
    """All quadruples (i, j, k, l) where the two bracketings differ."""
    N = dense_cube(ring)
    lhs = np.einsum("ijm,mkl->ijkl", N, N)
    rhs = np.einsum("jkm,iml->ijkl", N, N)
    bad = np.argwhere(lhs != rhs)
    return bad, lhs, rhs


def frobenius_left_dense(N, dual) -> bool:
    """``N[i,j,k] = N[i*,k,j]`` on the dense cube."""
    return bool(np.array_equal(N, N[list(dual)].transpose(0, 2, 1)))


def frobenius_right_dense(N, dual) -> bool:
    """``N[i,j,k] = N[k,j*,i]`` on the dense cube."""
    return bool(np.array_equal(N, N.transpose(2, 1, 0)[:, list(dual), :]))


def frobenius_cycle_dense(N, dual) -> bool:
    """``N[i,j,k] = N[j,k*,i*]`` on the dense cube."""
    d = list(dual)
    return bool(np.array_equal(N, N[:, d][:, :, d].transpose(2, 0, 1)))


def equivariant_dense(N, perm) -> bool:
    """``N[p(i),j,p(k)] = N[i,j,k]`` on the dense cube."""
    p = list(perm)
    return bool(np.array_equal(N[p][:, :, p], N))


def dual_unit_and_frobenius_sorted(ring):
    """The dual-unit and Frobenius failures as the entry-array, argsort check found them."""
    L = ring.size
    e = ring.unit
    failures = []
    ii, jj, kk, vv = ring.entry_arrays()
    sel = kk == e
    seen = {(int(a), int(b)): int(v) for a, b, v in zip(ii[sel], jj[sel], vv[sel])}
    wit = []
    for i in range(L):
        want = {(i, ring.dual[i]): 1}
        got = {key: v for key, v in seen.items() if key[0] == i}
        if got != want:
            for key in set(got) | set(want):
                wit.append((key[0], key[1], e, got.get(key, 0), want.get(key, 0)))
    if wit:
        failures.append(("dual-unit", tuple(sorted(wit)[:20])))
    dual = np.asarray(ring.dual, dtype=np.int64)
    key = (ii * L + jj) * L + kk
    frob_ok = True
    for k2 in ((dual[ii] * L + kk) * L + jj, (kk * L + dual[jj]) * L + ii):
        o2 = np.argsort(k2, kind="stable")
        if not (np.array_equal(key, k2[o2]) and np.array_equal(vv, vv[o2])):
            frob_ok = False
    if not frob_ok:
        failures.append(("frobenius-reciprocity", frobenius_witnesses_walk(ring)))
    return failures


def frobenius_witnesses_walk(ring):
    """The Frobenius witnesses as validate_ring found them before it
    compared slabs: a walk over the stored constants in pair-major
    order, two lookups each, until 20 are found. The lookups read a
    dict of the entries, not the pair-major arrays the search reads."""
    N = {(i, j, k): v for i, j, k, v in ring.iter_entries()}
    wit = []
    for (i, j, k), v in N.items():
        a = N.get((ring.dual[i], k, j), 0)
        b = N.get((k, ring.dual[j], i), 0)
        if a != v or b != v:
            wit.append((i, j, k, v, a, b))
            if len(wit) >= 20:
                break
    return tuple(wit)


# ---------------------------------------------------------------------------
# the dense-buffer symmetry scanner that validate_ring and cyclic_action
# ran before the witness search and the slab comparison took its work
# ---------------------------------------------------------------------------

# cells of the dense buffer _invariant_under fills per block of first labels
_SYM_BLOCK_CELLS = 1 << 18


def _spans(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ``arange(a, b)`` of every span, and the span of each element."""
    n = stops - starts
    span = np.repeat(np.arange(len(n)), n)
    return np.arange(int(n.sum())) + np.repeat(starts - (np.cumsum(n) - n), n), span


def _invariant_under(
    ring: FusionRing, slots: tuple[int, int, int], maps: tuple[np.ndarray | None, ...]
) -> bool:
    """Whether moving every stored constant by an index bijection gives back the table.

    The bijection sends ``x = (i, j, k)`` to ``(f0(x[s0]), f1(x[s1]),
    f2(x[s2]))`` for ``(s0, s1, s2) = slots``, where each ``f`` in
    ``maps`` is a label permutation as an int64 array, or None for the
    identity. ``s0`` is 0 or 1: the image's first label comes from the
    source's first or second label, so the sources of an image first
    label ``t`` are the L rows ``(f0^-1(t), j)`` or ``(i, f0^-1(t))``.

    Works one block of image first labels at a time: the block's
    sources are scattered into a dense buffer of about
    ``_SYM_BLOCK_CELLS`` cells, the buffer is read back at the block's
    stored positions, and the cells written are cleared again. When
    every stored constant reads back its own value the tables are
    equal: the images are as many as the stored constants, distinct,
    and every stored constant is positive. A block whose number of
    images differs from its number of stored constants fails at once.
    """
    L = ring.size
    ptr, idx, val = ring.csr()
    source = np.arange(L)
    if maps[0] is not None:
        source[maps[0]] = np.arange(L)  # the inverse of f0
    step = max(1, _SYM_BLOCK_CELLS // (L * L))
    buf = np.zeros(min(step, L) * L * L, dtype=np.int64)
    for t0 in range(0, L, step):
        t1 = min(t0 + step, L)
        src = source[t0:t1]
        if slots[0] == 0:
            rows = (src[:, None] * L + np.arange(L)).ravel()
        else:
            rows = (np.arange(L)[:, None] * L + src).ravel()
        pos, span = _spans(ptr[rows], ptr[rows + 1])
        lo, hi = ptr[t0 * L], ptr[t1 * L]
        if len(pos) != hi - lo:
            return False
        pair = rows[span]
        x = (pair // L, pair % L, idx[pos])
        t = [x[s] if f is None else f[x[s]] for s, f in zip(slots, maps)]
        cells = ((t[0] - t0) * L + t[1]) * L + t[2]
        buf[cells] = val[pos]
        here = np.repeat(np.arange((t1 - t0) * L), np.diff(ptr[t0 * L : t1 * L + 1]))
        same = np.array_equal(buf[here * L + idx[lo:hi]], val[lo:hi])
        buf[cells] = 0
        if not same:
            return False
    return True


def validate_ring_two_scans(ring):
    """``validate_ring`` as it ran before a passed associativity scan
    settled Frobenius reciprocity: both relations are scanned over the
    whole table on every ring, before the associativity scan."""
    from orbifusion.kernels import associativity_violations
    from orbifusion.rings import AxiomFailure, ValidationReport

    failures = []
    L = ring.size
    e = ring.unit

    wit = []
    for j in range(L):
        ks, vs = ring.row(e, j)
        if not (len(ks) == 1 and ks[0] == j and vs[0] == 1):
            wit.append((e, j))
        ks, vs = ring.row(j, e)
        if not (len(ks) == 1 and ks[0] == j and vs[0] == 1):
            wit.append((j, e))
        if len(wit) >= 20:
            break
    if wit:
        failures.append(AxiomFailure("unit", tuple(wit[:20])))

    # each label once, in order
    wit = [(i,) for i in range(L) if ring.dual[ring.dual[i]] != i or (i == e and ring.dual[e] != e)]
    if wit:
        failures.append(AxiomFailure("duality-involution", tuple(wit[:20])))

    ptr, idx, val = ring.csr()
    dual = np.asarray(ring.dual, dtype=np.int64)
    at = np.flatnonzero(idx == e)
    pairs = np.searchsorted(ptr, at, side="right") - 1
    if not (np.array_equal(pairs, np.arange(L) * L + dual) and np.all(val[at] == 1)):
        seen = {(int(p) // L, int(p) % L): int(v) for p, v in zip(pairs, val[at])}
        wit = []
        for i in range(L):
            want = {(i, ring.dual[i]): 1}
            got = {key: v for key, v in seen.items() if key[0] == i}
            if got != want:
                for key in set(got) | set(want):
                    wit.append((key[0], key[1], e, got.get(key, 0), want.get(key, 0)))
        failures.append(AxiomFailure("dual-unit", tuple(sorted(wit)[:20])))

    if not (
        _invariant_under(ring, (0, 2, 1), (dual, None, None))
        and _invariant_under(ring, (1, 2, 0), (None, dual, dual))
    ):
        failures.append(AxiomFailure("frobenius-reciprocity", frobenius_witnesses_walk(ring)))

    ok, aw = associativity_violations(ptr, idx, val, L, cap=20)
    if not ok:
        failures.append(AxiomFailure("associativity", tuple(map(tuple, aw.tolist()))))

    return ValidationReport(tuple(failures))


def fp_dimensions_add_at(ring):
    """``fp_dimensions`` with M and the product sums scattered by ``np.add.at``."""
    from orbifusion.errors import NumericError
    from orbifusion.rings import FP_MAX_ITER, FP_TOLERANCE, DimensionTable

    L = ring.size
    ii, jj, kk, vv = ring.entry_arrays()
    M = np.zeros((L, L), dtype=np.float64)
    np.add.at(M, (jj, kk), vv)
    v = power_iteration_loop(M, 1e-12, FP_MAX_ITER)[1]
    if v[ring.unit] <= 0:
        v = -v
    d = v / v[ring.unit]
    if abs(d[ring.unit] - 1.0) > FP_TOLERANCE or np.min(d) < 1 - FP_TOLERANCE:
        raise NumericError("dimension vector failed positivity checks")
    rhs = np.zeros(L * L, dtype=np.float64)
    np.add.at(rhs, ii * L + jj, vv * d[kk])
    lhs = np.outer(d, d).ravel()
    if np.max(np.abs(lhs - rhs)) > FP_TOLERANCE * max(1.0, float(np.max(lhs))):
        raise NumericError("dimensions do not satisfy the product equations")
    for i in range(L):
        if abs(d[i] - d[ring.dual[i]]) > FP_TOLERANCE:
            raise NumericError("dimensions are not duality invariant")
    return DimensionTable(tuple(float(x) for x in d))


def power_iteration_loop(M: np.ndarray, tol: float, max_iter: int):
    """``kernels.power_iteration`` as a plain loop that tests every step:
    ``(lam, v, t)`` at the first passing step t."""
    L = M.shape[0]
    v = np.ones(L, dtype=np.float64) / math.sqrt(L)
    for t in range(max_iter):
        w = M @ v
        lam = float(v @ w)
        if np.max(np.abs(w - lam * v)) <= tol * max(1.0, lam):
            return lam, v, t
        v = w / np.linalg.norm(w)
    raise NumericError("power iteration did not converge; is the ring validated?")


def pf_norm_loop_step(graph, max_iter: int = 500_000) -> tuple[float, int]:
    """The graph norm by the Gram-side power iteration, written plainly,
    with the index of the step whose residual test first passes."""
    B = graph.matrix().astype(np.float64)
    M = B @ B.T if B.shape[0] <= B.shape[1] else B.T @ B
    lam, _, t = power_iteration_loop(M, 1e-13, max_iter)
    return float(np.sqrt(lam)), t


def pf_norm_loop(graph, max_iter: int = 500_000) -> float:
    """The graph norm by the plain power iteration, testing every step."""
    return pf_norm_loop_step(graph, max_iter)[0]


def pf_norm_dense(graph) -> float:
    """Largest adjacency eigenvalue of the full bipartite matrix."""
    M = graph.matrix().astype(np.float64)
    ne, no = M.shape
    A = np.zeros((ne + no, ne + no))
    A[:ne, ne:] = M
    A[ne:, :ne] = M.T
    return float(np.max(np.linalg.eigvalsh(A)))


# ---------------------------------------------------------------------------
# permutation walkers and the invertibility test, written plainly
# ---------------------------------------------------------------------------

def perm_orbits(perm) -> list[tuple[int, ...]]:
    """Cycles of an index permutation, in order of least member index."""
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        out.append(tuple(cyc))
    return out


def cycle_len(perm, i: int) -> int:
    """Length of the cycle through i."""
    n = 1
    j = perm[i]
    while j != i:
        j = perm[j]
        n += 1
    return n


def perm_order(perm) -> int:
    """Order of an index permutation: the lcm of its distinct cycle lengths."""
    order = 1
    for orbit_len in {cycle_len(perm, i) for i in range(len(perm))}:
        order = math.lcm(order, orbit_len)
    return order


def part_orbits(part, vperm) -> list[tuple[str, ...]]:
    """Cycles of a vertex permutation through one part, in part order."""
    seen: set[str] = set()
    out = []
    for v in part:
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        w = vperm[v]
        while w != v:
            seen.add(w)
            cyc.append(w)
            w = vperm[w]
        out.append(tuple(cyc))
    return out


def vertex_perm_order(graph, vperm) -> int:
    """Order of a vertex permutation, walked over the even then odd part."""
    order = 1
    seen: set[str] = set()
    for v in list(graph.even) + list(graph.odd):
        if v in seen:
            continue
        size = 1
        w = vperm[v]
        seen.add(v)
        while w != v:
            seen.add(w)
            w = vperm[w]
            size += 1
        order = order * size // int(np.gcd(order, size))
    return order


def fusion_matrix(ring, i: int) -> np.ndarray:
    """Dense matrix of left fusion by label i: ``M[j, k] = N[i,j,k]``."""
    L = ring.size
    M = np.zeros((L, L), dtype=np.int64)
    for j in range(L):
        ks, vs = ring.row(i, j)
        M[j, ks] = vs
    return M


def left_permutation_dense(ring, i: int):
    """The permutation of a permutation fusion matrix, else None."""
    M = fusion_matrix(ring, i)
    if not (np.all(M.sum(axis=0) == 1) and np.all(M.sum(axis=1) == 1)):
        return None
    return tuple(int(np.argmax(M[j])) for j in range(ring.size))


def invertibles_loop(ring) -> list[str]:
    """Labels whose every row is one output with constant 1, outputs distinct."""
    out = []
    L = ring.size
    for i in range(L):
        cols = []
        for j in range(L):
            ks, vs = ring.row(i, j)
            if len(ks) != 1 or vs[0] != 1:
                break
            cols.append(int(ks[0]))
        else:
            if len(set(cols)) == L:
                out.append(ring.labels[i])
    return out


# ---------------------------------------------------------------------------
# tiny group rings
# ---------------------------------------------------------------------------

def cyclic_ring(n: int):
    from orbifusion import FusionRing

    labels = [f"g{t}" for t in range(n)]
    dual = {f"g{t}": f"g{(-t) % n}" for t in range(n)}
    triples = [
        (f"g{s}", f"g{t}", f"g{(s + t) % n}", 1) for s in range(n) for t in range(n)
    ]
    return FusionRing.from_labels(labels, unit="g0", dual=dual, triples=triples)


def klein_ring():
    from orbifusion import FusionRing

    labels = ["e", "a", "b", "c"]
    idx = {lab: t for t, lab in enumerate(labels)}
    mul = {}
    for x in labels:
        for y in labels:
            mul[(x, y)] = labels[idx[x] ^ idx[y]]
    triples = [(x, y, mul[(x, y)], 1) for x in labels for y in labels]
    return FusionRing.from_labels(
        labels, unit="e", dual={lab: lab for lab in labels}, triples=triples
    )


def broken_z3_ring():
    """Z/3 table with one product redirected; fails associativity."""
    from orbifusion import FusionRing

    triples = [
        ("e", "e", "e", 1),
        ("e", "a", "a", 1),
        ("e", "b", "b", 1),
        ("a", "e", "a", 1),
        ("b", "e", "b", 1),
        ("a", "a", "b", 1),
        ("a", "b", "e", 1),
        ("b", "a", "e", 1),
        ("b", "b", "b", 1),
    ]
    return FusionRing.from_labels(
        ["e", "a", "b"], unit="e", dual={"e": "e", "a": "b", "b": "a"}, triples=triples
    )


# ---------------------------------------------------------------------------
# unlabelled trees
# ---------------------------------------------------------------------------

def prufer_tree(code, nv: int) -> list[tuple[int, int]]:
    """Edges of the labelled tree on 0..nv-1 with the given Prüfer code."""
    degree = [1] * nv
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (t for t in range(nv) if degree[t] == 1)
    edges.append((u, w))
    return edges


def tree_canon(nv: int, edges) -> str:
    """Canonical form of an unlabelled tree.

    Leaves are peeled layer by layer down to the one or two centres,
    and the tree is encoded from each centre as nested parentheses with
    the children's codes sorted (Aho-Hopcroft-Ullman); the least code
    is the form. Two trees get equal forms exactly when isomorphic.
    """
    adj: list[list[int]] = [[] for _ in range(nv)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    layer = [v for v in range(nv) if deg[v] <= 1]
    left = nv
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, -1) for c in layer)


# ---------------------------------------------------------------------------
# the alcove builder over the full (j, k) grid
# ---------------------------------------------------------------------------

def alcove_arrays(level: int):
    """Label order and flattened weight systems for the dense reference.

    The tests use this to rebuild every table through
    :func:`orbifusion.kernels.su3_cube` and compare it with
    :func:`orbifusion.su3.su3_ring`.
    """
    ws = su3.admissible_weights(level)
    L = len(ws)
    la = np.array([a for a, _ in ws], dtype=np.int64)
    lb = np.array([b for _, b in ws], dtype=np.int64)
    systems = [weight_system(a, b) for a, b in ws]
    woff = np.zeros(L + 1, dtype=np.int64)
    for t, sys in enumerate(systems):
        woff[t + 1] = woff[t] + len(sys)
    wflat = np.empty((int(woff[-1]), 3), dtype=np.int64)
    pos = 0
    for sys in systems:
        for (wa, wb), m in sys.items():
            wflat[pos] = (wa, wb, m)
            pos += 1
    return ws, L, la, lb, wflat, woff


def su3_csr_full_grid(la: np.ndarray, lb: np.ndarray, level: int):
    """The package's closed-form builder as it ran before it kept to the
    triality-matched cells: the rule and the divisibility test on every
    (j, k) cell of each slab."""
    L = len(la)
    la = np.asarray(la, dtype=np.int32)
    lb = np.asarray(lb, dtype=np.int32)
    # rows j carry mu = weight j, columns k carry nu = conj(weight k);
    # everything that does not involve lam is formed once
    m1, m2 = la[:, None], lb[:, None]
    n1, n2 = lb[None, :], la[None, :]
    t_mn = 2 * (m1 + n1) + (m2 + n2)  # 2 S1 + S2 without lam
    s_mn = (m1 + n1) + (m2 + n2)  # S1 + S2 without lam
    low_mn = np.maximum(m1 + m2, n1 + n2)
    min1, min2 = np.minimum(m1, n1), np.minimum(m2, n2)
    grid_k = np.tile(np.arange(L, dtype=np.int32), L)
    counts = np.empty((L, L), dtype=np.int64)
    idx_parts, val_parts = [], []
    for i in range(L):
        l1, l2 = int(la[i]), int(lb[i])
        t = t_mn + (2 * l1 + l2)
        a = t // 3
        b = s_mn + (l1 + l2) - a  # a + b = S1 + S2
        low = np.maximum(low_mn, l1 + l2)
        np.maximum(low, a - np.minimum(min1, l1), out=low)
        np.maximum(low, b - np.minimum(min2, l2), out=low)
        n = np.minimum(np.minimum(a, b), level) - low + 1
        hit = (n > 0) & (3 * a == t)
        counts[i] = np.count_nonzero(hit, axis=1)
        at = np.flatnonzero(hit)  # row-major: ascending (j, k)
        idx_parts.append(grid_k.take(at))
        val_parts.append(n.ravel().take(at))
    ptr = np.zeros(L * L + 1, dtype=np.int64)
    np.cumsum(counts.ravel(), out=ptr[1:])
    idx = np.concatenate(idx_parts)
    val = np.concatenate(val_parts, dtype=np.int64)
    return ptr, idx, val


# ---------------------------------------------------------------------------
# the generator search closing under every generator, the unit included
# ---------------------------------------------------------------------------

# The package's span basis as it was before its rows were preallocated
# and shared with the words: its rows and pivots grow by np.vstack and
# np.append, so the reference closure shares no basis code with the
# search, only the prime and the right-multiplication triples.
class _SpanBasis:
    """Fully reduced row basis modulo _SPAN_PRIME."""

    def __init__(self, L: int):
        self.rows = np.zeros((0, L), dtype=np.int64)
        self.pivots = np.zeros(0, dtype=np.int64)
        self.row_of = np.full(L, -1, dtype=np.int64)  # pivot -> its row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def residual(self, vec: np.ndarray) -> np.ndarray:
        out = vec % _SPAN_PRIME
        for lo in range(0, self.rank, _SPAN_BLOCK):
            hi = min(lo + _SPAN_BLOCK, self.rank)
            coeff = out[self.pivots[lo:hi]]
            if coeff.any():
                out = (out - coeff @ self.rows[lo:hi]) % _SPAN_PRIME
        return out

    def spans_unit_vector(self, b: int) -> bool:
        """Whether e_b is in the span: the rows are fully reduced, so
        exactly when b is a pivot whose row is e_b."""
        r = self.row_of[b]
        return r >= 0 and np.count_nonzero(self.rows[r]) == 1

    def insert(self, vec: np.ndarray) -> bool:
        """Adjoin vec; False when it is already in the span."""
        res = self.residual(vec)
        nz = np.nonzero(res)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        inv = pow(int(res[piv]), _SPAN_PRIME - 2, _SPAN_PRIME)
        row = res * inv % _SPAN_PRIME
        if self.rank:
            coeff = self.rows[:, piv]
            hit = np.nonzero(coeff)[0]
            if hit.size:
                self.rows[hit] = (
                    self.rows[hit] - coeff[hit, None] * row[None, :]
                ) % _SPAN_PRIME
        self.row_of[piv] = self.rank
        self.rows = np.vstack([self.rows, row[None, :]])
        self.pivots = np.append(self.pivots, piv)
        return True


def generating_set_every_closure(ptr: np.ndarray, idx: np.ndarray, val: np.ndarray, L: int):
    """The package's generator search as it ran before it skipped the
    closure under an identity right multiplication, on its own basis
    that grows by stacking and a separate list of every accepted word."""
    from orbifusion.kernels import _right_mult_arrays

    basis = _SpanBasis(L)
    gens: list[int] = []
    ops = []
    words: list[np.ndarray] = []
    pos: list[int] = []
    while basis.rank < L:
        for b in range(L):
            probe = np.zeros(L, dtype=np.int64)
            probe[b] = 1
            if basis.residual(probe).any():
                gens.append(b)
                ops.append(_right_mult_arrays(ptr, idx, val, L, b))
                pos.append(0)
                basis.insert(probe)
                words.append(probe)
                break
        moved = True
        while moved:
            moved = False
            for gi in range(len(gens)):
                rows, cols, vals = ops[gi]
                while pos[gi] < len(words):
                    w = words[pos[gi]]
                    pos[gi] += 1
                    out = np.zeros(L, dtype=np.int64)
                    np.add.at(out, cols, w[rows] * vals % _SPAN_PRIME)
                    out %= _SPAN_PRIME
                    if basis.insert(out):
                        words.append(out)
                        moved = True
    return gens


# ---------------------------------------------------------------------------
# the associativity scan as sparse products on an (L, L*L) copy of the
# table, over every generator or past the identity slabs
# ---------------------------------------------------------------------------

_ASSOC_BLOCK = 2_000_000  # product entries per block of j rows, roughly


def _flat_matrix(ptr, idx, val, L):
    """The table as an (L, L*L) matrix: flat[m, k*L + l] = N_{mk}^l."""
    import scipy.sparse as sp

    itype = np.int32 if L * L <= np.iinfo(np.int32).max else np.int64
    cols = np.repeat(np.tile(np.arange(L, dtype=itype) * L, L), np.diff(ptr))
    cols += idx
    return sp.csr_matrix((val, cols, ptr[::L]), shape=(L, L * L))


def _assoc_gen(ptr, idx, val, L, g, cap, flat):
    # Both bracketings of (g, j, k) over a block of j rows, as two sparse
    # products over the same middle index: rg[x, m] = N_{gx}^m serves as
    # the left factor of the first and, read as (m, l), the right factor
    # of the second. The second product has rows (j, k) and is reshaped
    # to the (j, k*L + l) layout of the first, so the two subtract
    # directly; a clean block leaves an empty difference and costs no
    # sort. Blocks run in ascending j and the rows of a nonzero
    # difference are sorted, so witnesses come in ascending (j, k, l).
    import scipy.sparse as sp

    lo, hi = ptr[g * L], ptr[(g + 1) * L]
    rg = sp.csr_matrix(
        (val[lo:hi], idx[lo:hi], ptr[g * L : (g + 1) * L + 1] - lo), shape=(L, L)
    )
    # cumulative multiply count of the first product, row by row
    slab = np.diff(ptr[::L])
    work = np.concatenate(([0], np.cumsum(slab[rg.indices])))[rg.indptr]
    found: list[np.ndarray] = []
    room = cap
    j0 = 0
    while j0 < L and room > 0:
        j1 = int(np.searchsorted(work, work[j0] + _ASSOC_BLOCK, side="right")) - 1
        j1 = max(j1, j0 + 1)
        nb = j1 - j0
        lhs = rg[j0:j1] @ flat
        a, b = ptr[j0 * L], ptr[j1 * L]
        full = sp.csr_matrix(
            (val[a:b], idx[a:b], ptr[j0 * L : j1 * L + 1] - a), shape=(nb * L, L)
        )
        rhs = full @ rg
        kl = np.repeat(
            np.tile(np.arange(L, dtype=flat.indices.dtype) * L, nb), np.diff(rhs.indptr)
        )
        kl += rhs.indices
        rhs = sp.csr_matrix((rhs.data, kl, rhs.indptr[::L]), shape=(nb, L * L))
        diff = lhs - rhs
        diff.eliminate_zeros()
        if diff.nnz:
            diff.sort_indices()
            rows = np.repeat(np.arange(nb), np.diff(diff.indptr))[:room]
            cols = diff.indices[:room]
            left = np.asarray(lhs[rows, cols]).ravel().astype(np.int64)
            wit = np.zeros((len(rows), 6), dtype=np.int64)
            wit[:, 0] = g
            wit[:, 1] = j0 + rows
            wit[:, 2] = cols // L
            wit[:, 3] = cols % L
            wit[:, 4] = left
            wit[:, 5] = left - diff.data[:room]
            found.append(wit)
            room -= len(wit)
        j0 = j1
    if not found:
        return True, np.zeros((0, 6), dtype=np.int64)
    return False, np.vstack(found)


def associativity_scan_every_generator(ptr, idx, val, L: int, cap: int = 20):
    """The package's scan as it ran before it skipped identity slabs."""
    return associativity_scan_sparse(ptr, idx, val, L, cap, skip_identity=False)


def associativity_scan_sparse(ptr, idx, val, L: int, cap: int = 20, *, skip_identity=True):
    """The package's scan as it ran before it scanned small rings densely
    and before it compared the bracketings in the pair-major layout:
    sparse products on an (L, L*L) copy of the table, whatever its size,
    on the int64 constants a ring held then."""
    from orbifusion.kernels import generating_set, single_outputs

    val = val.astype(np.int64)
    gens = generating_set(ptr, idx, val, L)
    flat = _flat_matrix(ptr, idx, val, L)
    labels = np.arange(L)
    found: list[np.ndarray] = []
    room = cap
    for g in gens:
        if room <= 0:
            break
        if skip_identity and np.array_equal(single_outputs(ptr, idx, val, g * L + labels), labels):
            continue
        ok, wit = _assoc_gen(ptr, idx, val, L, g, room, flat)
        if not ok:
            found.append(wit)
            room -= len(wit)
    if not found:
        return True, np.zeros((0, 6), dtype=np.int64)
    return False, np.vstack(found)


# ---------------------------------------------------------------------------
# transport of a ring action to its graph, comparing every pair of columns
# ---------------------------------------------------------------------------

def induced_graph_symmetry_pairwise(ring, action, graph, even_map):
    """The odd extension as the package found it before it bucketed the
    columns: every unassigned vertex against every untaken one."""
    from orbifusion.errors import AmbiguousMatchingError, InputError
    from orbifusion.graphs import validate_symmetry

    if set(even_map.keys()) != set(graph.even):
        raise InputError("even_map must cover exactly the even vertices")
    if len(set(even_map.values())) != len(even_map):
        raise InputError("even_map must be injective")
    ring_to_vertex = {lab: v for v, lab in even_map.items()}

    evperm = {}
    for v in graph.even:
        img_ring = ring.labels[action.perm[ring.index(even_map[v])]]
        if img_ring not in ring_to_vertex:
            raise InputError(
                f"the action moves {even_map[v]!r} to {img_ring!r}, "
                "which is not among the mapped even vertices"
            )
        evperm[v] = ring_to_vertex[img_ring]

    M = graph.matrix()
    ei = {lab: i for i, lab in enumerate(graph.even)}
    pe = np.array([ei[evperm[lab]] for lab in graph.even])
    R = M[pe, :]

    no = len(graph.odd)
    assigned: dict[int, int] = {}
    taken: set[int] = set()
    while len(assigned) < no:
        progress = False
        for o in range(no):
            if o in assigned:
                continue
            cands = [
                t
                for t in range(no)
                if t not in taken and np.array_equal(R[:, t], M[:, o])
            ]
            if not cands:
                raise InputError(
                    f"odd vertex {graph.odd[o]!r} has no image compatible with the action"
                )
            if len(cands) == 1:
                assigned[o] = cands[0]
                taken.add(cands[0])
                progress = True
        if not progress:
            stuck = next(o for o in range(no) if o not in assigned)
            raise AmbiguousMatchingError(
                f"odd vertex {graph.odd[stuck]!r} has several compatible images; "
                "supply the vertex permutation explicitly"
            )

    vperm = dict(evperm)
    for o, t in assigned.items():
        vperm[graph.odd[o]] = graph.odd[t]
    return validate_symmetry(graph, vperm, action.order)


# ---------------------------------------------------------------------------
# the quotient step as it was written before it read each edge once
# ---------------------------------------------------------------------------

def fold_graph_class_pairs(sym):
    """The fold as the package wrote it before it read each edge once:
    plan every orbit, then sum over every pair of (even class, odd class)."""
    from orbifusion.errors import UnsupportedStructureError
    from orbifusion.graphs import BipartiteGraph
    from orbifusion.orbifold import cycles

    g = sym.graph
    n = sym.order
    if n == 1:
        return g

    plans = {}
    for part_name, part in (("even", g.even), ("odd", g.odd)):
        entries = []  # (kind, members, output labels)
        owner: dict[str, tuple[int, str]] = {}
        for orbit in cycles(part, sym.vperm):
            if len(orbit) == n:
                rep = min(orbit)
                entries.append(("merged", orbit, [rep]))
                for v in orbit:
                    owner[v] = (len(entries) - 1, rep)
            elif len(orbit) == 1:
                f = orbit[0]
                entries.append(("fixed", orbit, [f"{f}#{k}" for k in range(n)]))
                owner[f] = (len(entries) - 1, f)
            else:
                raise UnsupportedStructureError(
                    f"vertex orbit {orbit} has size {len(orbit)}, strictly between 1 and {n}"
                )
        plans[part_name] = (entries, owner)

    eentries, eowner = plans["even"]
    oentries, oowner = plans["odd"]
    for (e, o), m in g.mult.items():
        if eentries[eowner[g.even[e]][0]][0] == "fixed" and oentries[oowner[g.odd[o]][0]][0] == "fixed":
            raise UnsupportedStructureError(
                f"fixed vertices {g.even[e]!r} and {g.odd[o]!r} are adjacent; "
                "the edge rule between two split families is not determined"
            )

    def rep_of(entry):
        return min(entry[1])

    medges: dict[tuple[str, str], int] = {}
    mlookup = {(g.even[e], g.odd[o]): m for (e, o), m in g.mult.items()}
    for ee in eentries:
        for oe in oentries:
            if ee[0] == "merged" and oe[0] == "merged":
                m = sum(mlookup.get((rep_of(ee), b), 0) for b in oe[1])
                if m:
                    medges[(ee[2][0], oe[2][0])] = m
            elif ee[0] == "merged" and oe[0] == "fixed":
                m = mlookup.get((rep_of(ee), oe[1][0]), 0)
                if m:
                    for piece in oe[2]:
                        medges[(ee[2][0], piece)] = m
            elif ee[0] == "fixed" and oe[0] == "merged":
                m = mlookup.get((ee[1][0], rep_of(oe)), 0)
                if m:
                    for piece in ee[2]:
                        medges[(piece, oe[2][0])] = m

    new_even = [lab for ee in eentries for lab in ee[2]]
    new_odd = [lab for oe in oentries for lab in oe[2]]
    return BipartiteGraph.from_edges(
        even=new_even,
        odd=new_odd,
        edges=[(e, o, m) for (e, o), m in medges.items()],
    )


def orbifold_sectors_two_branches(inp, obstruction, dims=None):
    """The sectors as the package built them before order 1 ran the
    general rule: a copy of the ring for n = 1, and a second scan for
    rho when none was given."""
    from dataclasses import replace

    from orbifusion.errors import AssumptionError, InputError, UnsupportedStructureError
    from orbifusion.orbifold import (
        MergedClass,
        OrbifoldSectors,
        SplitFamily,
        conjugacy_assignment,
    )
    from orbifusion.rings import fp_dimensions

    action = inp.action
    ring = action.ring
    n = action.order
    if obstruction.n != n:
        raise InputError(
            f"obstruction modulus {obstruction.n} does not match the action order {n}"
        )
    m = inp.assumptions.m
    if m is not None and math.gcd(m, n) == 1 and not obstruction.is_trivial:
        raise InputError(
            f"obstruction {obstruction.describe()} contradicts the gcd test: "
            f"gcd({m}, {n}) = 1 certifies the trivial value"
        )
    if dims is None:
        dims = fp_dimensions(ring)

    if n == 1:
        merged = tuple(
            MergedClass(members=(lab,), representative=lab, dimension=dims[i])
            for i, lab in enumerate(ring.labels)
        )
        sectors = OrbifoldSectors(
            ring=ring,
            n=1,
            obstruction=obstruction,
            merged=merged,
            split=(),
            dual_perm={lab: lab for lab in ring.labels},
            conjugacy=None,
            dims=dims,
        )
        return replace(sectors, conjugacy=conjugacy_assignment(sectors))

    # the gate and the scan as the package wrote them then
    report = inp.assumptions
    for name in ("A1", "A3"):
        it = report.item(name)
        if not it.passed:
            raise AssumptionError(name, it.detail)
    rho = inp.rho
    if rho is None:
        rho = [
            i
            for i in range(ring.size)
            if ring.dual[i] == i and action.perm[i] == i and ring.n(i, i, i) >= 1
        ][0]

    l = obstruction.l
    p = n // l
    merged: list = []
    split: list = []
    for orbit in action.orbits():
        if len(orbit) == n:
            members = tuple(ring.labels[i] for i in orbit)
            merged.append(
                MergedClass(members=members, representative=min(members), dimension=dims[orbit[0]])
            )
        elif len(orbit) == 1:
            f = orbit[0]
            lab = ring.labels[f]
            split.append(
                SplitFamily(
                    source=lab,
                    pieces=tuple(f"{lab}#{k}" for k in range(p)),
                    dimension=l * dims[f] / n,
                    extrapolated=f != rho,
                )
            )
        else:
            raise UnsupportedStructureError(
                f"orbit {tuple(ring.labels[i] for i in orbit)} has size {len(orbit)}, "
                f"strictly between 1 and {n}; only free orbits and fixed labels are handled"
            )

    dual_perm = {c.representative: c.representative for c in merged}
    for fam in split:
        for k, piece in enumerate(fam.pieces):
            dual_perm[piece] = fam.pieces[(k + 1) % p]

    sectors = OrbifoldSectors(
        ring=ring,
        n=n,
        obstruction=obstruction,
        merged=tuple(merged),
        split=tuple(split),
        dual_perm=dual_perm,
        conjugacy=None,
        dims=dims,
    )
    if p == n:
        sectors = replace(sectors, conjugacy=conjugacy_assignment(sectors))
    return sectors
