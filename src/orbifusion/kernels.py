"""Hot loops over the pair-major constant arrays.

Structure constants are stored pair-major: for labels ``0..L-1`` the row
for the pair ``(i, j)`` is ``idx[ptr[i*L+j] : ptr[i*L+j+1]]`` (strictly
increasing output indices ``k``) with matching entries in ``val``.
Everything here works on those raw arrays so the same code serves
hand-built rings and the bulk SU(3) builder.

The bulk SU(3) builder :func:`su3_csr` evaluates the closed-form
su(3)_k fusion rule one slab of first labels at a time, on the
triality-matched cells only, and writes the pair-major arrays directly,
in memory of order the number of nonzeros. :func:`su3_row` evaluates
the same slab body on a single row, for one product.
The dense cube builder :func:`su3_cube` and :func:`cube_to_csr` are kept
as the independent reference the tests compare it against.

The associativity scan compares the two bracketings over blocks of rows,
so its memory stays bounded by the block size rather than by the ring.
A ring whose cube L**3 fits the budget ``_DENSE_CELLS`` is compared on
a dense int64 copy of the table with numpy alone; a larger one through
scipy's sparse products, the only use of scipy in the package. Those
read the pair-major arrays in place as an (L*L, L) matrix with rows
(i, j) and give both bracketings in the same (j, k) by l layout, in
blocks of j rows sized so that each product, and the kron that forms
the left one, holds at most about ``_ASSOC_BLOCK`` (half a million)
entries on any table, valid or not, unless one j row alone holds more.

Two readings of the layout serve the rest of the package:
:func:`single_outputs` tells which rows are one entry (k, 1), which
decides the unit, the invertible labels and the identity slabs the scan
skips, and :func:`row_blocks` cuts rows into memory-bounded blocks by
their cumulative weights, for the scan and for ``fp_dimensions``.
"""

from __future__ import annotations

import numpy as np


def single_outputs(ptr: np.ndarray, idx: np.ndarray, val: np.ndarray, pairs) -> np.ndarray:
    """Per pair in ``pairs``, the output k of its row when the row is the
    one entry (k, 1), else -1, as an int64 array."""
    pairs = np.asarray(pairs, dtype=np.int64)
    starts = ptr[pairs]
    one = ptr[pairs + 1] - starts == 1
    out = np.full(len(pairs), -1, dtype=np.int64)
    at = starts[one]
    out[one] = np.where(val[at] == 1, idx[at], -1)
    return out


def row_blocks(ends: np.ndarray, budget: int):
    """Ranges ``(r0, r1)`` covering the rows in order, row r weighing
    ``ends[r + 1] - ends[r]``, each holding at most ``budget`` or else a
    single row."""
    rows = len(ends) - 1
    r0 = 0
    while r0 < rows:
        r1 = int(np.searchsorted(ends, ends[r0] + budget, side="right")) - 1
        r1 = max(r1, r0 + 1)
        yield r0, r1
        r0 = r1


# ---------------------------------------------------------------------------
# associativity
# ---------------------------------------------------------------------------
#
# Scanning every bracketing of every triple costs a constant times the
# number of elementary products, which grows out of hand around three
# hundred labels. The scan below is still exhaustive: the set of
# elements a with (a x) y = a (x y) for all x, y is a linear subspace
# closed under the product (the left nucleus), so once a set G of basis
# elements is found whose left-bracketed words span the whole ring, the
# triples with first slot in G decide every other triple. Spanning is
# certified by a rank computation modulo a prime; a modular rank drop
# can only make G larger than necessary, never accept a bad table.

_SPAN_PRIME = 104857601  # 25 * 2^22 + 1
_SPAN_BLOCK = 512  # keeps blocked dot products inside int64


class _SpanBasis:
    """Fully reduced row basis modulo _SPAN_PRIME, in place: the first
    ``rank`` of L preallocated rows, with their pivots."""

    def __init__(self, L: int):
        self.rows = np.zeros((L, L), dtype=np.int64)
        self.pivots = np.zeros(L, dtype=np.int64)
        self.row_of = np.full(L, -1, dtype=np.int64)  # pivot -> its row
        self.rank = 0

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
        """Adjoin vec as row ``rank``; False when it is already in the span."""
        res = self.residual(vec)
        nz = np.nonzero(res)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        inv = pow(int(res[piv]), _SPAN_PRIME - 2, _SPAN_PRIME)
        row = res * inv % _SPAN_PRIME
        r = self.rank
        coeff = self.rows[:r, piv]
        hit = np.nonzero(coeff)[0]
        if hit.size:
            self.rows[hit] = (self.rows[hit] - coeff[hit, None] * row[None, :]) % _SPAN_PRIME
        self.rows[r] = row
        self.pivots[r] = piv
        self.row_of[piv] = r
        self.rank = r + 1
        return True


def _right_mult_arrays(ptr, idx, val, L, g):
    """Triples of the right-multiplication operator v -> v * x_g."""
    starts = ptr[np.arange(L, dtype=np.int64) * L + g]
    counts = ptr[np.arange(L, dtype=np.int64) * L + g + 1] - starts
    total = int(counts.sum())
    offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
    take = np.repeat(starts - offs, counts) + np.arange(total)
    rows = np.repeat(np.arange(L, dtype=np.int64), counts)
    cols = idx[take].astype(np.int64)
    vals = val[take].astype(np.int64) % _SPAN_PRIME
    return rows, cols, vals


def generating_set(ptr: np.ndarray, idx: np.ndarray, val: np.ndarray, L: int):
    """Greedy list of basis indices whose left-bracketed words span the ring.

    Starting from nothing, adjoin the lowest-index basis element outside
    the current span, then close the span under right multiplication by
    every generator chosen so far. Deterministic, and independent of any
    axiom the table may fail, since only the raw constants are read. A
    generator whose right multiplication is the identity (the unit) maps
    every word to itself and is not closed under. The span only grows,
    so the search for the next generator resumes after the last one.
    The span is held once: each generator multiplies the basis rows.
    """
    basis = _SpanBasis(L)
    labels = np.arange(L)
    gens: list[int] = []
    ops = []
    # pos[gi] counts the rows generator gi has multiplied. The rows are
    # fully reduced, so row t as read has a 1 at its pivot and a 0 at
    # every earlier row's pivot: the rows read are independent, span the
    # final basis and have their images in it, so the final span is closed.
    pos: list[int] = []
    b = 0
    while basis.rank < L:
        while basis.spans_unit_vector(b):
            b += 1
        gens.append(b)
        identity = np.array_equal(single_outputs(ptr, idx, val, labels * L + b), labels)
        ops.append(None if identity else _right_mult_arrays(ptr, idx, val, L, b))
        pos.append(0)
        probe = np.zeros(L, dtype=np.int64)
        probe[b] = 1
        basis.insert(probe)
        moved = True
        while moved:
            moved = False
            for gi in range(len(gens)):
                if ops[gi] is None:
                    continue
                rows, cols, vals = ops[gi]
                while pos[gi] < basis.rank:
                    w = basis.rows[pos[gi]]
                    pos[gi] += 1
                    out = np.zeros(L, dtype=np.int64)
                    np.add.at(out, cols, w[rows] * vals % _SPAN_PRIME)
                    out %= _SPAN_PRIME
                    if out.any() and basis.insert(out):
                        moved = True
    return gens


_ASSOC_BLOCK = 500_000  # entries of each product per block of j rows, roughly

# A ring whose cube L**3 has at most _DENSE_CELLS cells (L <= 101, an
# int64 copy of 8 MB) is scanned densely, well inside the sizes where
# that beats importing scipy in time and memory (README, "The kernels").
# The dense buffer holds _DENSE_BLOCK cells per block of j rows.
_DENSE_CELLS = 2**20
_DENSE_BLOCK = 2**17


def _pair_matrix(ptr, idx, val, L):
    """The table as an (L*L, L) matrix on the ring's own arrays: row
    i*L + j holds N_{ij}^k at column k. scipy copies only ``ptr``."""
    import scipy.sparse as sp

    return sp.csr_matrix((val, idx, ptr), shape=(L * L, L))


def _assoc_gen(ptr, idx, val, L, g, cap, pairs):
    # Both bracketings of (g, j, k) over a block of j rows, as two sparse
    # products in the pair-major layout of the ring, rows (j, k) and
    # columns l. With rg[x, m] = N_{gx}^m, the left bracketing
    # sum_m N_{gj}^m N_{mk}^l is kron(rg[j0:j1], I_L) @ pairs, and the
    # right one sum_m N_{jk}^m N_{gm}^l is the block's own rows of the
    # table times rg. A clean block leaves an empty difference and costs
    # no sort. Blocks run in ascending j and the rows of a nonzero
    # difference are sorted, so witnesses come in ascending (j, k, l).
    import scipy.sparse as sp

    lo, hi = ptr[g * L], ptr[(g + 1) * L]
    rg = sp.csr_matrix(
        (val[lo:hi], idx[lo:hi], ptr[g * L : (g + 1) * L + 1] - lo), shape=(L, L)
    )
    eye = sp.identity(L, dtype=val.dtype, format="csr")
    # cumulative entry count of a block, j row by j row: per entry of rg
    # the left side holds L entries of the kron and multiplies the slab
    # of its output; the right side multiplies each entry of the row's
    # own slab by at most the longest row of rg. The larger of the two
    # counts, so that no table, valid or not, puts more in one block.
    slab = np.diff(ptr[::L])
    per_entry = np.concatenate(([0], np.cumsum(np.maximum(slab[rg.indices], L))))
    left = np.diff(per_entry[rg.indptr])
    right = slab * int(np.diff(rg.indptr).max())
    work = np.concatenate(([0], np.cumsum(np.maximum(left, right))))
    found: list[np.ndarray] = []
    room = cap
    for j0, j1 in row_blocks(work, _ASSOC_BLOCK):
        if room <= 0:
            break
        nb = j1 - j0
        lhs = sp.kron(rg[j0:j1], eye, format="csr") @ pairs
        a, b = ptr[j0 * L], ptr[j1 * L]
        full = sp.csr_matrix(
            (val[a:b], idx[a:b], ptr[j0 * L : j1 * L + 1] - a), shape=(nb * L, L)
        )
        diff = lhs - full @ rg
        diff.eliminate_zeros()
        if diff.nnz:
            diff.sort_indices()
            rows = np.repeat(np.arange(nb * L), np.diff(diff.indptr))[:room]
            cols = diff.indices[:room]
            left = np.asarray(lhs[rows, cols]).ravel().astype(np.int64)
            wit = np.zeros((len(rows), 6), dtype=np.int64)
            wit[:, 0] = g
            wit[:, 1] = j0 + rows // L
            wit[:, 2] = rows % L
            wit[:, 3] = cols
            wit[:, 4] = left
            wit[:, 5] = left - diff.data[:room]
            found.append(wit)
            room -= len(wit)
    if not found:
        return True, np.zeros((0, 6), dtype=np.int64)
    return False, np.vstack(found)


def _cube(ptr, idx, val, L):
    """The table as a dense int64 array: cube[i, j, k] = N_{ij}^k."""
    cube = np.zeros(L**3, dtype=np.int64)
    cube[np.repeat(np.arange(L * L, dtype=np.int64) * L, np.diff(ptr)) + idx] = val
    return cube.reshape(L, L, L)


def _assoc_gen_dense(ptr, idx, val, L, g, cap, cube):
    # The same comparison as _assoc_gen on a dense (j, k, l) buffer per
    # block of j rows. Each nonzero N_{gx}^y = a of the generator's slab
    # is a term of both sides: of the left, (x_g x_j) x_k, as a times
    # slab y added to row j = x, and of the right, x_g (x_j x_k), as a
    # times the column m = x of the block, N_{jk}^m, subtracted from
    # column l = y. A nonzero cell is a witness, in ascending (j, k, l).
    lo, hi = ptr[g * L], ptr[(g + 1) * L]
    rows = np.repeat(np.arange(L), np.diff(ptr[g * L : (g + 1) * L + 1]))
    terms = list(zip(rows.tolist(), idx[lo:hi].tolist(), val[lo:hi].tolist()))
    found: list[np.ndarray] = []
    room = cap
    for j0, j1 in row_blocks(np.arange(L + 1) * (L * L), _DENSE_BLOCK):
        if room <= 0:
            break
        diff = np.zeros((j1 - j0, L, L), dtype=np.int64)
        block = cube[j0:j1]
        for x, y, a in terms:
            if j0 <= x < j1:
                diff[x - j0] += cube[y] if a == 1 else a * cube[y]
            diff[:, :, y] -= block[:, :, x] if a == 1 else a * block[:, :, x]
        bad = np.flatnonzero(diff)[:room]
        if bad.size:
            j, k, l = np.unravel_index(bad, diff.shape)
            j += j0
            left = (cube[g, j] * cube[:, k, l].T).sum(axis=1)
            wit = np.stack([np.full_like(j, g), j, k, l, left, left - diff.ravel()[bad]], axis=1)
            found.append(wit.astype(np.int64, copy=False))
            room -= len(wit)
    if not found:
        return True, np.zeros((0, 6), dtype=np.int64)
    return False, np.vstack(found)


def associativity_violations(
    ptr: np.ndarray,
    idx: np.ndarray,
    val: np.ndarray,
    L: int,
    *,
    cap: int = 20,
    gens: list[int] | None = None,
):
    """Associativity scan, exhaustive through the generator reduction.

    Returns ``(ok, witnesses)`` where witnesses is an ``(n, 6)`` int64
    array of rows ``(i, j, k, l, lhs, rhs)`` with ``n <= cap``; lhs and
    rhs are the two bracketings of the product x_i x_j x_k at output
    x_l. Only triples whose first slot is in the certified generating
    set are scanned, which decides all the rest, so every witness row
    has a generator first. A generator whose slab is the identity (the
    unit, which the catalog rings carry at label 0, the first generator)
    cannot give a witness and is not scanned. A clean scan means no
    quadruple anywhere violates associativity.

    ``gens`` is :func:`generating_set` of the same arrays, for a caller
    that needs the generators too; by default it is computed here.
    Rings with at most ``_DENSE_CELLS`` cells in their cube are scanned
    densely, larger ones as sparse products; both report the same.
    """
    if gens is None:
        gens = generating_set(ptr, idx, val, L)
    if L**3 <= _DENSE_CELLS:
        table, scan = _cube(ptr, idx, val, L), _assoc_gen_dense
    else:
        table, scan = _pair_matrix(ptr, idx, val, L), _assoc_gen
    labels = np.arange(L)
    found: list[np.ndarray] = []
    room = cap
    for g in gens:
        if room <= 0:
            break
        if np.array_equal(single_outputs(ptr, idx, val, g * L + labels), labels):
            continue
        ok, wit = scan(ptr, idx, val, L, g, room, table)
        if not ok:
            found.append(wit)
            room -= len(wit)
    if not found:
        return True, np.zeros((0, 6), dtype=np.int64)
    return False, np.vstack(found)


# ---------------------------------------------------------------------------
# bulk SU(3) table construction
# ---------------------------------------------------------------------------
#
# The builder evaluates the closed form of Begin, Mathieu and Walton
# (Mod. Phys. Lett. A 7, 1992) one first label i at a time. For weights
# lam, mu and the conjugate nu of the output, with S1, S2 the sums of
# first and second Dynkin labels:
#   a = (2 S1 + S2)/3,  b = (S1 + 2 S2)/3,  zero unless 3 | 2 S1 + S2,
#   k0min = max(lam1+lam2, mu1+mu2, nu1+nu2, a - min(lam1, mu1, nu1),
#               b - min(lam2, mu2, nu2)),
#   k0max = min(a, b),
#   N = max(0, min(k0max, level) - k0min + 1).
# The divisibility condition says the trialities (2 x1 + x2) mod 3 of
# lam, mu and nu sum to 0 mod 3, so for a slab i and a row j the outputs
# k that can hit form one triality class of the conjugate weights. The
# grid of slab i therefore has a row per j holding that class in
# ascending k, padded to the largest class with cells that cannot hit;
# one such grid serves every lam of a triality. Its nonzeros, read
# row-major, are in pair-major order, so the slabs concatenate into the
# final arrays.


def _su3_triality_grids(la, lb, level, rows):
    """Per triality s of lam: the (R, W) output grid and its lam-free terms.

    The grid has a row for each j in ``rows`` (a slice or a list of
    labels): row j of grid s lists, ascending, the k whose conjugate
    weight has triality -(s + triality of j) mod 3. Padded cells get a
    lower bound past the level, so they never hit.
    """
    tri_j = ((2 * la + lb) % 3)[rows]
    tri_k = (2 * lb + la) % 3  # of the conjugate (lb[k], la[k])
    classes = [np.flatnonzero(tri_k == c).astype(np.int32) for c in range(3)]
    W = max(len(c) for c in classes)
    m1, m2 = la[rows, None], lb[rows, None]
    grids = []
    for s in range(3):
        want = (-(s + tri_j)) % 3
        ks = np.zeros((len(tri_j), W), dtype=np.int32)
        pad = np.zeros(ks.shape, dtype=bool)
        for c, cls in enumerate(classes):
            ks[want == c, : len(cls)] = cls
            pad[want == c, len(cls) :] = True
        n1, n2 = lb[ks], la[ks]
        # a and b less their lam terms (2 lam1 + lam2 - s)/3 and
        # lam1 + lam2 - (2 lam1 + lam2 - s)/3, exact on the real cells
        a = (2 * (m1 + n1) + (m2 + n2) + s) // 3
        b = (m1 + n1) + (m2 + n2) - a
        low = np.maximum(m1 + m2, n1 + n2)
        low[pad] = level + 1
        grids.append((ks.ravel(), a, b, low, np.minimum(m1, n1), np.minimum(m2, n2)))
    return grids


def _su3_slab(grids, l1, l2, level):
    """The rule on the grid rows for lam = (l1, l2).

    Returns the grid's output labels, flat, and the count less one on
    each cell, shaped like the grid; a cell hits where it is >= 0.
    """
    s = (2 * l1 + l2) % 3
    ks, a_mn, b_mn, low_mn, min1, min2 = grids[s]
    shift = (2 * l1 + l2 - s) // 3
    a = a_mn + shift
    b = b_mn + (l1 + l2 - shift)
    low = np.maximum(low_mn, l1 + l2)
    np.maximum(low, a - np.minimum(min1, l1), out=low)
    np.maximum(low, b - np.minimum(min2, l2), out=low)
    n = np.minimum(a, b)
    np.minimum(n, level, out=n)
    n -= low
    return ks, n


def su3_csr(la: np.ndarray, lb: np.ndarray, level: int):
    """Pair-major arrays of the level-truncated SU(3) constants.

    ``la``/``lb`` are the Dynkin labels of the alcove weights in label
    order. Returns ``(ptr, idx, val)`` exactly as :func:`cube_to_csr`
    returns them for the dense cube, without building the cube, and
    evaluates the rule only on the triality-matched third of each slab.
    """
    L = len(la)
    la = np.asarray(la, dtype=np.int32)
    lb = np.asarray(lb, dtype=np.int32)
    grids = _su3_triality_grids(la, lb, level, slice(None))
    counts = np.empty((L, L), dtype=np.int64)
    idx_parts, val_parts = [], []
    for i in range(L):
        ks, n = _su3_slab(grids, int(la[i]), int(lb[i]), level)
        hit = n >= 0
        counts[i] = np.count_nonzero(hit, axis=1)
        at = np.flatnonzero(hit)  # row-major: ascending (j, k)
        idx_parts.append(ks.take(at))
        val_parts.append(n.ravel().take(at) + 1)
    ptr = np.zeros(L * L + 1, dtype=np.int64)
    np.cumsum(counts.ravel(), out=ptr[1:])
    idx = np.concatenate(idx_parts)
    val = np.concatenate(val_parts, dtype=np.int64)
    return ptr, idx, val


def su3_row(la: np.ndarray, lb: np.ndarray, level: int, i: int, j: int):
    """Output labels and constants of the one row (i, j) of :func:`su3_csr`.

    Only row j's grid is built, so the cost is of order the label count.
    """
    la = np.asarray(la, dtype=np.int32)
    lb = np.asarray(lb, dtype=np.int32)
    grids = _su3_triality_grids(la, lb, level, [j])
    ks, n = _su3_slab(grids, int(la[i]), int(lb[i]), level)
    at = np.flatnonzero(n >= 0)
    return ks.take(at), n.ravel().take(at) + 1


# The dense reference builder below takes the other route: candidates
# lam + w + delta are folded into the level alcove by the shifted affine
# reflections at height h = level + 3. In shifted coordinates
# (x, y) = (a+1, b+1) the walls are x = 0, y = 0 and x + y = h; each
# reflection flips the sign, a wall hit kills the term.

def su3_cube(
    L: int,
    h: int,
    la: np.ndarray,
    lb: np.ndarray,
    wflat: np.ndarray,
    woff: np.ndarray,
) -> np.ndarray:
    """Dense cube of level-truncated SU(3) constants, all pairs at once.

    Test reference for :func:`su3_csr`: it needs memory of order L^3.

    ``la``/``lb`` are the Dynkin labels of the alcove weights in label
    order, ``wflat``/``woff`` the flattened classical weight systems
    (rows ``(wa, wb, mult)``). The upper triangle ``i <= j`` is computed
    and mirrored, products here commute.
    """
    la = la.astype(np.int64)
    lb = lb.astype(np.int64)
    cube = np.zeros((L, L, L), dtype=np.int32)
    wa = wflat[:, 0].astype(np.int64)
    wb = wflat[:, 1].astype(np.int64)
    wm = wflat[:, 2].astype(np.int64)
    counts = np.diff(woff)
    for i in range(L):
        js = np.arange(i, L)
        # expand over the smaller weight system of the two factors
        lam = np.where(counts[js] <= counts[i], js, i)
        mu = np.where(counts[js] <= counts[i], i, js)
        # one flat candidate batch for every pair (i, j >= i)
        reps = counts[mu]
        jj = np.repeat(js, reps)
        lamr = np.repeat(lam, reps)
        tsel = np.concatenate([np.arange(woff[m], woff[m + 1]) for m in mu])
        x = la[lamr] + wa[tsel] + 1
        y = lb[lamr] + wb[tsel] + 1
        sgn = np.ones(len(tsel), dtype=np.int64)
        while True:
            on_wall = (sgn != 0) & ((x == 0) | (y == 0) | (x + y == h))
            sgn[on_wall] = 0
            live = sgn != 0
            m1 = live & (x < 0)
            m2 = live & ~m1 & (y < 0)
            m3 = live & ~m1 & ~m2 & (x + y > h)
            if not (m1.any() or m2.any() or m3.any()):
                break
            x1 = x[m1]
            x[m1], y[m1] = -x1, x1 + y[m1]
            y2 = y[m2]
            x[m2], y[m2] = x[m2] + y2, -y2
            x3 = x[m3].copy()
            x[m3], y[m3] = h - y[m3], h - x3
            sgn[m1 | m2 | m3] *= -1
        live = sgn != 0
        a = x[live] - 1
        b = y[live] - 1
        nu = (a + b) * (a + b + 1) // 2 + a
        np.add.at(
            cube,
            (np.full(live.sum(), i), jj[live], nu),
            (sgn[live] * wm[tsel][live]).astype(np.int32),
        )
    upper = np.swapaxes(cube, 0, 1)
    ii, jj = np.tril_indices(L, k=-1)
    cube[ii, jj, :] = upper[ii, jj, :]
    return cube


def cube_to_csr(cube: np.ndarray):
    """Compact a dense (L, L, L) cube into the pair-major layout."""
    L = cube.shape[0]
    ii, jj, kk = np.nonzero(cube)
    vals = cube[ii, jj, kk].astype(np.int64)
    pair = ii.astype(np.int64) * L + jj.astype(np.int64)
    ptr = np.zeros(L * L + 1, dtype=np.int64)
    np.add.at(ptr, pair + 1, 1)
    np.cumsum(ptr, out=ptr)
    # nonzero already yields lexicographic (i, j, k) order
    return ptr, kk.astype(np.int32), vals
