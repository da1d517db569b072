"""Level-truncated SU(3) fusion and its numeric cross-check.

The full ring at a level comes from the closed-form su(3)_k fusion rule
of Begin, Mathieu and Walton, evaluated in bulk by
:func:`orbifusion.kernels.su3_csr`. Single products go the long way as
an independent check: the classical tensor product is computed from
cached Gelfand-Tsetlin weight systems (Racah-Speiser with the finite
Weyl fold), and the level truncation folds each classical summand into
the alcove at height ``level + 3`` with signs. A third check evaluates
characters at the standard special elements and sums them against the
squared vacuum weights, which must land on integers.

Weights are Dynkin label pairs ``(a, b)``; as ring labels they are the
strings ``"a,b"``. Admissible weights at a level are ordered by
``(a + b, a)``, so the index of ``(a, b)`` is the closed form
``(a+b)(a+b+1)/2 + a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericError
from .kernels import su3_csr
from .orbifold import Verdict
from .rings import FusionRing

__all__ = [
    "LEVEL_CAP",
    "admissible_weights",
    "weight_label",
    "parse_weight",
    "dim3",
    "weight_system",
    "classical_lr",
    "kac_walton",
    "verlinde",
    "verlinde_table",
    "simple_current",
    "obstruction_m",
    "SimpleCurrentObstruction",
    "su3_ring",
]

LEVEL_CAP = 24


def weight_label(w: tuple[int, int]) -> str:
    return f"{w[0]},{w[1]}"


def parse_weight(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"expected a weight of the form a,b, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"expected integer Dynkin labels, got {text!r}") from None
    if a < 0 or b < 0:
        raise InputError(f"Dynkin labels must be nonnegative, got {text!r}")
    return a, b


def admissible_weights(level: int) -> list[tuple[int, int]]:
    """Alcove weights at the level, ordered by (a+b, a)."""
    if level < 0:
        raise InputError("level must be nonnegative")
    return [(a, t - a) for t in range(level + 1) for a in range(t + 1)]


def _windex(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + a


def dim3(a: int, b: int) -> int:
    """Classical dimension of the irreducible with Dynkin labels (a, b)."""
    return (a + 1) * (b + 1) * (a + b + 2) // 2


@lru_cache(maxsize=None)
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


def _finite_fold(x: int, y: int) -> tuple[int, int, int]:
    """Reflect a shifted weight into the dominant chamber, with sign."""
    s = 1
    for _ in range(200):
        if x == 0 or y == 0 or x + y == 0:
            return 0, 0, 0
        if x < 0:
            x, y, s = -x, x + y, -s
        elif y < 0:
            x, y, s = x + y, -y, -s
        else:
            return x, y, s
    raise NumericError("chamber fold failed to terminate")


def _affine_fold(x: int, y: int, h: int) -> tuple[int, int, int]:
    """Reflect a shifted weight into the alcove at height h, with sign."""
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
        x, y, s = _finite_fold(lam[0] + wa + 1, lam[1] + wb + 1)
        if s:
            key = (x - 1, y - 1)
            out[key] = out.get(key, 0) + s * m
    out = {k: v for k, v in out.items() if v}
    if any(v < 0 for v in out.values()):
        raise NumericError("negative classical multiplicity, fold logic broken")
    return out


def _check_admissible(w: tuple[int, int], level: int) -> None:
    if w[0] < 0 or w[1] < 0 or w[0] + w[1] > level:
        raise InputError(f"weight {w} is not admissible at level {level}")


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
    if not 0 <= level <= LEVEL_CAP:
        raise InputError(f"level must be between 0 and {LEVEL_CAP}")
    _check_admissible(lam, level)
    _check_admissible(mu, level)
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
# numeric cross-check
# ---------------------------------------------------------------------------

_S3 = (
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
    ((1, 0, 2), -1),
)


@lru_cache(maxsize=None)
def _character_data(level: int):
    """Character values chi[w, s] and vacuum weights rho[s].

    Built from the antisymmetrized exponential determinant in centered
    shifted coordinates. Overall normalizations cancel in the ratios and
    in rho, which is normalized to sum to one.
    """
    ws = admissible_weights(level)
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
        _check_admissible(w, level)
    chi, rho = _character_data(level)
    a, b, c = _windex(*lam), _windex(*mu), _windex(*nu)
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
# the order-3 symmetry and the fixed-point count
# ---------------------------------------------------------------------------

def simple_current(level: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The order-3 permutation J(a, b) = (level - a - b, a) on the alcove.

    Left fusion by the weight (level, 0) acts exactly this way; the
    fixed points are the weights (a, a) with level = 3a.
    """
    return {(a, b): (level - a - b, a) for a, b in admissible_weights(level)}


@dataclass(frozen=True)
class SimpleCurrentObstruction:
    """The self-coupling count of the fixed weight at level 3k."""

    k: int
    level: int
    m: int
    n: int
    verdict: Verdict

    @property
    def gcd(self) -> int:
        return math.gcd(self.m, self.n)


def obstruction_m(k: int) -> SimpleCurrentObstruction:
    """Multiplicity of (k,k) in its own square at level 3k, plus verdict.

    The symmetry has order 3, so the bound is conclusive exactly when
    the count is coprime to 3. :func:`kac_walton` caps the level at
    ``LEVEL_CAP``, so k runs from 1 to ``LEVEL_CAP // 3`` = 8.
    """
    if not 1 <= k <= LEVEL_CAP // 3:
        raise InputError(f"k must be between 1 and {LEVEL_CAP // 3}")
    level = 3 * k
    rho = (k, k)
    m = kac_walton(rho, rho, level).get(rho, 0)
    verdict = Verdict.TRIVIAL if math.gcd(m, 3) == 1 else Verdict.INCONCLUSIVE
    return SimpleCurrentObstruction(k=k, level=level, m=m, n=3, verdict=verdict)


# ---------------------------------------------------------------------------
# the full ring
# ---------------------------------------------------------------------------

def _alcove_arrays(level: int):
    """Label order and flattened weight systems for the dense reference.

    The tests use this to rebuild every table through
    :func:`orbifusion.kernels.su3_cube` and compare it with
    :func:`su3_ring`.
    """
    ws = admissible_weights(level)
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


def su3_ring(level: int) -> FusionRing:
    """Fusion ring over every admissible weight at the level.

    Unit (0,0), duality (a,b) -> (b,a), constants from the closed-form
    fusion rule written straight into the pair-major arrays
    (:func:`orbifusion.kernels.su3_csr`), in memory of order the number
    of nonzeros. Levels above ``LEVEL_CAP`` are refused, the weight count
    grows quadratically and exhaustive validation is meant to stay
    desk-scale. Every call builds the ring anew and nothing keeps it,
    so a run over many levels holds one ring at a time.
    """
    if not (1 <= level <= LEVEL_CAP):
        raise InputError(f"level must be between 1 and {LEVEL_CAP}")
    ws = admissible_weights(level)
    la = np.array([a for a, _ in ws], dtype=np.int64)
    lb = np.array([b for _, b in ws], dtype=np.int64)
    ptr, idx, val = su3_csr(la, lb, level)
    labels = [weight_label(w) for w in ws]
    dual = [_windex(b, a) for a, b in ws]
    return FusionRing.from_csr(labels, _windex(0, 0), dual, ptr, idx, val)
