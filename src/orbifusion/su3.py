"""Level-truncated SU(3) fusion.

The full ring at a level comes from the closed-form su(3)_k fusion rule
of Begin, Mathieu and Walton, evaluated in bulk by
:func:`orbifusion.kernels.su3_csr`. Single products go the long way as
an independent check: the classical tensor product is computed from
cached Gelfand-Tsetlin weight systems (Racah-Speiser), and the level
truncation folds each classical summand into the alcove at height
``level + 3`` with signs. One fold serves both steps: the dominant
chamber is the alcove of infinite height.

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
from .orbifold import ObstructionVerdict
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
# the order-3 symmetry and the fixed-point count
# ---------------------------------------------------------------------------

def simple_current(level: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The order-3 permutation J(a, b) = (level - a - b, a) on the alcove.

    Left fusion by the weight (level, 0) acts exactly this way; the
    fixed points are the weights (a, a) with level = 3a.
    """
    return {(a, b): (level - a - b, a) for a, b in admissible_weights(level)}


@dataclass(frozen=True)
class SimpleCurrentObstruction(ObstructionVerdict):
    """The gcd test on the self-coupling count of the fixed weight at level 3k."""

    k: int
    level: int


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
    return SimpleCurrentObstruction(m=m, n=3, k=k, level=level)


# ---------------------------------------------------------------------------
# the full ring
# ---------------------------------------------------------------------------

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
