"""Level-truncated SU(3) fusion.

One rule serves the whole module: the closed-form su(3)_k fusion rule
of Begin, Mathieu and Walton. :func:`su3_ring` evaluates it in bulk
(:func:`orbifusion.kernels.su3_csr`); :func:`fusion_product` and
:func:`obstruction_m` read a single row of it
(:func:`orbifusion.kernels.su3_row`).

Weights are Dynkin label pairs ``(a, b)``; as ring labels they are the
strings ``"a,b"``. Admissible weights at a level are ordered by
``(a + b, a)``, so the index of ``(a, b)`` is the closed form
``(a+b)(a+b+1)/2 + a``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernels import su3_csr, su3_row
from .orbifold import ObstructionVerdict
from .rings import FusionRing

__all__ = [
    "LEVEL_CAP",
    "admissible_weights",
    "weight_label",
    "parse_weight",
    "fusion_product",
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
    # only ASCII digits, which int() alone would widen to signs, spaces,
    # underscores and other scripts' digits
    digits = [p.removeprefix("-") for p in parts]
    if not all(d.isascii() and d.isdecimal() for d in digits):
        raise InputError(f"expected integer Dynkin labels, got {text!r}")
    if digits != parts:
        raise InputError(f"Dynkin labels must be nonnegative, got {text!r}")
    return int(parts[0]), int(parts[1])


def admissible_weights(level: int) -> list[tuple[int, int]]:
    """Alcove weights at the level, ordered by (a+b, a)."""
    if level < 0:
        raise InputError("level must be nonnegative")
    return [(a, t - a) for t in range(level + 1) for a in range(t + 1)]


def _windex(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + a


def _check_admissible(w: tuple[int, int], level: int) -> None:
    if w[0] < 0 or w[1] < 0 or w[0] + w[1] > level:
        raise InputError(f"weight {w} is not admissible at level {level}")


def fusion_product(
    lam: tuple[int, int], mu: tuple[int, int], level: int
) -> dict[tuple[int, int], int]:
    """Level-truncated fusion product of two admissible weights.

    Reads the row (lam, mu) of the closed-form rule, as
    :func:`su3_ring` has it, without building the ring; the map runs in
    alcove order. Levels outside 0 .. ``LEVEL_CAP`` are refused.
    """
    if not 0 <= level <= LEVEL_CAP:
        raise InputError(f"level must be between 0 and {LEVEL_CAP}")
    _check_admissible(lam, level)
    _check_admissible(mu, level)
    ws = admissible_weights(level)
    la, lb = np.array(ws, dtype=np.int64).T
    ks, vs = su3_row(la, lb, level, _windex(*lam), _windex(*mu))
    return {ws[k]: v for k, v in zip(ks.tolist(), vs.tolist())}


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
    the count is coprime to 3. :func:`fusion_product` caps the level at
    ``LEVEL_CAP``, so k runs from 1 to ``LEVEL_CAP // 3`` = 8.
    """
    if not 1 <= k <= LEVEL_CAP // 3:
        raise InputError(f"k must be between 1 and {LEVEL_CAP // 3}")
    level = 3 * k
    rho = (k, k)
    m = fusion_product(rho, rho, level).get(rho, 0)
    return SimpleCurrentObstruction(m=m, n=3, k=k, level=level)


# ---------------------------------------------------------------------------
# the full ring
# ---------------------------------------------------------------------------

def su3_ring(level: int) -> FusionRing:
    """Fusion ring over every admissible weight at the level.

    Unit (0,0), duality (a,b) -> (b,a), constants from the closed-form
    fusion rule, evaluated once per unordered pair of weights, counted
    and then written in place into preallocated pair-major arrays
    (:func:`orbifusion.kernels.su3_csr`), so the build holds little
    beyond the ring and one slab. Levels above
    ``LEVEL_CAP`` are refused, the weight count grows quadratically and
    exhaustive validation is meant to stay desk-scale. Every call builds
    the ring anew and nothing keeps it, so a run over many levels holds
    one ring at a time.

    The ring comes marked as validated, so
    :func:`orbifusion.rings.validate_ring` returns at once and
    :func:`orbifusion.orbifold.cyclic_action` skips the equivariance
    check. The builder is deterministic and accepts finitely many
    levels, and the test
    ``tests/test_su3.py::test_every_level_the_builder_accepts_passes_the_full_scan``
    runs the full validation scan and the order-3 current's equivariance
    check on an unmarked copy of each of them.
    """
    if not (1 <= level <= LEVEL_CAP):
        raise InputError(f"level must be between 1 and {LEVEL_CAP}")
    ws = admissible_weights(level)
    la, lb = np.array(ws, dtype=np.int64).T
    ptr, idx, val = su3_csr(la, lb, level)
    labels = [weight_label(w) for w in ws]
    dual = [_windex(b, a) for a, b in ws]
    ring = FusionRing.from_csr(labels, _windex(0, 0), dual, ptr, idx, val)
    ring._validated = True
    return ring
