"""Closed forms the benchmark checks the program's answers against.

Nothing here imports orbifusion: each value is computed from its
formula alone, so a wrong table in the program cannot also be wrong
here in the same way.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def su3_fusion(lam, mu, kappa, level: int):
    """su(3)_k fusion coefficient N_{lam, mu}^{kappa} (Begin-Mathieu-Walton 1992).

    ``lam``, ``mu`` and ``kappa`` are pairs of Dynkin labels, scalars or
    equal-length integer arrays. The formula is stated for the triple
    (lam, mu, nu) with nu the conjugate of the output weight:
    k0min = max(lam1+lam2, mu1+mu2, nu1+nu2, a - min(lam1,mu1,nu1),
    b - min(lam2,mu2,nu2)), k0max = min(a, b) with a = (2 S1 + S2)/3,
    b = (S1 + 2 S2)/3, and N = max(0, min(k0max, k) - k0min + 1). It is
    zero unless 3 divides 2 S1 + S2.
    """
    l1, l2 = (np.asarray(x, dtype=np.int64) for x in lam)
    m1, m2 = (np.asarray(x, dtype=np.int64) for x in mu)
    n1, n2 = (np.asarray(x, dtype=np.int64) for x in (kappa[1], kappa[0]))
    s1, s2 = l1 + m1 + n1, l2 + m2 + n2
    a, b = (2 * s1 + s2) // 3, (s1 + 2 * s2) // 3
    kmin = functools.reduce(np.maximum, [
        l1 + l2,
        m1 + m2,
        n1 + n2,
        a - np.minimum(np.minimum(l1, m1), n1),
        b - np.minimum(np.minimum(l2, m2), n2),
    ])
    kmax = np.minimum(a, b)
    count = np.maximum(0, np.minimum(kmax, level) - kmin + 1)
    return np.where((2 * s1 + s2) % 3 == 0, count, 0)


def su3_weights(level: int) -> list[tuple[int, int]]:
    """Admissible weights (a, b), a + b <= level, in the order (a + b, a)."""
    return [(a, t - a) for t in range(level + 1) for a in range(t + 1)]


def su3_qdim(a, b, level: int):
    """Quantum dimension [a+1][b+1][a+b+2]/[2] at q = exp(i pi / (level + 3))."""
    h = level + 3

    def q(x):
        return np.sin(np.pi * np.asarray(x, dtype=np.float64) / h) / math.sin(math.pi / h)

    return q(np.asarray(a) + 1) * q(np.asarray(b) + 1) * q(np.asarray(a) + np.asarray(b) + 2) / q(2)


def su2_qdim(spin2: int, level: int) -> float:
    """Quantum dimension of the SU(2)_level label with Dynkin label ``spin2``."""
    return math.sin((spin2 + 1) * math.pi / (level + 2)) / math.sin(math.pi / (level + 2))


def chain_norm(vertices: int) -> float:
    """Norm of the A_N chain, 2 cos(pi / (N + 1)); D_{2n} has the norm of A_{4n-3}."""
    return 2.0 * math.cos(math.pi / (vertices + 1))


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(1.0, abs(want))
