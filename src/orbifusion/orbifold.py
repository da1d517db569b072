"""Ring-level mechanics of the cyclic orbifold step.

Everything here works on a validated fusion ring carrying the left
fusion action of an invertible label ``alpha`` of exact order ``n``.
Three named preconditions gate the construction:

* (A1): ``alpha`` is invertible and generates a cyclic group of order
  ``n >= 2`` under fusion.
* (A2): an analytic condition on the underlying symmetry that the ring
  cannot see. It enters as a caller attestation and is only echoed.
* (A3): a designated label ``rho`` that is self-dual, fixed by the
  action, and appears in its own square.

The obstruction attached to the symmetry is a root of unity, kept exact
as a pair (j, n) meaning exp(2*pi*i*j/n). The gcd test on
m = N_{rho,rho}^{rho} can certify j = 0; it never certifies anything
else, so nontrivial values enter only by explicit input.

Sector output: free orbits merge into one class each, fixed labels
split into p = n/l pieces (l the multiplicative order of the
obstruction), of dimension l*d/n. The dual symmetry fixes merged
classes and cycles the pieces of each family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    AssumptionError,
    InputError,
    UnsupportedStructureError,
)
from .kernels import slab_is_moved as _slab_is_moved
from .rings import DimensionTable, FusionRing, fp_dimensions, left_permutation

__all__ = [
    "Verdict",
    "cycles",
    "SymmetryAction",
    "cyclic_action",
    "OrbifoldInput",
    "AssumptionItem",
    "AssumptionReport",
    "check_assumptions",
    "ObstructionValue",
    "ObstructionVerdict",
    "obstruction_bound",
    "MergedClass",
    "SplitFamily",
    "ConjugacyOutcome",
    "ConjugacyReport",
    "OrbifoldSectors",
    "orbifold_sectors",
    "conjugacy_assignment",
    "GlobalDimCheck",
    "global_dim_check",
]

# relative error up to which global_dim_check accepts the squared-dimension law
DIM_LAW_TOLERANCE = 1e-6


class Verdict(Enum):
    TRIVIAL = "Trivial"
    INCONCLUSIVE = "Inconclusive"


# ---------------------------------------------------------------------------
# the symmetry
# ---------------------------------------------------------------------------

def cycles(items: Iterable, image) -> list[tuple]:
    """Cycles of a bijection, each opened at its first member in ``items``.

    ``image[x]`` is the image of ``x``, by index or by key. The caller
    guarantees a bijection that maps the items onto themselves, so every
    walk closes.
    """
    seen = set()
    out = []
    for x in items:
        if x in seen:
            continue
        cyc = [x]
        seen.add(x)
        y = image[x]
        while y != x:
            seen.add(y)
            cyc.append(y)
            y = image[y]
        out.append(tuple(cyc))
    return out


@dataclass(frozen=True)
class SymmetryAction:
    """Left fusion by an invertible label, as a label permutation.

    ``perm[i]`` is the unique k with N_{alpha,i}^k = 1. The stored order
    is exact: perm**order is the identity and no smaller positive power
    is. Construction goes through :func:`cyclic_action`, which makes
    sure of first-slot equivariance N_{perm(i),j}^{perm(k)} = N_{ij}^k,
    the identity the merging and splitting rules rely on. It is
    associativity with x_alpha, (x_alpha x_i) x_j = x_alpha (x_i x_j),
    read at x_perm(k), so a validated ring has it and any other ring is
    checked for it, one slab of first label at a time.
    """

    ring: FusionRing = field(repr=False)
    alpha: int
    order: int
    perm: tuple[int, ...]

    @property
    def alpha_label(self) -> str:
        return self.ring.labels[self.alpha]

    def orbits(self) -> list[tuple[int, ...]]:
        """Cycles of the permutation, in order of least member index."""
        return cycles(range(len(self.perm)), self.perm)


def cyclic_action(ring: FusionRing, alpha: str) -> SymmetryAction:
    """Wrap left fusion by ``alpha`` as a validated SymmetryAction.

    Raises an (A1) assumption error when alpha is not invertible, or
    when fusion by it fails first-slot equivariance. Alpha is invertible
    when :func:`left_permutation` finds a permutation ``perm`` and
    ``perm[dual[alpha]]`` is the unit, that is N[alpha, alpha*, unit] = 1.
    The order is the exact multiplicative order of alpha, read off as
    the cycle length of the unit. Equivariance follows from
    associativity once the permutation is found, so it is checked only
    on a ring not marked as validated, that is one that
    :func:`orbifusion.rings.validate_ring` has not passed and that
    :func:`orbifusion.su3.su3_ring` did not build (the test suite
    checks the order-3 current of every alcove ring on an unmarked
    copy): the slab of each first label ``perm[i]`` must be the slab of
    ``i`` with its outputs renamed by ``perm``, the comparison
    validation makes of the generators' slabs and their duals'. The
    ``obstruction`` and ``orbifold`` commands validate first, so such a
    ring comes from a library caller, such as the A_{4n-1} assumption
    scan of the benchmark's ``d2n`` workload.
    """
    a = ring.index(alpha)
    perm = left_permutation(ring, a)
    if perm is None or perm[ring.dual[a]] != ring.unit:
        raise AssumptionError(
            "A1", f"label {alpha!r} is not invertible, so it generates no cyclic symmetry"
        )
    orbits = cycles(range(ring.size), perm)
    order = next(len(c) for c in orbits if ring.unit in c)
    if math.lcm(*map(len, orbits)) != order:
        # cannot happen for left fusion by an invertible label; guards
        # against a corrupted ring slipping past validation
        raise AssumptionError("A1", f"fusion by {alpha!r} is not a cyclic action")

    # N[p(i),j,p(k)] = N[i,j,k]: slab p(i) is slab i with its outputs renamed
    if not ring._validated:
        p = np.asarray(perm, dtype=np.int64)
        ptr, idx, val = ring.csr()
        if not all(
            _slab_is_moved(ptr, idx, val, ring.size, i, perm[i], rename=p)
            for i in range(ring.size)
        ):
            raise AssumptionError(
                "A1", f"fusion by {alpha!r} fails first-slot equivariance"
            )
    return SymmetryAction(ring=ring, alpha=a, order=order, perm=perm)


# ---------------------------------------------------------------------------
# input record and assumption report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbifoldInput:
    """What the construction consumes.

    ``rho`` is a label index, or None to ask the checker to scan for a
    candidate (the scan failing is exactly how the known bad cases are
    reported). The attestation flag records (A2); nothing here can
    verify it. ``assumptions`` is the (A1)-(A3) report, computed once
    per input.
    """

    action: SymmetryAction
    rho: int | None
    loi_trivial_attested: bool

    @classmethod
    def make(
        cls, action: SymmetryAction, rho: str | None, loi_trivial_attested: bool
    ) -> "OrbifoldInput":
        idx = None if rho is None else action.ring.index(rho)
        return cls(action=action, rho=idx, loi_trivial_attested=loi_trivial_attested)

    @property
    def rho_label(self) -> str | None:
        return None if self.rho is None else self.action.ring.labels[self.rho]

    @cached_property
    def assumptions(self) -> AssumptionReport:
        return check_assumptions(self)


@dataclass(frozen=True)
class AssumptionItem:
    item: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "pass" if self.passed else "fail"
        return f"({self.item}) {status}: {self.detail}"


@dataclass(frozen=True)
class AssumptionReport:
    items: tuple[AssumptionItem, ...]
    rho: str | None
    m: int | None

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    def item(self, name: str) -> AssumptionItem:
        for it in self.items:
            if it.item == name:
                return it
        raise KeyError(name)

    def require(self, *names: str) -> AssumptionReport:
        """The report, or :class:`AssumptionError` for the first of the
        named items that fails."""
        for name in names:
            it = self.item(name)
            if not it.passed:
                raise AssumptionError(name, it.detail)
        return self

    def __str__(self) -> str:
        return "\n".join(str(it) for it in self.items)


def _a3(action: SymmetryAction, r: int):
    """The three conditions of (A3) on label ``r``, in order, each as
    ``(holds, text)``: self-dual, fixed by the action, in its own square.
    A caller that stops at the first failing one never reads N_{rr}^r of
    a label that is not self-dual and fixed."""
    ring = action.ring
    lab = ring.labels[r]
    yield ring.dual[r] == r, f"{lab!r} is self-dual"
    yield action.perm[r] == r, f"{lab!r} is fixed by the action"
    yield ring.n(r, r, r) >= 1, f"{lab!r} appears in its own square"


def check_assumptions(inp: OrbifoldInput) -> AssumptionReport:
    """Report pass/fail for (A1), (A2), (A3).

    (A2) only echoes the attestation. For (A3) with an explicit rho the
    three defining conditions of :func:`_a3` are reported one by one;
    with rho = None the ring is scanned and the least label that meets
    all three, if any, is adopted. m is read once rho is settled.
    """
    action = inp.action
    ring = action.ring
    n = action.order
    a1 = AssumptionItem(
        "A1",
        n >= 2,
        f"{action.alpha_label!r} has exact fusion order {n}"
        + ("" if n >= 2 else ", which generates no symmetry to quotient by"),
    )
    a2 = AssumptionItem(
        "A2",
        inp.loi_trivial_attested,
        "analytic triviality attested by caller"
        if inp.loi_trivial_attested
        else "analytic triviality not attested; it cannot be computed here",
    )

    if inp.rho is not None:
        conds = list(_a3(action, inp.rho))
        rho = inp.rho if all(good for good, _ in conds) else None
        detail = "; ".join(text if good else "not: " + text for good, text in conds)
    else:
        rho = next(
            (r for r in range(ring.size) if all(good for good, _ in _a3(action, r))), None
        )
        detail = (
            "no label is simultaneously self-dual, fixed, and in its own square"
            if rho is None
            else f"scan found fixed self-dual self-coupled label {ring.labels[rho]!r}"
        )
    items = (a1, a2, AssumptionItem("A3", rho is not None, detail))
    if rho is None:
        return AssumptionReport(items=items, rho=None, m=None)
    return AssumptionReport(items=items, rho=ring.labels[rho], m=ring.n(rho, rho, rho))


# ---------------------------------------------------------------------------
# obstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionValue:
    """The root of unity exp(2*pi*i*j/n), kept exact.

    ``l`` is its multiplicative order n/gcd(j, n); the trivial value is
    j = 0 with l = 1.
    """

    j: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError(f"obstruction modulus must be positive, got {self.n}")
        if not 0 <= self.j < self.n:
            raise InputError(
                f"obstruction exponent must satisfy 0 <= j < n, got j={self.j}, n={self.n}"
            )

    @property
    def l(self) -> int:
        return self.n // math.gcd(self.j, self.n)

    @property
    def is_trivial(self) -> bool:
        return self.j == 0

    def describe(self) -> str:
        if self.j == 0:
            return "1"
        if 2 * self.j == self.n:
            return "-1"
        return f"exp(2*pi*i*{self.j}/{self.n})"


@dataclass(frozen=True)
class ObstructionVerdict:
    """The gcd test on m = N_{rho,rho}^{rho} for an action of order n.

    Trivial exactly when gcd(m, n) = 1, and then ``certified`` is the
    trivial value; Inconclusive otherwise, which asserts nothing about
    the actual value. Every verdict in the package is read from here.
    """

    m: int
    n: int

    @property
    def gcd(self) -> int:
        return math.gcd(self.m, self.n)

    @property
    def verdict(self) -> Verdict:
        return Verdict.TRIVIAL if self.gcd == 1 else Verdict.INCONCLUSIVE

    @property
    def certified(self) -> ObstructionValue | None:
        return ObstructionValue(0, self.n) if self.verdict is Verdict.TRIVIAL else None


def obstruction_bound(inp: OrbifoldInput) -> ObstructionVerdict:
    """Run the gcd test. Requires (A1) and (A3)."""
    report = inp.assumptions.require("A1", "A3")
    assert report.m is not None
    return ObstructionVerdict(report.m, inp.action.order)


# ---------------------------------------------------------------------------
# sectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergedClass:
    members: tuple[str, ...]
    representative: str
    dimension: float


@dataclass(frozen=True)
class SplitFamily:
    """Pieces of one fixed label.

    ``extrapolated`` marks a fixed label other than the designated rho:
    such labels split by the same rule, but that case is outside what
    the construction is known to guarantee.
    """

    source: str
    pieces: tuple[str, ...]
    dimension: float
    extrapolated: bool


class ConjugacyOutcome(Enum):
    ALL_SELF_CONJUGATE = "AllSelfConjugate"
    UNDETERMINED = "Undetermined{AllSelfConjugate|ShiftByHalf}"


@dataclass(frozen=True)
class ConjugacyReport:
    """Duality on the output labels, as far as it is determined.

    ``merged`` maps each class representative to the representative of
    its conjugate class. ``split`` maps each fixed source label to the
    outcome for its family: for odd n the pieces are all
    self-conjugate; for even n the rule is two-valued (identity or the
    half-turn shift) and is reported undetermined.
    """

    merged: dict[str, str]
    split: dict[str, ConjugacyOutcome]
    n: int

    @property
    def all_self_conjugate(self) -> bool:
        return all(k == v for k, v in self.merged.items()) and all(
            v is ConjugacyOutcome.ALL_SELF_CONJUGATE for v in self.split.values()
        )


@dataclass(frozen=True)
class OrbifoldSectors:
    """Output labels of the quotient, with dimensions and dual action.

    Merged classes are named by their representative; pieces of a fixed
    label f are named f#0 .. f#{p-1}. ``dual_perm`` is the permutation
    induced by the canonical symmetry of the quotient: it fixes every
    merged class and shifts each piece family by one. ``conjugacy`` is
    populated when p = n (trivial obstruction), else None. ``dims`` is
    the dimension table of the input ring the sectors were built from.
    """

    ring: FusionRing = field(repr=False)
    n: int
    obstruction: ObstructionValue
    merged: tuple[MergedClass, ...]
    split: tuple[SplitFamily, ...]
    dual_perm: dict[str, str]
    conjugacy: ConjugacyReport | None
    dims: DimensionTable = field(repr=False)

    @property
    def p(self) -> int:
        return self.n // self.obstruction.l

    def labels(self) -> list[str]:
        out = [c.representative for c in self.merged]
        for fam in self.split:
            out.extend(fam.pieces)
        return out

    def dimensions(self) -> dict[str, float]:
        out = {c.representative: c.dimension for c in self.merged}
        for fam in self.split:
            for piece in fam.pieces:
                out[piece] = fam.dimension
        return out


def orbifold_sectors(
    inp: OrbifoldInput,
    obstruction: ObstructionValue,
    dims: DimensionTable | None = None,
) -> OrbifoldSectors:
    """Merge free orbits and split fixed labels.

    The obstruction must be supplied explicitly: use the trivial value
    when the gcd test certifies it, a recorded value otherwise; a
    nontrivial value the gcd test contradicts is refused. Orbits
    of size strictly between 1 and n are refused. Order 1 needs no
    assumptions and runs the same rule: every orbit is free, so every
    label is a singleton class.
    """
    action = inp.action
    ring = action.ring
    n = action.order
    if obstruction.n != n:
        raise InputError(
            f"obstruction modulus {obstruction.n} does not match the action order {n}"
        )
    m = inp.assumptions.m
    certified = None if m is None else ObstructionVerdict(m, n).certified
    if certified is not None and obstruction != certified:
        raise InputError(
            f"obstruction {obstruction.describe()} contradicts the gcd test: "
            f"gcd({m}, {n}) = 1 certifies the trivial value"
        )
    if dims is None:
        dims = fp_dimensions(ring)

    rho = inp.assumptions.require("A1", "A3").rho if n > 1 else None

    l = obstruction.l
    p = n // l
    merged: list[MergedClass] = []
    split: list[SplitFamily] = []
    for orbit in action.orbits():
        if len(orbit) == n:
            members = tuple(ring.labels[i] for i in orbit)
            rep = min(members)
            merged.append(
                MergedClass(members=members, representative=rep, dimension=dims[orbit[0]])
            )
        elif len(orbit) == 1:
            f = orbit[0]
            lab = ring.labels[f]
            split.append(
                SplitFamily(
                    source=lab,
                    pieces=tuple(f"{lab}#{k}" for k in range(p)),
                    dimension=l * dims[f] / n,
                    extrapolated=lab != rho,
                )
            )
        else:
            raise UnsupportedStructureError(
                f"orbit {tuple(ring.labels[i] for i in orbit)} has size {len(orbit)}, "
                f"strictly between 1 and {n}; only free orbits and fixed labels are handled"
            )

    dual_perm: dict[str, str] = {c.representative: c.representative for c in merged}
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


def conjugacy_assignment(sectors: OrbifoldSectors) -> ConjugacyReport:
    """Duality of the output labels, where the construction decides it.

    Merged classes map to the class holding the dual of their
    representative. Piece families are all self-conjugate for odd n;
    for even n the outcome is reported undetermined. Only defined for
    the full splitting p = n.
    """
    if sectors.p != sectors.n:
        raise UnsupportedStructureError(
            f"conjugacy is only assigned for the full splitting p = n, "
            f"got p = {sectors.p}, n = {sectors.n}"
        )
    ring = sectors.ring
    class_of: dict[str, str] = {}
    for c in sectors.merged:
        for member in c.members:
            class_of[member] = c.representative

    merged: dict[str, str] = {}
    for c in sectors.merged:
        dual_label = ring.labels[ring.dual[ring.index(c.representative)]]
        if dual_label not in class_of:
            raise UnsupportedStructureError(
                f"dual of representative {c.representative!r} lies in a split family; "
                "no conjugate class exists"
            )
        merged[c.representative] = class_of[dual_label]

    outcome = (
        ConjugacyOutcome.ALL_SELF_CONJUGATE
        if sectors.n % 2 == 1
        else ConjugacyOutcome.UNDETERMINED
    )
    split = {fam.source: outcome for fam in sectors.split}
    return ConjugacyReport(merged=merged, split=split, n=sectors.n)


# ---------------------------------------------------------------------------
# global dimension bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlobalDimCheck:
    input_sum: float
    output_sum: float
    n: int
    rel_error: float
    passed: bool

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"global dimension {self.input_sum:.10g} -> {self.output_sum:.10g} "
            f"(target {self.input_sum / self.n:.10g}, rel err {self.rel_error:.3g}) {status}"
        )


def global_dim_check(ring: FusionRing, sectors: OrbifoldSectors) -> GlobalDimCheck:
    """Sum of squared dimensions must drop by exactly the group order.

    Only meaningful for the full splitting p = n; refused otherwise.
    The input side reads the dimension table the sectors were built from;
    the law holds when the relative error is below ``DIM_LAW_TOLERANCE``.
    """
    if sectors.p != sectors.n:
        raise UnsupportedStructureError(
            "the squared-dimension law applies to the full splitting p = n only"
        )
    total_in = sectors.dims.global_dim()
    total_out = sum(d * d for d in sectors.dimensions().values())
    target = total_in / sectors.n
    rel = abs(total_out - target) / max(1.0, abs(target))
    return GlobalDimCheck(
        input_sum=total_in,
        output_sum=total_out,
        n=sectors.n,
        rel_error=rel,
        passed=rel < DIM_LAW_TOLERANCE,
    )
