"""Built-in worked instances with their expected outcomes.

Each entry packages a ring (sometimes a principal graph with it), the
acting label, the designated fixed label, and every value the pipeline
is expected to produce: the self-coupling count m (which fixes the
expected gcd verdict), the sector shape, the folded graph class.
``run`` executes the whole pipeline against an entry and reports one
pass/fail line per claim.

A small registry records obstruction values that the gcd test cannot
certify. Recorded values are inputs, not computations: the one
nontrivial entry carries a sign obtained from an operator-model
computation, and the trivial entries record quotients known to exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, OrbifusionError
from .graphs import (
    BipartiteGraph,
    DynkinClass,
    _chain,
    fold_graph,
    induced_graph_symmetry,
    pf_norm,
    recognize,
)
from .orbifold import (
    ConjugacyOutcome,
    ObstructionValue,
    ObstructionVerdict,
    OrbifoldInput,
    cyclic_action,
    global_dim_check,
    obstruction_bound,
    orbifold_sectors,
)
from .rings import (
    FusionRing,
    classify_by_orders,
    constant_dtype,
    fp_dimensions,
    invertibles,
    validate_ring,
)
from .su3 import su3_ring, weight_label

__all__ = [
    "CatalogEntry",
    "RegistryEntry",
    "REGISTRY",
    "known_obstruction",
    "names",
    "build",
    "OutcomeLine",
    "OutcomeReport",
    "run",
    "su2_even_ring",
    "chain_graph",
]


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def su2_even_ring(level: int) -> FusionRing:
    """Even-spin part of the level-truncated SU(2) ring.

    Labels rho0, rho2, ..., rho<level> with the truncated product
    N_{ab}^c = 1 exactly when |a-b| <= c <= min(a+b, 2*level-a-b).
    The pair-major arrays come straight from that rule, with no sort:
    with label index t standing for rho<2t>, row (s, t) holds every
    output from |s-t| to min(s+t, level-s-t), each with constant 1.
    """
    if level < 2 or level % 2 != 0:
        raise InputError("the even subring needs an even level >= 2")
    L = level // 2 + 1
    s, t = np.divmod(np.arange(L * L, dtype=np.int64), L)
    lo = np.abs(s - t)
    # no row is empty: 2 max(s, t) <= level gives |s-t| <= level-s-t
    counts = np.minimum(s + t, level - s - t) - lo + 1
    ptr = np.zeros(L * L + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    nnz = int(ptr[-1])
    # entry e of row r is lo[r] + (e - ptr[r])
    idx = np.arange(nnz, dtype=np.int32)
    idx += np.repeat((lo - ptr[:-1]).astype(np.int32), counts)
    labels = [f"rho{2 * u}" for u in range(L)]
    return FusionRing.from_csr(
        labels, 0, range(L), ptr, idx, np.ones(nnz, dtype=constant_dtype(1))
    )


def chain_graph(length: int) -> BipartiteGraph:
    """Principal-graph chain rho0 - rho1 - ... - rho<length-1>."""
    return _chain([f"rho{k}" for k in range(length)])


def _near_group_ring(order: int, m: int) -> FusionRing:
    """Cyclic invertibles g^0..g^{order-1} plus one rho with rho^2 = sum(g) + m*rho.

    d(rho) is then the positive root of d^2 = order + m*d. Associativity
    holds for every m >= 0 here, so the self-coupling is a free choice.
    """
    if order == 2:
        labels = ["id", "alpha"]
    elif order == 3:
        labels = ["id", "alpha", "alpha2"]
    else:
        raise InputError("only orders 2 and 3 are built here")
    labels = labels + ["rho"]
    dual = {lab: lab for lab in labels}
    if order == 3:
        dual["alpha"], dual["alpha2"] = "alpha2", "alpha"
    triples = []
    group = labels[:-1]
    for i, g in enumerate(group):
        for j, h in enumerate(group):
            triples.append((g, h, group[(i + j) % order], 1))
        triples.append((g, "rho", "rho", 1))
        triples.append(("rho", g, "rho", 1))
        triples.append(("rho", "rho", g, 1))
    triples.append(("rho", "rho", "rho", m))
    return FusionRing.from_labels(labels, unit="id", dual=dual, triples=triples)


def _e6_graph() -> BipartiteGraph:
    even = ["id", "alpha", "rho"]
    odd = ["m1", "m2", "m3"]
    edges = [
        ("rho", "m1", 1),
        ("rho", "m2", 1),
        ("rho", "m3", 1),
        ("id", "m2", 1),
        ("alpha", "m3", 1),
    ]
    return BipartiteGraph.from_edges(even, odd, edges)


def _e6_affine_graph() -> BipartiteGraph:
    even = ["id", "alpha", "alpha2", "rho"]
    odd = ["m1", "m2", "m3"]
    edges = [
        ("rho", "m1", 1),
        ("rho", "m2", 1),
        ("rho", "m3", 1),
        ("id", "m1", 1),
        ("alpha", "m2", 1),
        ("alpha2", "m3", 1),
    ]
    return BipartiteGraph.from_edges(even, odd, edges)


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    ring: FusionRing = field(repr=False)
    alpha: str
    rho: str | None
    n: int
    graph: BipartiteGraph | None = field(default=None, repr=False)
    even_map: dict[str, str] | None = field(default=None, repr=False)
    expected_m: int | None = None
    expected_fold: DynkinClass | None = None
    expected_sectors: tuple[int, int] | None = None  # (merged classes, split pieces)
    expected_rho_dim: float | None = None
    expected_group: str | None = None
    expect_a3: bool = True
    notes: str = ""


def _chain_entry(n: int) -> CatalogEntry:
    level = 4 * n - 4
    mid = 2 * n - 2
    return CatalogEntry(
        name=f"A{4 * n - 3}",
        ring=su2_even_ring(level),
        alpha=f"rho{level}",
        rho=f"rho{mid}",
        n=2,
        graph=chain_graph(4 * n - 3),
        even_map={f"rho{k}": f"rho{k}" for k in range(0, level + 1, 2)},
        expected_m=1,
        expected_fold=DynkinClass("D", 2 * n),
        expected_sectors=(n - 1, 2),
        notes=(
            f"Chain of {4 * n - 3} with the end-to-end flip. The middle label "
            "couples to itself exactly once, so the gcd test certifies the "
            f"quotient; folding the chain yields the rank-{2 * n} forked shape."
        ),
    )


def _chain_failure_entry(n: int) -> CatalogEntry:
    level = 4 * n - 2
    return CatalogEntry(
        name=f"A{4 * n - 1}_failure",
        ring=su2_even_ring(level),
        alpha=f"rho{level}",
        rho=None,
        n=2,
        expect_a3=False,
        notes=(
            f"Even subring at level {4 * n - 2}. The flip fixes only the absent "
            f"odd label rho{2 * n - 1}, so no label is simultaneously self-dual, "
            "fixed, and self-coupled, and the construction never starts."
        ),
    )


def _su3_entry(k: int) -> CatalogEntry:
    level = 3 * k
    m = k + 1
    return CatalogEntry(
        name=f"SU3_level_{level}",
        ring=su3_ring(level),
        alpha=weight_label((level, 0)),
        rho=weight_label((k, k)),
        n=3,
        expected_m=m,
        # one fixed weight; the other (level+1)(level+2)/2 - 1 fall in free orbits
        expected_sectors=(((level + 1) * (level + 2) // 2 - 1) // 3, 3),
        notes=(
            f"Full alcove ring at level {level} with the order-3 current. The "
            f"fixed weight ({k},{k}) carries self-coupling {m}; the count grows "
            "by one per step of k because exactly one more dominant summand of "
            "the classical square survives the alcove fold."
        ),
    )


def _entries() -> dict[str, Callable[[], CatalogEntry]]:
    out: dict[str, Callable[[], CatalogEntry]] = {}
    for n in range(2, 13):
        out[f"A{4 * n - 3}"] = (lambda nn: lambda: _chain_entry(nn))(n)
    for n in range(2, 7):
        out[f"A{4 * n - 1}_failure"] = (lambda nn: lambda: _chain_failure_entry(nn))(n)
    out["E6"] = lambda: CatalogEntry(
        name="E6",
        ring=_near_group_ring(2, 2),
        alpha="alpha",
        rho="rho",
        n=2,
        graph=_e6_graph(),
        even_map={"id": "id", "alpha": "alpha", "rho": "rho"},
        expected_m=2,
        expected_sectors=(1, 1),
        expected_rho_dim=1.0 + math.sqrt(3.0),
        notes=(
            "Two invertibles and one big label with rho^2 = id + alpha + 2 rho. "
            "gcd(2, 2) = 2 leaves the gcd test silent; the recorded obstruction "
            "is -1, so the fixed label stays in one piece and no graph change "
            "is predicted."
        ),
    )
    out["E6affine"] = lambda: CatalogEntry(
        name="E6affine",
        ring=_near_group_ring(3, 2),
        alpha="alpha",
        rho="rho",
        n=3,
        graph=_e6_affine_graph(),
        even_map={lab: lab for lab in ("id", "alpha", "alpha2", "rho")},
        expected_m=2,
        expected_fold=DynkinClass("D_affine", 4),
        expected_sectors=(1, 3),
        expected_rho_dim=3.0,
        expected_group="Z/2 x Z/2",
        notes=(
            "Three invertibles forming Z/3 and one label of dimension 3 with "
            "rho^2 = id + alpha + alpha2 + 2 rho; this is the even part of the "
            "level-3 alcove ring restricted to the current orbit of the unit "
            "plus its fixed weight. gcd(2, 3) = 1 certifies the quotient: the "
            "invertibles merge, rho splits into three pieces of dimension 1, "
            "and the graph folds to the 4-pronged star."
        ),
    )
    for k in range(1, 9):
        out[f"SU3_level_{3 * k}"] = (lambda kk: lambda: _su3_entry(kk))(k)
    return out


_BUILDERS = _entries()
_ALIASES = {f"A{4 * n - 1}": f"A{4 * n - 1}_failure" for n in range(2, 7)}


def names() -> list[str]:
    return list(_BUILDERS.keys())


def build(name: str) -> CatalogEntry:
    key = _ALIASES.get(name, name)
    if key not in _BUILDERS:
        raise InputError(f"unknown catalog entry {name!r}; see `catalog list`")
    return _BUILDERS[key]()


# ---------------------------------------------------------------------------
# recorded obstruction values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegistryEntry:
    value: ObstructionValue
    note: str


REGISTRY: dict[str, RegistryEntry] = {
    "E6": RegistryEntry(
        ObstructionValue(1, 2),
        "Sign of the half-braiding self-pairing for the index-(2+sqrt(3)) "
        "inclusion, obtained from an operator-model computation; the gcd "
        "test cannot see it. Recorded as input, not derived here.",
    ),
    "SU3_level_6": RegistryEntry(
        ObstructionValue(0, 3),
        "The current-quotient is known to exist at every level divisible by "
        "3, so the value is trivial even though gcd(3, 3) leaves the test "
        "silent.",
    ),
    "SU3_level_15": RegistryEntry(
        ObstructionValue(0, 3),
        "Same as level 6: the quotient exists at all levels divisible by 3; "
        "gcd(6, 3) is silent.",
    ),
    "SU3_level_24": RegistryEntry(
        ObstructionValue(0, 3),
        "Same as level 6: the quotient exists at all levels divisible by 3; "
        "gcd(9, 3) is silent.",
    ),
}


def known_obstruction(name: str) -> ObstructionValue | None:
    key = _ALIASES.get(name, name)
    entry = REGISTRY.get(key)
    return entry.value if entry else None


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutcomeLine:
    check: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.check}: {self.detail}"


@dataclass(frozen=True)
class OutcomeReport:
    name: str
    lines: tuple[OutcomeLine, ...]

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def __str__(self) -> str:
        head = f"== {self.name}: {'pass' if self.passed else 'FAIL'} =="
        return "\n".join([head] + [str(line) for line in self.lines])

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [
                {"check": l.check, "passed": l.passed, "detail": l.detail}
                for l in self.lines
            ],
        }


def _dim_one(x: float) -> bool:
    return abs(x - 1.0) <= 1e-6


def run(name: str) -> OutcomeReport:
    """Execute the pipeline on one entry and compare every expectation."""
    entry = build(name)
    ring = entry.ring
    lines: list[OutcomeLine] = []

    def add(check: str, passed: bool, detail: str) -> bool:
        lines.append(OutcomeLine(check, bool(passed), detail))
        return bool(passed)

    def report() -> OutcomeReport:
        return OutcomeReport(name=entry.name, lines=tuple(lines))

    try:
        vrep = validate_ring(ring)
        if not add(
            "ring axioms",
            vrep.passed,
            f"{ring.size} labels, {ring.nnz} nonzero constants"
            + ("" if vrep.passed else f"; {vrep}"),
        ):
            return report()

        dims = fp_dimensions(ring)
        if entry.rho is not None and entry.expected_rho_dim is not None:
            d = dims[ring.index(entry.rho)]
            add(
                "dimension of the fixed label",
                abs(d - entry.expected_rho_dim) <= 1e-9,
                f"d({entry.rho}) = {d:.12g}",
            )

        action = cyclic_action(ring, entry.alpha)
        if not add(
            "action order",
            action.order == entry.n,
            f"{entry.alpha} has exact order {action.order}",
        ):
            return report()

        inp = OrbifoldInput.make(action, entry.rho, loi_trivial_attested=True)
        arep = inp.assumptions
        if not entry.expect_a3:
            add(
                "assumption scan",
                not arep.item("A3").passed,
                arep.item("A3").detail,
            )
            add("halt", True, "construction not attempted; no eligible fixed label")
            return report()
        if not add("assumptions", arep.passed, "; ".join(str(i) for i in arep.items)):
            return report()

        verdict = obstruction_bound(inp)
        add(
            "self-coupling count",
            entry.expected_m is None or verdict.m == entry.expected_m,
            f"m = {verdict.m}",
        )
        add(
            "gcd verdict",
            entry.expected_m is None
            or ObstructionVerdict(entry.expected_m, entry.n).verdict is verdict.verdict,
            f"gcd({verdict.m}, {verdict.n}) -> {verdict.verdict.value}",
        )

        # near-group dichotomy, checked whenever the ring has a single
        # non-invertible label: m is either one less than the number of
        # invertibles or a multiple of it
        inv = invertibles(ring)
        if len(inv) == ring.size - 1:
            g = len(inv)
            branch = (
                "one less than the invertible count"
                if verdict.m == g - 1
                else ("a multiple of the invertible count" if verdict.m % g == 0 else None)
            )
            add(
                "near-group dichotomy",
                branch is not None,
                f"m = {verdict.m}, invertibles = {g}"
                + (f"; {branch}" if branch else "; neither branch holds"),
            )

        value = verdict.certified
        if value is not None:
            add("obstruction value", True, "1, certified by the gcd test")
        else:
            value = known_obstruction(entry.name)
            if value is None:
                add(
                    "obstruction value",
                    False,
                    "not certified and not recorded; cannot proceed",
                )
                return report()
            add("obstruction value", True, f"{value.describe()}, from the registry")

        sectors = orbifold_sectors(inp, value, dims)
        shape = (len(sectors.merged), sum(len(f.pieces) for f in sectors.split))
        add(
            "sector shape",
            entry.expected_sectors is None or shape == entry.expected_sectors,
            f"{shape[0]} merged classes + {shape[1]} pieces"
            + (f" (p = {sectors.p} of n = {sectors.n})" if sectors.p != sectors.n else ""),
        )
        for fam in sectors.split:
            src = ring.index(fam.source)
            add(
                f"piece dimensions of {fam.source}",
                abs(sectors.p * fam.dimension - dims[src]) <= 1e-9,
                f"{len(fam.pieces)} x {fam.dimension:.12g}",
            )

        if sectors.p == sectors.n:
            gd = global_dim_check(ring, sectors)
            add("squared-dimension law", gd.passed, str(gd))
            conj = sectors.conjugacy
            involution = conj is not None and all(
                conj.merged.get(v) == k for k, v in conj.merged.items()
            )
            want, rule = (
                (ConjugacyOutcome.ALL_SELF_CONJUGATE, "pieces self-conjugate (odd order)")
                if entry.n % 2 == 1
                else (ConjugacyOutcome.UNDETERMINED, "piece rule two-valued, undetermined")
            )
            pieces_ok = conj is not None and all(v is want for v in conj.split.values())
            add(
                "conjugacy",
                involution and pieces_ok,
                f"merged classes pair off under duality; {rule}",
            )

        if entry.expected_group is not None:
            out_dims = sectors.dimensions()
            conj = sectors.conjugacy
            group_ok = (
                conj is not None
                and conj.all_self_conjugate
                and all(_dim_one(d) for d in out_dims.values())
            )
            if group_ok:
                unit_lab = ring.labels[ring.unit]
                orders = []
                for c in sectors.merged:
                    orders.append(1 if unit_lab in c.members else 2)
                orders.extend(2 for f in sectors.split for _ in f.pieces)
                cls = classify_by_orders(sorted(orders))
                add(
                    "output group",
                    cls.name == entry.expected_group,
                    f"invertible outputs form {cls.name}",
                )
            else:
                add("output group", False, "outputs are not an all-self-conjugate group of units")

        if entry.graph is not None:
            if value.is_trivial:
                sym = induced_graph_symmetry(ring, action, entry.graph, entry.even_map or {})
                folded = fold_graph(sym)
                cls = recognize(folded)
                add(
                    "folded graph",
                    entry.expected_fold is None or cls == entry.expected_fold,
                    str(cls),
                )
                before, after = pf_norm(entry.graph), pf_norm(folded)
                add(
                    "norm preserved",
                    abs(before - after) <= 1e-9,
                    f"{before:.12g} -> {after:.12g}",
                )
            else:
                add(
                    "graph",
                    True,
                    "no graph change predicted; folded graph not computed",
                )

        if entry.name == "E6affine":
            add(
                "level-3 correspondence",
                _matches_level3_subring(ring),
                "ring matches the level-3 alcove ring on the unit orbit plus fixed weight",
            )
    except OrbifusionError as exc:
        add("error", False, f"{type(exc).__name__}: {exc}")
    return report()


def _matches_level3_subring(ring: FusionRing) -> bool:
    """Compare against su3_ring(3) restricted to the closed label set."""
    big = su3_ring(3)
    mapping = {"id": "0,0", "alpha": "3,0", "alpha2": "0,3", "rho": "1,1"}
    inv = {w: lab for lab, w in mapping.items()}
    sub = {lab: big.index(w) for lab, w in mapping.items()}
    for i, li in enumerate(ring.labels):
        for j, lj in enumerate(ring.labels):
            ks, vs = ring.row(i, j)
            got = {ring.labels[k]: int(v) for k, v in zip(ks, vs)}
            bks, bvs = big.row(sub[li], sub[lj])
            want = {}
            for k, v in zip(bks, bvs):
                w = big.labels[k]
                if w not in inv:
                    return False  # products must not leave the label set
                want[inv[w]] = int(v)
            if got != want:
                return False
    return True

