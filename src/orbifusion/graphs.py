"""Bipartite multigraphs and their quotients under a cyclic symmetry.

The graph-level shadow of the ring construction: a part-preserving
symmetry of exact order n is folded by merging free vertex orbits and
splitting fixed vertices into n copies. The fold reads each edge
(e, o, m) once. If e is the least member of a free orbit, m adds to the
edge from e's class to o's class, or goes to the edge to each copy of
o when o is fixed. If e is fixed and o is the least member of a free
orbit, m goes to the edge from each copy of e to o's class. Every other
edge is an image of one of these under the symmetry and adds nothing;
an edge between two fixed vertices is refused. This is the unique
dimension-consistent rule. Norm preservation under folding is checked
by the callers, not assumed.

Recognition of the classical and affine two-letter shapes goes through
a structural classifier (degree and leg-length analysis); the generated
templates are what the tests check it against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    AmbiguousMatchingError,
    InputError,
    SchemaError,
    UnsupportedStructureError,
    ValidationError,
)
from .kernels import power_iteration
from .orbifold import SymmetryAction, cycles
from .rings import _INT64_LIMIT, FusionRing

__all__ = [
    "BipartiteGraph",
    "path_graph",
    "pf_norm",
    "NORM_VERTEX_CAP",
    "GraphSymmetry",
    "validate_symmetry",
    "fold_graph",
    "DynkinClass",
    "FAMILIES",
    "template",
    "recognize",
    "induced_graph_symmetry",
]


@dataclass(frozen=True)
class BipartiteGraph:
    """Even/odd vertex parts with sparse edge multiplicities.

    Edges run only between parts; ``mult`` maps (even index, odd index)
    to a positive count, absent meaning zero. Connectivity is required
    by the norm and fold operations and is checked there, not at
    construction.
    """

    even: tuple[str, ...]
    odd: tuple[str, ...]
    mult: dict[tuple[int, int], int] = field(repr=False)

    def __post_init__(self) -> None:
        labels = list(self.even) + list(self.odd)
        if len(set(labels)) != len(labels):
            raise SchemaError("vertex labels must be unique across both parts")
        if not self.even or not self.odd:
            raise SchemaError("both vertex parts must be nonempty")
        cleaned = {}
        for (e, o), m in self.mult.items():
            if not (isinstance(m, (int, np.integer)) and not isinstance(m, bool)):
                raise SchemaError(f"multiplicity of ({e}, {o}) is not an integer: {m!r}")
            if m < 0:
                raise SchemaError(f"multiplicity of ({e}, {o}) is negative")
            if m >= _INT64_LIMIT:  # the adjacency matrix holds it as int64
                raise SchemaError(f"multiplicity of ({e}, {o}) must stay below 2**63")
            if not (0 <= e < len(self.even) and 0 <= o < len(self.odd)):
                raise SchemaError(f"edge ({e}, {o}) is out of range")
            if m > 0:
                cleaned[(int(e), int(o))] = int(m)
        if not cleaned:
            raise SchemaError("a principal graph needs at least one edge")
        object.__setattr__(self, "mult", cleaned)

    @classmethod
    def from_edges(
        cls,
        even: Iterable[str],
        odd: Iterable[str],
        edges: Iterable[tuple[str, str, int]],
    ) -> "BipartiteGraph":
        even = tuple(even)
        odd = tuple(odd)
        ei = {lab: i for i, lab in enumerate(even)}
        oi = {lab: i for i, lab in enumerate(odd)}
        mult: dict[tuple[int, int], int] = {}
        for e, o, m in edges:
            if e not in ei:
                raise SchemaError(f"edge endpoint {e!r} is not an even vertex")
            if o not in oi:
                raise SchemaError(f"edge endpoint {o!r} is not an odd vertex")
            key = (ei[e], oi[o])
            if key in mult:
                raise SchemaError(f"duplicate edge ({e!r}, {o!r})")
            mult[key] = m
        return cls(even=even, odd=odd, mult=mult)

    @property
    def size(self) -> int:
        return len(self.even) + len(self.odd)

    def edges(self) -> list[tuple[str, str, int]]:
        return [
            (self.even[e], self.odd[o], m)
            for (e, o), m in sorted(self.mult.items())
        ]

    def matrix(self) -> np.ndarray:
        out = np.zeros((len(self.even), len(self.odd)), dtype=np.int64)
        for (e, o), m in self.mult.items():
            out[e, o] = m
        return out

    @functools.cached_property
    def _adjacency(self) -> list[list[int]]:
        """Neighbours of each vertex, the even part first, then the odd."""
        ne = len(self.even)
        adj: list[list[int]] = [[] for _ in range(self.size)]
        for (e, o), _ in self.mult.items():
            adj[e].append(ne + o)
            adj[ne + o].append(e)
        return adj

    def is_connected(self) -> bool:
        adj = self._adjacency
        seen = [False] * self.size
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)


def _chain(labels: list[str]) -> BipartiteGraph:
    """The chain labels[0] - labels[1] - ..., with labels[0] even."""
    edges = [
        (labels[i], labels[i + 1], 1) if i % 2 == 0 else (labels[i + 1], labels[i], 1)
        for i in range(len(labels) - 1)
    ]
    return BipartiteGraph.from_edges(even=labels[0::2], odd=labels[1::2], edges=edges)


def path_graph(m: int) -> BipartiteGraph:
    """Chain of m vertices v0 - v1 - ... with v0 even."""
    if m < 2:
        raise InputError("a path needs at least 2 vertices")
    return _chain([f"v{i}" for i in range(m)])


# the power iteration's work grows about as the cube of the vertex count:
# a path of 800 vertices takes about 4 to 5 s on 2 cores, and one of 1,600
# does not converge within the iteration budget
NORM_VERTEX_CAP = 800
NORM_MAX_ITER = 500_000


def pf_norm(graph: BipartiteGraph) -> float:
    """Largest adjacency eigenvalue, by power iteration on the Gram side.

    Working on B B^T (taken on the smaller part) squares the spectrum,
    which removes the plus/minus pairing of bipartite eigenvalues; the
    norm is the square root of the dominant Gram eigenvalue, found by
    :func:`orbifusion.kernels.power_iteration` to 1e-13 within
    ``NORM_MAX_ITER`` steps. Graphs with more than ``NORM_VERTEX_CAP``
    vertices are refused.
    """
    if graph.size > NORM_VERTEX_CAP:
        raise InputError(
            f"the graph norm needs at most {NORM_VERTEX_CAP} vertices, got {graph.size}"
        )
    if not graph.is_connected():
        raise InputError("the graph norm needs a connected graph")
    B = graph.matrix().astype(np.float64)
    M = B @ B.T if B.shape[0] <= B.shape[1] else B.T @ B
    lam, _ = power_iteration(M, 1e-13, NORM_MAX_ITER, "graph norm iteration failed to converge")
    return float(np.sqrt(lam))


# ---------------------------------------------------------------------------
# symmetries and folding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphSymmetry:
    graph: BipartiteGraph = field(repr=False)
    order: int
    vperm: dict[str, str]


def validate_symmetry(
    graph: BipartiteGraph, vperm: Mapping[str, str], n: int
) -> GraphSymmetry:
    """Check that vperm is a part-preserving order-n symmetry.

    The order must be exact, not merely a divisor: fold semantics key
    off orbit sizes relative to n.
    """
    if n < 1:
        raise ValidationError("symmetry order must be positive")
    everts, overts = set(graph.even), set(graph.odd)
    allverts = everts | overts
    if set(vperm.keys()) != allverts or set(vperm.values()) != allverts:
        raise ValidationError("vertex permutation is not a bijection on the vertex set")
    for v, w in vperm.items():
        if (v in everts) != (w in everts):
            raise ValidationError(f"permutation breaks parity at {v!r} -> {w!r}")

    order = math.lcm(*map(len, cycles(graph.even + graph.odd, vperm)))
    if order != n:
        raise ValidationError(f"permutation has exact order {order}, expected {n}")

    ei = {lab: i for i, lab in enumerate(graph.even)}
    oi = {lab: i for i, lab in enumerate(graph.odd)}
    for (e, o), m in graph.mult.items():
        img = (ei[vperm[graph.even[e]]], oi[vperm[graph.odd[o]]])
        if graph.mult.get(img, 0) != m:
            raise ValidationError(
                f"edge ({graph.even[e]!r}, {graph.odd[o]!r}) has multiplicity {m} "
                f"but its image has {graph.mult.get(img, 0)}"
            )
    return GraphSymmetry(graph=graph, order=n, vperm=dict(vperm))


def fold_graph(sym: GraphSymmetry) -> BipartiteGraph:
    """Quotient the graph: merge free orbits, split fixed vertices.

    Free orbits (size n) become single vertices named by their least
    member; a fixed vertex f becomes copies f#0 .. f#{n-1}. Orbits of
    intermediate size and edges between two fixed vertices are refused;
    order 1 returns the graph unchanged.
    """
    g = sym.graph
    n = sym.order
    if n == 1:
        return g

    # each vertex's orbit, as its output labels: [least member] for a
    # free orbit, the n pieces for a fixed vertex
    out: dict[str, list[str]] = {}
    parts = []
    for part in (g.even, g.odd):
        labels = []
        for orbit in cycles(part, sym.vperm):
            if len(orbit) == n:
                pieces = [min(orbit)]
            elif len(orbit) == 1:
                pieces = [f"{orbit[0]}#{k}" for k in range(n)]
            else:
                raise UnsupportedStructureError(
                    f"vertex orbit {orbit} has size {len(orbit)}, strictly between 1 and {n}"
                )
            labels += pieces
            for v in orbit:
                out[v] = pieces
        parts.append(labels)

    edges = [(g.even[e], g.odd[o], m) for (e, o), m in g.mult.items()]
    for a, b, _ in edges:
        if len(out[a]) > 1 and len(out[b]) > 1:
            raise UnsupportedStructureError(
                f"fixed vertices {a!r} and {b!r} are adjacent; "
                "the edge rule between two split families is not determined"
            )

    medges: dict[tuple[str, str], int] = {}
    for a, b, m in edges:
        if out[a] == [a]:  # the least member of a merged even class
            for piece in out[b]:
                medges[a, piece] = medges.get((a, piece), 0) + m
        elif len(out[a]) > 1 and out[b] == [b]:  # fixed, to the least of a merged odd class
            for piece in out[a]:
                medges[piece, b] = m
    return BipartiteGraph.from_edges(*parts, [(a, b, m) for (a, b), m in medges.items()])


# ---------------------------------------------------------------------------
# shape recognition
# ---------------------------------------------------------------------------

FAMILIES = (
    "A",
    "D",
    "E6",
    "E7",
    "E8",
    "A_affine",
    "D_affine",
    "E6_affine",
    "E7_affine",
    "E8_affine",
    "Unknown",
)

_RANK_CAP = 200


@dataclass(frozen=True)
class DynkinClass:
    family: str
    rank: int | None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}")

    def __str__(self) -> str:
        if self.family == "Unknown":
            return "Unknown"
        affine = self.family.endswith("_affine")
        base = self.family[:-7] if affine else self.family
        name = base if base.startswith("E") else f"{base}_{self.rank}"
        return name + ("^(1)" if affine else "")


def _legs_graph(legs: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edge list of a star of paths: vertex 0 is the branch point."""
    edges = []
    nxt = 1
    for leg in legs:
        prev = 0
        for _ in range(leg):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


def _from_simple_edges(nv: int, edges: list[tuple[int, int]]) -> BipartiteGraph:
    labels = [f"t{i}" for i in range(nv)]
    adj: list[list[int]] = [[] for _ in range(nv)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * nv
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if color[v] == -1:
                color[v] = 1 - color[u]
                stack.append(v)
    even = [labels[i] for i in range(nv) if color[i] == 0]
    odd = [labels[i] for i in range(nv) if color[i] == 1]
    out = []
    for u, v in edges:
        if color[u] == 0:
            out.append((labels[u], labels[v], 1))
        else:
            out.append((labels[v], labels[u], 1))
    return BipartiteGraph.from_edges(even, odd, out)


def template(family: str, rank: int | None = None) -> BipartiteGraph:
    """Reference graph for a family and rank."""
    if family == "A":
        if rank is None or rank < 2:
            raise InputError("family A needs rank >= 2")
        return path_graph(rank)
    if family == "D":
        if rank is None or rank < 4:
            raise InputError("family D needs rank >= 4")
        return _from_simple_edges(rank, _legs_graph((1, 1, rank - 3)))
    if family in ("E6", "E7", "E8"):
        legs = {"E6": (1, 2, 2), "E7": (1, 2, 3), "E8": (1, 2, 4)}[family]
        return _from_simple_edges(int(family[1]), _legs_graph(legs))
    if family == "A_affine":
        if rank == 1:
            return BipartiteGraph.from_edges(["t0"], ["t1"], [("t0", "t1", 2)])
        if rank is None or rank < 3 or rank % 2 == 0:
            raise InputError(
                "family A_affine needs odd rank (even rank gives an odd cycle, not bipartite)"
            )
        nv = rank + 1
        return _from_simple_edges(nv, [(i, (i + 1) % nv) for i in range(nv)])
    if family == "D_affine":
        if rank is None or rank < 4:
            raise InputError("family D_affine needs rank >= 4")
        if rank == 4:
            return _from_simple_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        spine = rank - 3
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [(0, spine), (0, spine + 1), (spine - 1, spine + 2), (spine - 1, spine + 3)]
        return _from_simple_edges(rank + 1, edges)
    if family in ("E6_affine", "E7_affine", "E8_affine"):
        legs = {"E6_affine": (2, 2, 2), "E7_affine": (1, 3, 3), "E8_affine": (1, 2, 5)}[family]
        return _from_simple_edges(int(family[1]) + 1, _legs_graph(legs))
    raise InputError(f"no template for family {family!r}")


def _leg_lengths(adj: list[list[int]], branch: int) -> list[int] | None:
    """Walk each branch direction to a leaf; None if a walk re-branches."""
    legs = []
    for start in adj[branch]:
        length = 1
        prev, cur = branch, start
        while len(adj[cur]) == 2:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
            length += 1
        if len(adj[cur]) != 1:
            return None
        legs.append(length)
    return sorted(legs)


def _structural_guess(graph: BipartiteGraph) -> DynkinClass | None:
    if not graph.is_connected():
        return None
    V = graph.size
    mults = list(graph.mult.values())
    if any(m > 2 for m in mults):
        return None
    if any(m == 2 for m in mults):
        if V == 2 and len(graph.mult) == 1:
            return DynkinClass("A_affine", 1)
        return None

    E = len(graph.mult)
    deg = [len(ws) for ws in graph._adjacency]
    if max(deg) > 4:
        return None

    if E == V:
        if all(d == 2 for d in deg) and V >= 4:
            return DynkinClass("A_affine", V - 1)
        return None
    if E != V - 1:
        return None

    deg4 = [v for v, d in enumerate(deg) if d == 4]
    deg3 = [v for v, d in enumerate(deg) if d == 3]
    leaves = [v for v, d in enumerate(deg) if d == 1]
    if deg4:
        if len(deg4) == 1 and V == 5 and len(leaves) == 4 and not deg3:
            return DynkinClass("D_affine", 4)
        return None
    if not deg3:
        return DynkinClass("A", V) if V >= 2 else None
    if len(deg3) == 1:
        legs = _leg_lengths(graph._adjacency, deg3[0])
        if legs is None:
            return None
        legs_t = tuple(legs)
        if legs_t[:2] == (1, 1):
            return DynkinClass("D", V)
        named = {
            (1, 2, 2): ("E6", 6),
            (1, 2, 3): ("E7", 7),
            (1, 2, 4): ("E8", 8),
            (2, 2, 2): ("E6_affine", 6),
            (1, 3, 3): ("E7_affine", 7),
            (1, 2, 5): ("E8_affine", 8),
        }
        if legs_t in named:
            return DynkinClass(*named[legs_t])
        return None
    if len(deg3) == 2:
        if len(leaves) != 4:
            return None
        if any(d not in (1, 2, 3) for d in deg):
            return None
        for b in deg3:
            if sum(1 for w in graph._adjacency[b] if deg[w] == 1) != 2:
                return None
        return DynkinClass("D_affine", V - 1)
    return None


def recognize(graph: BipartiteGraph) -> DynkinClass:
    """Classify the underlying shape, ignoring the even/odd labeling.

    A structural pass (degrees, cycle count, leg lengths) names the
    unique candidate class. The invariants it checks pin these shapes
    down completely, so the name is already a certificate: the tests
    hold it to the generated template of every family, to every tree on
    up to seven vertices and to near-miss shapes. Anything failing a
    step, or past rank 200, reports Unknown.
    """
    guess = _structural_guess(graph)
    if guess is None or (guess.rank or 0) > _RANK_CAP:
        return DynkinClass("Unknown", None)
    return guess


# ---------------------------------------------------------------------------
# transport of a ring action to its graph
# ---------------------------------------------------------------------------

def induced_graph_symmetry(
    ring: FusionRing,
    action: SymmetryAction,
    graph: BipartiteGraph,
    even_map: Mapping[str, str],
) -> GraphSymmetry:
    """Extend the fusion action of alpha from the even part to the graph.

    ``even_map`` identifies every even vertex with a ring label. The
    odd extension is forced edge-by-edge: an odd vertex can only map to
    a vertex whose column matches its own under the even permutation.
    Two odd vertices with equal columns have the same candidates, and
    two with different columns share none, so assigning one vertex
    takes a candidate only from vertices of its own column. One pass in
    vertex order therefore settles everything: a vertex with a single
    untaken candidate gets it, the first vertex left with none raises
    ``InputError``, and otherwise the first with several is reported
    ambiguous rather than chosen.
    """
    if set(even_map.keys()) != set(graph.even):
        raise InputError("even_map must cover exactly the even vertices")
    if len(set(even_map.values())) != len(even_map):
        raise InputError("even_map must be injective")
    ring_to_vertex = {lab: v for v, lab in even_map.items()}

    evperm: dict[str, str] = {}
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

    # the odd vertices t whose image column R[:, t] reads the same, in
    # ascending t, keyed by the column's bytes
    images: dict[bytes, list[int]] = {}
    for t, col in enumerate(R.T):
        images.setdefault(col.tobytes(), []).append(t)
    compatible = [images.get(col.tobytes(), []) for col in M.T]

    assigned: dict[int, int] = {}
    taken: set[int] = set()
    ambiguous = None
    for o, cands in enumerate(compatible):
        untaken = [t for t in cands if t not in taken]
        if not untaken:
            raise InputError(
                f"odd vertex {graph.odd[o]!r} has no image compatible with the action"
            )
        if len(untaken) == 1:
            assigned[o] = untaken[0]
            taken.add(untaken[0])
        elif ambiguous is None:
            ambiguous = o
    if ambiguous is not None:
        raise AmbiguousMatchingError(
            f"odd vertex {graph.odd[ambiguous]!r} has several compatible images; "
            "supply the vertex permutation explicitly"
        )

    vperm = dict(evperm)
    for o, t in assigned.items():
        vperm[graph.odd[o]] = graph.odd[t]
    return validate_symmetry(graph, vperm, action.order)
