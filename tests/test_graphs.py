import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbifusion.graphs as graphs_module
import orbifusion.kernels as kernels_module
from orbifusion import (
    AmbiguousMatchingError,
    BipartiteGraph,
    DynkinClass,
    InputError,
    NumericError,
    OrbifusionError,
    SchemaError,
    UnsupportedStructureError,
    ValidationError,
    cyclic_action,
    fold_graph,
    induced_graph_symmetry,
    path_graph,
    pf_norm,
    recognize,
    validate_symmetry,
)
from orbifusion.catalog import build, chain_graph, names, su2_even_ring
from orbifusion.graphs import (
    FAMILIES,
    NORM_VERTEX_CAP,
    _from_simple_edges,
    _legs_graph,
    template,
)

from .oracles import (
    cyclic_ring,
    fold_graph_class_pairs,
    induced_graph_symmetry_pairwise,
    pf_norm_dense,
    pf_norm_loop,
    pf_norm_loop_step,
    prufer_tree,
    tree_canon,
)

# the paper's application: A_{4n-3} chains folded to D_{2n}
D2N_SIZES = tuple(range(2, 31)) + (40, 50)


@functools.cache
def _d2n_case(n):
    """(ring, action, graph, even_map) of the A_{4n-3} chain, built once per session."""
    level = 4 * n - 4
    ring = su2_even_ring(level)
    graph = chain_graph(4 * n - 3)
    return ring, cyclic_action(ring, f"rho{level}"), graph, {v: v for v in graph.even}


@functools.cache
def _d2n_symmetry(n):
    return induced_graph_symmetry(*_d2n_case(n))


def _tee_graph():
    # center c and a middle leaf m stay fixed while l and r swap
    return BipartiteGraph.from_edges(
        even=["c"],
        odd=["l", "m", "r"],
        edges=[("c", "l", 1), ("c", "m", 1), ("c", "r", 1)],
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_duplicate_labels_across_parts_refused():
    with pytest.raises(SchemaError):
        BipartiteGraph.from_edges(["a"], ["a"], [("a", "a", 1)])


def test_empty_part_refused():
    with pytest.raises(SchemaError):
        BipartiteGraph(even=(), odd=("b",), mult={})


def test_multiplicity_type_and_sign_checked():
    with pytest.raises(SchemaError):
        BipartiteGraph(even=("a",), odd=("b",), mult={(0, 0): 1.5})
    with pytest.raises(SchemaError):
        BipartiteGraph(even=("a",), odd=("b",), mult={(0, 0): True})
    with pytest.raises(SchemaError):
        BipartiteGraph(even=("a",), odd=("b",), mult={(0, 0): -1})


def test_multiplicity_past_int64_refused():
    # the adjacency matrix holds the multiplicities as int64
    for m in (2**63, 2**70, np.uint64(2**63)):
        with pytest.raises(SchemaError) as err:
            BipartiteGraph(even=("a",), odd=("b", "c"), mult={(0, 0): 1, (0, 1): m})
        assert str(err.value) == "multiplicity of (0, 1) must stay below 2**63"
    g = BipartiteGraph(even=("a",), odd=("b",), mult={(0, 0): 2**63 - 1})
    assert g.matrix().tolist() == [[2**63 - 1]]


def test_out_of_range_and_empty_edge_sets_refused():
    with pytest.raises(SchemaError):
        BipartiteGraph(even=("a",), odd=("b",), mult={(0, 1): 1})
    with pytest.raises(SchemaError):
        BipartiteGraph(even=("a",), odd=("b",), mult={})


def test_from_edges_rejects_bad_endpoints_and_duplicates():
    with pytest.raises(SchemaError):
        BipartiteGraph.from_edges(["a"], ["b"], [("b", "a", 1)])
    with pytest.raises(SchemaError):
        BipartiteGraph.from_edges(["a"], ["b"], [("a", "b", 1), ("a", "b", 1)])


def test_zero_multiplicity_is_dropped_and_edges_sorted():
    g = BipartiteGraph(
        even=("a", "b"),
        odd=("x", "y"),
        mult={(1, 1): 3, (0, 0): 1, (0, 1): 0, (1, 0): 2},
    )
    assert g.edges() == [("a", "x", 1), ("b", "x", 2), ("b", "y", 3)]
    assert g.matrix().tolist() == [[1, 0], [2, 3]]


def test_path_graph_shape():
    g = path_graph(5)
    assert g.even == ("v0", "v2", "v4")
    assert g.odd == ("v1", "v3")
    assert len(g.edges()) == 4
    with pytest.raises(InputError):
        path_graph(1)


def test_chain_graph_is_the_path_with_rho_labels():
    for m in range(2, 41):
        chain = chain_graph(m)
        rename = {f"rho{k}": f"v{k}" for k in range(m)}
        assert [rename[v] for v in chain.even] == list(path_graph(m).even)
        assert [rename[v] for v in chain.odd] == list(path_graph(m).odd)
        assert chain.mult == path_graph(m).mult
    for m in (0, 1):
        with pytest.raises(SchemaError, match="both vertex parts must be nonempty"):
            chain_graph(m)


# ---------------------------------------------------------------------------
# the norm
# ---------------------------------------------------------------------------

def test_chain_norms_are_the_cosine_values():
    for m in range(2, 12):
        want = 2.0 * math.cos(math.pi / (m + 1))
        assert pf_norm(path_graph(m)) == pytest.approx(want, abs=1e-10)


def test_affine_templates_sit_at_norm_two():
    shapes = [
        ("A_affine", 1),
        ("A_affine", 7),
        ("D_affine", 4),
        ("D_affine", 9),
        ("E6_affine", None),
        ("E7_affine", None),
        ("E8_affine", None),
    ]
    for family, rank in shapes:
        assert pf_norm(template(family, rank)) == pytest.approx(2.0, abs=1e-10)


def test_norm_agrees_with_dense_eigenvalues_on_templates():
    shapes = [
        ("A", 7),
        ("D", 6),
        ("E6", None),
        ("E7", None),
        ("E8", None),
        ("D_affine", 5),
    ]
    for family, rank in shapes:
        g = template(family, rank)
        assert pf_norm(g) == pytest.approx(pf_norm_dense(g), abs=1e-9)


def _folded_chain(n):
    return fold_graph(_d2n_symmetry(n))


def test_norm_is_bitwise_the_plain_power_iteration():
    graphs = [path_graph(m) for m in list(range(2, 41)) + [199]]
    catalog = (build(name).graph for name in names() if not name.startswith("SU3"))
    graphs += [g for g in catalog if g is not None]
    # the 62 graphs of the paper's application: every A_{4n-3} and its fold
    graphs += [chain_graph(4 * n - 3) for n in D2N_SIZES]
    graphs += [_folded_chain(n) for n in D2N_SIZES]
    graphs += [template(family, None) for family in ("E6", "E7", "E8", "E6_affine", "E8_affine")]
    graphs += [template("A_affine", 7), template("D_affine", 9), template("D", 6)]
    for g in graphs:
        assert pf_norm(g) == pf_norm_loop(g), g


def _block_edge_graphs():
    """Graphs whose first passing step sits at an edge of a 64-step block."""
    return [
        (path_graph(2), 0),
        (path_graph(8), 63),
        (template("D_affine", 7), 64),
        (template("E8_affine"), 65),
        (_from_simple_edges(13, _legs_graph((1, 3, 8))), 128),
        (_from_simple_edges(16, _legs_graph((2, 4, 9))), 129),
    ]


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_norm_blocks_stop_at_the_first_passing_step(monkeypatch, chunk):
    monkeypatch.setattr(kernels_module, "_POWER_CHUNK", chunk)
    for g, step in _block_edge_graphs():
        want, first = pf_norm_loop_step(g)
        assert first == step
        assert pf_norm(g) == want


def test_norm_iteration_budget_can_end_inside_a_block(monkeypatch):
    assert kernels_module._POWER_CHUNK == 64
    # budgets of 66/65, 132/131 and 1069/1068 steps end inside a block of
    # 64, and 64/63 at the end of the first block
    cases = ((template("E8_affine"), 65), (path_graph(12), 131), (path_graph(40), 1068))
    for g, step in cases + ((path_graph(8), 63),):
        want, first = pf_norm_loop_step(g)
        assert first == step
        # one step more than the plain loop needs still returns its float
        monkeypatch.setattr(graphs_module, "NORM_MAX_ITER", first + 1)
        assert pf_norm(g) == want
        # one step fewer never reaches the passing step
        monkeypatch.setattr(graphs_module, "NORM_MAX_ITER", first)
        with pytest.raises(NumericError) as err:
            pf_norm(g)
        assert str(err.value) == "graph norm iteration failed to converge"


def test_norm_refuses_graphs_past_the_vertex_cap():
    assert NORM_VERTEX_CAP == 800
    with pytest.raises(InputError) as err:
        pf_norm(path_graph(NORM_VERTEX_CAP + 1))
    assert str(err.value) == "the graph norm needs at most 800 vertices, got 801"
    # a star at the cap is accepted: its Gram side is one vertex
    leaves = [f"l{t}" for t in range(NORM_VERTEX_CAP - 1)]
    star = BipartiteGraph.from_edges(["c"], leaves, [("c", lf, 1) for lf in leaves])
    assert star.size == NORM_VERTEX_CAP
    assert pf_norm(star) == pytest.approx(math.sqrt(NORM_VERTEX_CAP - 1), rel=1e-12)


def test_norm_requires_connectivity():
    g = BipartiteGraph.from_edges(
        ["a", "b"], ["x", "y"], [("a", "x", 1), ("b", "y", 1)]
    )
    with pytest.raises(InputError):
        pf_norm(g)


@settings(max_examples=60)
@given(
    ne=st.integers(min_value=1, max_value=4),
    no=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_norm_matches_dense_oracle_on_random_connected_graphs(ne, no, data):
    mult = {}
    for i in range(ne):
        mult[(i, 0)] = data.draw(st.integers(min_value=1, max_value=3))
    for j in range(1, no):
        mult[(0, j)] = data.draw(st.integers(min_value=1, max_value=3))
    for i in range(1, ne):
        for j in range(1, no):
            m = data.draw(st.integers(min_value=0, max_value=2))
            if m:
                mult[(i, j)] = m
    g = BipartiteGraph(
        even=tuple(f"e{i}" for i in range(ne)),
        odd=tuple(f"o{j}" for j in range(no)),
        mult=mult,
    )
    assert pf_norm(g) == pytest.approx(pf_norm_dense(g), abs=1e-9)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

def test_symmetry_must_be_a_bijection():
    g = path_graph(3)
    with pytest.raises(ValidationError):
        validate_symmetry(g, {"v0": "v2", "v1": "v1", "v2": "v2"}, 2)


def test_symmetry_must_preserve_parity():
    g = path_graph(2)
    with pytest.raises(ValidationError):
        validate_symmetry(g, {"v0": "v1", "v1": "v0"}, 2)


def test_symmetry_order_is_exact():
    g = path_graph(3)
    ident = {v: v for v in ("v0", "v1", "v2")}
    with pytest.raises(ValidationError) as err:
        validate_symmetry(g, ident, 2)
    assert "exact order 1" in str(err.value)
    with pytest.raises(ValidationError):
        validate_symmetry(g, ident, 0)
    assert validate_symmetry(g, ident, 1).order == 1


def test_symmetry_must_preserve_edges():
    g = path_graph(4)
    flip = {"v0": "v2", "v2": "v0", "v1": "v3", "v3": "v1"}
    with pytest.raises(ValidationError) as err:
        validate_symmetry(g, flip, 2)
    assert "multiplicity" in str(err.value)


def test_chain_flip_is_accepted():
    g = chain_graph(5)
    flip = {f"rho{k}": f"rho{4 - k}" for k in range(5)}
    sym = validate_symmetry(g, flip, 2)
    assert sym.order == 2


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def test_order_one_fold_is_the_identity():
    g = path_graph(3)
    sym = validate_symmetry(g, {v: v for v in ("v0", "v1", "v2")}, 1)
    assert fold_graph(sym) is g


def test_chain_fold_forks_at_the_fixed_point():
    g = chain_graph(5)
    flip = {f"rho{k}": f"rho{4 - k}" for k in range(5)}
    folded = fold_graph(validate_symmetry(g, flip, 2))
    assert set(folded.even) == {"rho0", "rho2#0", "rho2#1"}
    assert folded.odd == ("rho1",)
    assert sorted(folded.edges()) == [
        ("rho0", "rho1", 1),
        ("rho2#0", "rho1", 1),
        ("rho2#1", "rho1", 1),
    ]
    assert str(recognize(folded)) == "D_4"


def test_longer_chains_fold_to_the_forked_family():
    for n in (2, 3, 4):
        length = 4 * n - 3
        g = chain_graph(length)
        flip = {f"rho{k}": f"rho{length - 1 - k}" for k in range(length)}
        folded = fold_graph(validate_symmetry(g, flip, 2))
        assert recognize(folded) == DynkinClass("D", 2 * n)
        assert pf_norm(folded) == pytest.approx(pf_norm(g), abs=1e-9)


def test_triangle_cover_folds_to_the_four_pronged_star():
    entry = build("E6affine")
    action = cyclic_action(entry.ring, entry.alpha)
    sym = induced_graph_symmetry(
        entry.ring, action, entry.graph, {v: v for v in entry.graph.even}
    )
    assert sym.vperm["m1"] == "m2" and sym.vperm["m3"] == "m1"
    folded = fold_graph(sym)
    assert recognize(folded) == DynkinClass("D_affine", 4)
    assert str(recognize(folded)) == "D_4^(1)"
    assert pf_norm(folded) == pytest.approx(pf_norm(entry.graph), abs=1e-9)


def test_adjacent_fixed_vertices_are_refused():
    g = _tee_graph()
    sym = validate_symmetry(g, {"c": "c", "m": "m", "l": "r", "r": "l"}, 2)
    with pytest.raises(UnsupportedStructureError) as err:
        fold_graph(sym)
    assert "fixed vertices 'c' and 'm' are adjacent" in str(err.value)


def _intermediate_orbit_case():
    """An order-4 symmetry that swaps f0 and f1: (graph, vperm, order)."""
    even = ["e0", "e1", "e2", "e3", "f0", "f1"]
    odd = ["o0", "o1", "o2", "o3"]
    edges = [(f"e{i}", f"o{i}", 1) for i in range(4)]
    edges += [("f0", "o0", 1), ("f1", "o1", 1), ("f0", "o2", 1), ("f1", "o3", 1)]
    g = BipartiteGraph.from_edges(even, odd, edges)
    vperm = {f"e{i}": f"e{(i + 1) % 4}" for i in range(4)}
    vperm.update({f"o{i}": f"o{(i + 1) % 4}" for i in range(4)})
    vperm.update({"f0": "f1", "f1": "f0"})
    return g, vperm, 4


def test_intermediate_vertex_orbit_is_refused():
    sym = validate_symmetry(*_intermediate_orbit_case())
    with pytest.raises(UnsupportedStructureError) as err:
        fold_graph(sym)
    assert "strictly between 1 and 4" in str(err.value)


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def test_str_forms():
    assert str(DynkinClass("A", 11)) == "A_11"
    assert str(DynkinClass("D", 6)) == "D_6"
    assert str(DynkinClass("E7", 7)) == "E7"
    assert str(DynkinClass("A_affine", 5)) == "A_5^(1)"
    assert str(DynkinClass("E6_affine", 6)) == "E6^(1)"
    assert str(DynkinClass("Unknown", None)) == "Unknown"
    with pytest.raises(InputError):
        DynkinClass("B", 3)


def test_recognize_inverts_template_on_every_family():
    cases = []
    cases += [("A", r) for r in list(range(2, 24)) + [60, 199, 200]]
    cases += [("D", r) for r in list(range(4, 24)) + [61, 200]]
    cases += [("E6", 6), ("E7", 7), ("E8", 8)]
    cases += [("A_affine", r) for r in [1, 3, 5, 7, 21, 199]]
    cases += [("D_affine", r) for r in list(range(4, 20)) + [88, 200]]
    cases += [("E6_affine", 6), ("E7_affine", 7), ("E8_affine", 8)]
    for family, rank in cases:
        got = recognize(template(family, rank))
        assert got == DynkinClass(family, rank), (family, rank, str(got))


def test_recognition_is_label_blind():
    g = BipartiteGraph.from_edges(
        ["left", "hub"], ["mid"], [("left", "mid", 1), ("hub", "mid", 1)]
    )
    assert recognize(g) == DynkinClass("A", 3)


def test_past_the_rank_cap_is_unknown():
    assert recognize(template("A", 201)).family == "Unknown"


def test_shapes_outside_the_families_are_unknown():
    triple = BipartiteGraph.from_edges(["a"], ["b"], [("a", "b", 3)])
    assert recognize(triple).family == "Unknown"
    star5 = BipartiteGraph.from_edges(
        ["hub"], [f"o{i}" for i in range(5)], [("hub", f"o{i}", 1) for i in range(5)]
    )
    assert recognize(star5).family == "Unknown"
    disconnected = BipartiteGraph.from_edges(
        ["a", "b"], ["x", "y"], [("a", "x", 1), ("b", "y", 1)]
    )
    assert recognize(disconnected).family == "Unknown"


def _spider(legs):
    return _from_simple_edges(1 + sum(legs), _legs_graph(legs))


def _cycle6_plus(extra):
    edges = [(i, (i + 1) % 6) for i in range(6)] + extra
    return _from_simple_edges(1 + max(max(e) for e in edges), edges)


def test_near_miss_shapes_are_unknown():
    near = [_spider(legs) for legs in ((1, 2, 6), (2, 2, 3), (1, 3, 4), (3, 3, 3))]
    # two branch points, but one carries a leg of length 2
    near.append(_from_simple_edges(
        8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (6, 7)]
    ))
    # three branch points
    near.append(_from_simple_edges(
        8, [(0, 1), (1, 2), (0, 3), (0, 4), (1, 5), (2, 6), (2, 7)]
    ))
    # a four-pronged hub with one leg extended
    near.append(_from_simple_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]))
    near.append(_cycle6_plus([(0, 6)]))  # pendant on a hexagon
    near.append(_cycle6_plus([(0, 3)]))  # chord across a hexagon
    for graph in near:
        assert recognize(graph) == DynkinClass("Unknown", None), graph.edges()


def _canon(graph):
    ne = len(graph.even)
    return tree_canon(graph.size, [(e, ne + o) for e, o in graph.mult])


def test_every_small_tree_is_classified_as_its_template():
    max_nv = 7
    named = {}
    for family in FAMILIES[:-1]:
        ranks = [int(family[1])] if family.startswith("E") else range(1, max_nv + 1)
        for rank in ranks:
            try:
                ref = template(family, rank)
            except InputError:
                continue
            simple = set(ref.mult.values()) == {1}
            if ref.size <= max_nv and len(ref.mult) == ref.size - 1 and simple:
                key = (ref.size, _canon(ref))
                assert key not in named
                named[key] = DynkinClass(family, rank)
    trees = {}
    for nv in range(2, max_nv + 1):
        for code in itertools.product(range(nv), repeat=nv - 2):
            edges = prufer_tree(code, nv)
            trees.setdefault((nv, tree_canon(nv, edges)), edges)
    assert len(trees) == 24  # 1, 1, 2, 3, 6 and 11 trees on 2..7 vertices
    for (nv, form), edges in trees.items():
        want = named.get((nv, form), DynkinClass("Unknown", None))
        assert recognize(_from_simple_edges(nv, edges)) == want, (edges, str(want))


def test_template_input_errors():
    for family, rank in (("A", 1), ("D", 3), ("A_affine", 4), ("D_affine", 3)):
        with pytest.raises(InputError):
            template(family, rank)
    with pytest.raises(InputError):
        template("B", 2)


# ---------------------------------------------------------------------------
# transporting a ring action
# ---------------------------------------------------------------------------

def test_induced_symmetry_on_the_chain():
    entry = build("A5")
    action = cyclic_action(entry.ring, entry.alpha)
    sym = induced_graph_symmetry(entry.ring, action, entry.graph, entry.even_map)
    assert sym.vperm == {
        "rho0": "rho4",
        "rho4": "rho0",
        "rho2": "rho2",
        "rho1": "rho3",
        "rho3": "rho1",
    }


def test_even_map_must_cover_and_stay_injective():
    entry = build("A5")
    action = cyclic_action(entry.ring, entry.alpha)
    with pytest.raises(InputError):
        induced_graph_symmetry(entry.ring, action, entry.graph, {"rho0": "rho0"})
    bad = {"rho0": "rho0", "rho2": "rho0", "rho4": "rho4"}
    with pytest.raises(InputError):
        induced_graph_symmetry(entry.ring, action, entry.graph, bad)


def test_action_must_stay_inside_the_mapped_vertices():
    ring = cyclic_ring(4)
    g = BipartiteGraph.from_edges(
        ["a", "b"], ["x"], [("a", "x", 1), ("b", "x", 1)]
    )
    action = cyclic_action(ring, "g1")
    with pytest.raises(InputError) as err:
        induced_graph_symmetry(ring, action, g, {"a": "g0", "b": "g2"})
    assert "moves" in str(err.value)


def test_symmetric_columns_are_reported_ambiguous():
    ring = cyclic_ring(2)
    g = BipartiteGraph.from_edges(
        ["g0", "g1"],
        ["o0", "o1"],
        [("g0", "o0", 1), ("g0", "o1", 1), ("g1", "o0", 1), ("g1", "o1", 1)],
    )
    action = cyclic_action(ring, "g1")
    with pytest.raises(AmbiguousMatchingError):
        induced_graph_symmetry(ring, action, g, {"g0": "g0", "g1": "g1"})


def test_induced_assignment_propagates_forced_choices():
    # every odd vertex has one candidate from the start: o0 and o1 can
    # only swap, and o2, adjacent to both even vertices, only stays
    ring = cyclic_ring(2)
    g = BipartiteGraph.from_edges(
        ["g0", "g1"],
        ["o0", "o1", "o2"],
        [
            ("g0", "o0", 1),
            ("g1", "o1", 1),
            ("g0", "o2", 1),
            ("g1", "o2", 1),
        ],
    )
    action = cyclic_action(ring, "g1")
    sym = induced_graph_symmetry(ring, action, g, {"g0": "g0", "g1": "g1"})
    assert sym.vperm["o0"] == "o1" and sym.vperm["o1"] == "o0"
    assert sym.vperm["o2"] == "o2"
    folded = fold_graph(sym)
    assert set(folded.odd) == {"o0", "o2#0", "o2#1"}
    assert recognize(folded) == DynkinClass("D", 4)


# ---------------------------------------------------------------------------
# the column buckets against the pairwise comparison
# ---------------------------------------------------------------------------

def _outcome(fn, ring, action, graph, even_map):
    try:
        return fn(ring, action, graph, even_map).vperm
    except OrbifusionError as err:
        return type(err), str(err)


def _hand_cases():
    """(ring, action, graph, even_map): ambiguous, no image, forced,
    image already taken, and an action leaving the mapped vertices."""
    ring = cyclic_ring(2)
    action = cyclic_action(ring, "g1")
    ident = {"g0": "g0", "g1": "g1"}
    square = BipartiteGraph.from_edges(
        ["g0", "g1"],
        ["o0", "o1"],
        [("g0", "o0", 1), ("g0", "o1", 1), ("g1", "o0", 1), ("g1", "o1", 1)],
    )
    lopsided = BipartiteGraph.from_edges(
        ["g0", "g1"], ["o0", "o1"], [("g0", "o0", 1), ("g1", "o0", 2), ("g1", "o1", 1)]
    )
    forced = BipartiteGraph.from_edges(
        ["g0", "g1"],
        ["o0", "o1", "o2"],
        [("g0", "o0", 1), ("g1", "o1", 1), ("g0", "o2", 1), ("g1", "o2", 1)],
    )
    # o0 and o1 both need the one image o2; whichever comes second has none
    claimed = BipartiteGraph.from_edges(
        ["g0", "g1"], ["o0", "o1", "o2"], [("g0", "o0", 1), ("g0", "o1", 1), ("g1", "o2", 1)]
    )
    z4 = cyclic_ring(4)
    moved = BipartiteGraph.from_edges(["a", "b"], ["x"], [("a", "x", 1), ("b", "x", 1)])
    return [
        (ring, action, square, ident),
        (ring, action, lopsided, ident),
        (ring, action, forced, ident),
        (ring, action, claimed, ident),
        (z4, cyclic_action(z4, "g1"), moved, {"a": "g0", "b": "g2"}),
    ]


def _renamed(graph, rng):
    """The same graph with fresh vertex names, both parts and the edges
    reordered; and the map from old names to new."""
    names = {v: f"u{t}" for t, v in enumerate(rng.sample(graph.even + graph.odd, graph.size))}
    even = [names[v] for v in rng.sample(graph.even, len(graph.even))]
    odd = [names[v] for v in rng.sample(graph.odd, len(graph.odd))]
    edges = [(names[e], names[o], m) for e, o, m in graph.edges()]
    rng.shuffle(edges)
    return BipartiteGraph.from_edges(even, odd, edges), names


def _relabeled(graph, even_map, rng):
    """The same graph with fresh vertex names and both parts reordered."""
    graph, names = _renamed(graph, rng)
    return graph, {names[v]: lab for v, lab in even_map.items()}


def test_column_buckets_agree_with_pairwise_matching_on_hand_graphs():
    cases = _hand_cases()
    kinds = [_outcome(induced_graph_symmetry, *case) for case in cases]
    assert kinds[0][0] is AmbiguousMatchingError
    assert kinds[1] == (InputError, "odd vertex 'o0' has no image compatible with the action")
    assert kinds[2] == {"g0": "g1", "g1": "g0", "o0": "o1", "o1": "o0", "o2": "o2"}
    assert kinds[3] == (InputError, "odd vertex 'o1' has no image compatible with the action")
    assert kinds[4][0] is InputError and "moves" in kinds[4][1]
    rng = random.Random(20)
    for seed in range(50):
        for ring, action, graph, even_map in cases:
            if seed:
                graph, even_map = _relabeled(graph, even_map, rng)
            case = (ring, action, graph, even_map)
            assert _outcome(induced_graph_symmetry, *case) == _outcome(
                induced_graph_symmetry_pairwise, *case
            ), (seed, graph)


def test_column_buckets_agree_with_pairwise_matching_on_catalog_and_d2n():
    cases = []
    for name in names():
        if name.startswith("SU3"):
            continue
        entry = build(name)
        if entry.graph is not None:
            action = cyclic_action(entry.ring, entry.alpha)
            cases.append((entry.ring, action, entry.graph, entry.even_map or {}))
    cases += [_d2n_case(n) for n in D2N_SIZES]
    assert len(cases) > len(D2N_SIZES)
    for case in cases:
        got = _outcome(induced_graph_symmetry, *case)
        assert isinstance(got, dict)
        assert got == _outcome(induced_graph_symmetry_pairwise, *case)


# ---------------------------------------------------------------------------
# the fold, one edge at a time, against the sum over pairs of classes
# ---------------------------------------------------------------------------

def _fold_outcome(fold, sym):
    try:
        g = fold(sym)
    except OrbifusionError as err:
        return type(err), str(err)
    return g.even, g.odd, g.edges()


def _entry_symmetry(entry):
    action = cyclic_action(entry.ring, entry.alpha)
    return induced_graph_symmetry(entry.ring, action, entry.graph, entry.even_map)


def _catalog_symmetries():
    entries = (build(name) for name in names() if not name.startswith("SU3"))
    return [_entry_symmetry(entry) for entry in entries if entry.graph is not None]


def test_fold_is_the_class_pair_sum_on_d2n_and_the_catalog():
    syms = [_d2n_symmetry(n) for n in D2N_SIZES] + _catalog_symmetries()
    outcomes = [_fold_outcome(fold_graph, sym) for sym in syms]
    assert outcomes == [_fold_outcome(fold_graph_class_pairs, sym) for sym in syms]
    # every chain folds; the E6 graph has adjacent fixed vertices
    refused = [got for got in outcomes if not isinstance(got[0], tuple)]
    assert len(refused) == 1 and "'rho' and 'm1' are adjacent" in refused[0][1]


def _hand_symmetries():
    """(graph, vperm, order) of the folding tests above, refusals included."""
    out = []
    for length in (5, 9, 13):
        flip = {f"rho{k}": f"rho{length - 1 - k}" for k in range(length)}
        out.append((chain_graph(length), flip, 2))
    out.append((_tee_graph(), {"c": "c", "m": "m", "l": "r", "r": "l"}, 2))
    out.append(_intermediate_orbit_case())
    out.append((path_graph(3), {v: v for v in ("v0", "v1", "v2")}, 1))
    for sym in (_entry_symmetry(build("E6affine")), induced_graph_symmetry(*_hand_cases()[2])):
        out.append((sym.graph, sym.vperm, sym.order))
    return out


def test_fold_is_the_class_pair_sum_on_relabeled_hand_graphs():
    cases = _hand_symmetries()
    kinds = [_fold_outcome(fold_graph, validate_symmetry(*case))[0] for case in cases]
    assert kinds.count(UnsupportedStructureError) == 2
    rng = random.Random(12)
    for seed in range(50):
        for graph, vperm, order in cases:
            if seed:
                graph, names = _renamed(graph, rng)
                vperm = {names[v]: names[w] for v, w in vperm.items()}
            sym = validate_symmetry(graph, vperm, order)
            assert _fold_outcome(fold_graph, sym) == _fold_outcome(
                fold_graph_class_pairs, sym
            ), (seed, graph)


def _random_symmetric_graph(rng):
    """A graph with a part-preserving symmetry of order 2, 3, 4 or 6.

    Each part is a few vertex orbits, mostly free or fixed, now and then
    of intermediate size; edges are added an orbit at a time. Vertex
    names are shuffled so the least member of an orbit can sit anywhere
    in it.
    """
    n = rng.choice((2, 3, 4, 6))
    sizes = [1, n, n] + [d for d in range(2, n) if n % d == 0]
    pool = [f"x{t}" for t in rng.sample(range(100), 100)]
    parts, vperm = [], {}
    for _ in range(2):
        orbits = [[pool.pop() for _ in range(rng.choice(sizes))] for _ in range(rng.randint(1, 4))]
        if all(len(orbit) < n for orbit in orbits):
            orbits.append([pool.pop() for _ in range(n)])
        for orbit in orbits:
            for i, v in enumerate(orbit):
                vperm[v] = orbit[(i + 1) % len(orbit)]
        parts.append(orbits)
    mult: dict[tuple[str, str], int] = {}
    for _ in range(rng.randint(1, 5)):
        a, b = rng.choice(parts[0]), rng.choice(parts[1])
        shift, m = rng.randrange(len(b)), rng.randint(1, 3)
        for i in range(math.lcm(len(a), len(b))):
            key = (a[i % len(a)], b[(i + shift) % len(b)])
            mult[key] = mult.get(key, 0) + m
    even, odd = ([v for orbit in part for v in orbit] for part in parts)
    rng.shuffle(even)
    rng.shuffle(odd)
    edges = [(e, o, m) for (e, o), m in mult.items()]
    rng.shuffle(edges)
    return validate_symmetry(BipartiteGraph.from_edges(even, odd, edges), vperm, n)


def test_fold_is_the_class_pair_sum_on_random_symmetric_graphs():
    rng = random.Random(2015)
    kinds = {}
    for _ in range(600):
        sym = _random_symmetric_graph(rng)
        got = _fold_outcome(fold_graph, sym)
        assert got == _fold_outcome(fold_graph_class_pairs, sym), (sym.vperm, sym.graph.edges())
        kind = "folded" if isinstance(got[0], tuple) else got[1].split(" ", 2)[1]
        kinds[kind] = kinds.get(kind, 0) + 1
    # folds, adjacent fixed vertices and intermediate orbits all occur
    assert set(kinds) == {"folded", "vertices", "orbit"} and min(kinds.values()) >= 50, kinds
