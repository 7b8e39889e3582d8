"""Graph construction, arc indexing, component labels, doubles, and
edge-disjoint paths."""

import hashlib
import itertools
import math
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillwalk import (
    Graph,
    GraphError,
    bipartite_double,
    bipartite_partition,
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edge_disjoint_paths,
    graph_from_edge_list,
    hypercube_graph,
    random_regular_graph,
    torus_graph,
)
from oscillwalk import graphs
from oscillwalk.graphs import label_components
from oscillwalk.verify import (
    assert_arc_indexing,
    assert_double_graph_structure,
    assert_family_counts,
    assert_random_regular_reproducible,
)


# ---- construction ----------------------------------------------------------------------


def test_family_sizes():
    assert_family_counts(complete_graph(4), 4, 6, 3)
    assert_family_counts(hypercube_graph(3), 8, 12, 3)
    assert_family_counts(torus_graph(2, 4), 16, 32, 4)
    assert_family_counts(cycle_graph(6), 6, 6, 2)
    assert_family_counts(complete_bipartite_graph(3), 6, 9, 3)


@pytest.mark.parametrize(
    "family,params",
    [
        ("complete", [1]),
        ("cycle", [2]),
        ("hypercube", [0]),
        ("torus", [2, 2]),
        ("random_regular", [7, 3]),  # odd n*d
        ("random_regular", [5, 2]),  # d < 3
        ("nonsense", [3]),
    ],
)
def test_invalid_requests_raise(family, params):
    with pytest.raises(GraphError):
        build_graph(family, params)


def test_error_messages_name_the_constraint():
    with pytest.raises(GraphError, match="parallel edges"):
        torus_graph(1, 2)
    with pytest.raises(GraphError, match="even"):
        random_regular_graph(7, 3)
    with pytest.raises(GraphError, match="not regular"):
        graph_from_edge_list_from_text("0 1\n1 2\n")


def graph_from_edge_list_from_text(text, tmp_dir=None):
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".edges")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        return graph_from_edge_list(path)
    finally:
        os.unlink(path)


def test_edge_list_round_trip(tmp_path):
    g = hypercube_graph(3)
    path = tmp_path / "q3.edges"
    lines = ["# hypercube Q3"] + [f"{u} {v}" for u, v in g.edges]
    path.write_text("\n".join(lines) + "\n")
    loaded = graph_from_edge_list(str(path))
    assert np.array_equal(loaded.edges, g.edges)
    assert loaded.degree == g.degree


@pytest.mark.parametrize(
    "text,message",
    [
        ("0 0\n0 1\n", r"self-loop at vertex 0 is not allowed"),
        ("0 1\n1 0\n1 2\n2 0\n", r"parallel edge \(0, 1\) is not allowed"),
        ("0 1\n1 2\n", r"not regular \(vertex 0 has degree 1, vertex 1 has degree 2\)"),
    ],
    ids=["self-loop", "repeated", "irregular"],
)
def test_edge_list_faults_keep_their_wording(tmp_path, text, message):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(GraphError, match=message):
        graph_from_edge_list(str(path))


def test_out_of_range_edges_and_non_edge_lookups():
    with pytest.raises(GraphError, match=r"edge \(0,5\) out of range for n=3"):
        Graph(3, [(0, 5)])
    g = complete_graph(4)
    assert g.is_edge(-1, 0) is False
    with pytest.raises(GraphError, match="not an edge"):
        g.arc_index(0, 0)


def test_edge_list_rejects_disconnected(tmp_path):
    path = tmp_path / "two_triangles.edges"
    path.write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    with pytest.raises(GraphError, match="disconnected"):
        graph_from_edge_list(str(path))


# ---- arc indexing ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(5),
        cycle_graph(6),
        hypercube_graph(3),
        torus_graph(2, 3),
        complete_bipartite_graph(3),
        random_regular_graph(20, 3, seed=1),
    ],
    ids=lambda g: g.name,
)
def test_arc_indexing_bijection(g):
    assert_arc_indexing(g)


def test_arc_numbering_on_k4():
    g = complete_graph(4)
    arcs = list(zip(g.arc_tails.tolist(), g.arc_heads.tolist()))
    assert arcs == [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0),
                    (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
    assert np.array_equal(g.arc_tails[g.out_arcs], np.repeat(np.arange(4)[:, None], 3, axis=1))
    assert np.all(np.diff(g.arc_heads[g.out_arcs], axis=1) > 0)
    for u in range(g.n):
        assert list(g.adjacency[u]) == sorted(g.adjacency[u])


def test_out_arcs_cover_every_arc():
    g = complete_graph(5)
    collected = np.sort(g.out_arcs.ravel())
    assert np.array_equal(collected, np.arange(g.arc_count))
    for u in range(g.n):
        assert all(g.arc_tails[a] == u for a in g.out_arcs[u])


def _lexsort_arrays(n, pairs):
    """Graph's arrays by the row-wise min/max and (tail, head) lexsort formula."""
    pairs = np.asarray(pairs, dtype=np.int64)
    low, high = pairs.min(axis=1), pairs.max(axis=1)
    order = np.argsort(low * n + high, kind="stable")
    edges = np.column_stack([low[order], high[order]])
    tails, heads = edges.ravel(), edges[:, ::-1].ravel()
    out_arcs = np.lexsort((heads, tails)).reshape(n, -1)
    return edges, tails, heads, out_arcs, heads[out_arcs]


@pytest.mark.parametrize(
    "g",
    [complete_graph(6), cycle_graph(7), hypercube_graph(5), torus_graph(2, 5), torus_graph(3, 4),
     complete_bipartite_graph(4), random_regular_graph(200, 5, seed=3)],
    ids=lambda g: g.name,
)
def test_graph_arrays_match_the_lexsort_formula_on_any_edge_order(g):
    rng = np.random.default_rng(g.n)
    shuffled = g.edges[rng.permutation(len(g.edges))]
    flip = rng.random(len(shuffled)) < 0.5
    shuffled[flip] = shuffled[flip, ::-1]
    for pairs in (g.edges, shuffled):
        built = Graph(g.n, pairs, name=g.name)
        arrays = (built.edges, built.arc_tails, built.arc_heads, built.out_arcs, built.adjacency)
        for array, expected in zip(arrays, _lexsort_arrays(g.n, pairs)):
            assert array.dtype == expected.dtype and np.array_equal(array, expected)


@pytest.mark.parametrize(
    "n,pairs,message",
    [
        (4, [(0, 1), (3, 4)], r"edge \(3,4\) out of range for n=4"),
        (4, [(0, 1), (-1, 2)], r"edge \(-1,2\) out of range for n=4"),
        (4, [(0, 1), (2, 2), (9, 9)], r"edge \(9,9\) out of range for n=4"),
        (4, [(0, 1), (3, 3), (2, 2)], r"self-loop at vertex 3 is not allowed"),
        (4, [(3, 2), (0, 1), (2, 3), (1, 0)], r"parallel edge \(2, 3\) is not allowed"),
    ],
    ids=["high", "negative", "range-before-loop", "first-loop", "first-repeat"],
)
def test_edge_faults_name_the_first_offending_pair(n, pairs, message):
    with pytest.raises(GraphError, match=f"^g: {message}$"):
        Graph(n, pairs, name="g")


@pytest.mark.parametrize("bad", [1.5, math.nan, math.inf, 2.0**63, 2 + 1j])
def test_vertex_ids_that_int64_would_change_are_rejected(bad):
    # Cast to int64, (0, 1.5) would be the edge (0, 1) and complete a triangle.
    with pytest.raises(GraphError, match=f"^g: vertex id {re.escape(str(bad))} is not an integer$"):
        Graph(3, [(0, 1), (1, 2), (0, bad)], name="g")
    with pytest.raises(GraphError, match="is not an integer"):
        Graph(3, np.array([(0, 1), (1, 2), (0, bad)]), name="g")
    for integral in (2.0, np.float32(2), 2 + 0j):
        assert Graph(3, [(0, 1), (1, 2), (0, integral)]).edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    # Cast to int64, [[True, False]] would be the edge (0, 1).
    with pytest.raises(GraphError, match="^g: vertex ids must be integers, not booleans$"):
        Graph(2, np.array([[True, False]]), name="g")


# ---- component labels -------------------------------------------------------------------


@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                             max_size=60))
))
@settings(max_examples=200, deadline=None)
def test_labels_are_smallest_nodes_of_networkx_components(graph):
    # Isolated nodes, repeated edges and loops included.
    nx = pytest.importorskip("networkx")
    n, pairs = graph
    tails, heads = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    reference = nx.Graph()
    reference.add_nodes_from(range(n))
    reference.add_edges_from(pairs)
    expected = np.empty(n, dtype=np.int64)
    for component in nx.connected_components(reference):
        expected[list(component)] = min(component)
    assert np.array_equal(label_components(n, tails, heads), expected)


def test_labels_of_a_random_order_path():
    # The most hook-and-jump rounds seen: a path whose nodes are shuffled.
    order = np.random.default_rng(5).permutation(100_000)
    assert not label_components(order.size, order[:-1], order[1:]).any()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_labels_and_coloring_of_cycle_unions_match_networkx(data):
    nx = pytest.importorskip("networkx")
    lengths = data.draw(st.lists(st.integers(3, 9), min_size=1, max_size=5))
    order = np.array(data.draw(st.permutations(range(sum(lengths)))))
    cycles = np.split(order, np.cumsum(lengths)[:-1])
    edges = np.concatenate([np.column_stack([c, np.roll(c, -1)]) for c in cycles])
    g = Graph(order.size, edges, require_connected=False)
    assert np.array_equal(g.double_roots, bipartite_double(g).component_roots)
    reference = nx.Graph(edges.tolist())
    components = sorted(nx.connected_components(reference), key=min)
    assert g.num_components == len(components)
    for component in components:
        assert set(np.flatnonzero(g.component_roots == min(component)).tolist()) == component
    part = bipartite_partition(g)
    if not nx.is_bipartite(reference):
        assert part is None
        return
    color = nx.bipartite.color(reference)
    for component in components:
        root = min(component)
        for u in component:
            assert (u in part.partite_x) == (color[u] == color[root]) != (u in part.partite_y)


@pytest.mark.parametrize(
    "spec,double_components", [("torus:2:301", 1), ("torus:2:300", 2), ("hypercube:14", 2)]
)
def test_double_components_come_without_a_double_graph(spec, double_components, monkeypatch):
    family, *params = spec.split(":")
    g = build_graph(family, params)

    def no_graph(*args, **kwargs):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(Graph, "__init__", no_graph)
    roots = g.double_roots
    assert np.array_equal(roots, label_components(2 * g.n, g.arc_tails, g.n + g.arc_heads))
    assert np.count_nonzero(roots == np.arange(2 * g.n)) == double_components
    assert (bipartite_partition(g) is not None) == (double_components == 2)


# ---- bipartite structure ---------------------------------------------------------------


def test_bipartition_even_cycle():
    part = bipartite_partition(cycle_graph(4))
    assert part.partite_x.tolist() == [0, 2]
    assert part.partite_y.tolist() == [1, 3]
    for side in (part.partite_x, part.partite_y):
        assert side.dtype == np.int64 and not side.flags.writeable


def test_bipartition_absent_on_odd_cycle():
    assert bipartite_partition(complete_graph(3)) is None


def test_bipartition_hypercube_is_parity():
    part = bipartite_partition(hypercube_graph(3))
    even = [v for v in range(8) if bin(v).count("1") % 2 == 0]
    assert part.partite_x.tolist() == even


def test_double_of_triangle_is_six_cycle():
    assert_double_graph_structure(complete_graph(3))  # connected, 2-regular on 6 vertices


def test_double_of_bipartite_graph_is_two_copies():
    g = cycle_graph(4)
    double = bipartite_double(g)
    assert double.num_components == 2
    # each component is a copy of C_4: 4 vertices, 2-regular
    _, sizes = np.unique(double.component_roots, return_counts=True)
    assert sizes.tolist() == [4, 4]
    assert double.degree == 2


def test_double_of_single_edge_is_two_edges():
    double = bipartite_double(complete_graph(2))
    assert double.n == 4 and len(double.edges) == 2
    assert double.num_components == 2


@pytest.mark.parametrize(
    "g",
    [complete_graph(4), cycle_graph(5), hypercube_graph(3), complete_bipartite_graph(3)],
    ids=lambda g: g.name,
)
def test_double_component_count_tracks_bipartiteness(g):
    assert_double_graph_structure(g)


# ---- random regular --------------------------------------------------------------------


@pytest.mark.parametrize("n,d", [(10, 3), (12, 4), (20, 5), (50, 16)])
def test_random_regular_is_simple_regular_connected(n, d):
    assert_random_regular_reproducible(n, d, 42)


# SHA-256 of the seeded edge sets: a faster pairing must make the same rng
# calls and accept the same pairs.
RANDOM_REGULAR_EDGE_SHA256 = {
    (12, 4, 0): "efa7a57f09b7d8c060169db303f4c4378e79cddc3be2c66ec6badc8355d33a14",
    (12, 4, 7): "b1e3979f3cbee1386f3edcd92e93c3bc29f145f1f55a6793dba2d4002a50eada",
    (50, 3, 1): "0c363db7dc1c8d0b10b5a14b847bd99ea3d96c9590f44b0eaae1842a1a73cc99",
    (512, 4, 2): "f233ede31d5c8521b94f5a226da23d39b31c7bb836441dc43fd31183c112a6eb",
    (2000, 5, 3): "daa31f7fd0f91f3495719c3b0d2f84682f2f6470cf6d59e15730bbab679b4b22",
    (10000, 4, 12345): "530da61bbca81952ef28db4def597ede75d8cbf7ee999894edb7b634d2355c1b",
}


@pytest.mark.parametrize("n,d,seed", list(RANDOM_REGULAR_EDGE_SHA256))
def test_random_regular_edges_are_pinned(n, d, seed):
    g = random_regular_graph(n, d, seed=seed)
    assert hashlib.sha256(g.edges.tobytes()).hexdigest() == RANDOM_REGULAR_EDGE_SHA256[n, d, seed]


def test_random_regular_seed_reproducible():
    assert_random_regular_reproducible(16, 5, 9)
    a = random_regular_graph(16, 5, seed=9)
    c = random_regular_graph(16, 5, seed=10)
    assert not np.array_equal(a.edges, c.edges)


# ---- edge-disjoint paths ---------------------------------------------------------------


def _audit_family(g, family):
    used = set()
    for path in family.paths:
        assert path[0] == family.source and path[-1] == family.target
        for u, v in itertools.pairwise(path):
            assert g.is_edge(u, v)
            edge = (min(u, v), max(u, v))
            assert edge not in used, "edge reused across paths"
            used.add(edge)


def test_complete_graph_paths():
    g = complete_graph(4)
    family = edge_disjoint_paths(g, 0, 2)
    assert len(family) == 3
    _audit_family(g, family)


def test_cycle_opposite_vertices():
    family = edge_disjoint_paths(cycle_graph(6), 0, 3)
    assert sorted(family.lengths) == [3, 3]
    _audit_family(cycle_graph(6), family)


def _max_disjoint_by_bruteforce(g, s, t):
    """Oracle: enumerate simple s-t paths, then search for the largest
    pairwise edge-disjoint subfamily by backtracking."""
    paths = []

    def extend(path, used_edges):
        u = path[-1]
        if u == t:
            paths.append((tuple(path), frozenset(used_edges)))
            return
        for v in g.adjacency[u]:
            edge = (min(u, v), max(u, v))
            if edge in used_edges or v in path:
                continue
            extend(path + [v], used_edges | {edge})

    extend([s], set())

    best = 0

    def search(index, chosen_edges, count):
        nonlocal best
        best = max(best, count)
        if index == len(paths):
            return
        remaining = len(paths) - index
        if count + remaining <= best:
            return
        path, edges = paths[index]
        if not (edges & chosen_edges):
            search(index + 1, chosen_edges | edges, count + 1)
        search(index + 1, chosen_edges, count)

    search(0, frozenset(), 0)
    return best


def test_hypercube_adjacent_pair_matches_bruteforce():
    g = hypercube_graph(3)
    family = edge_disjoint_paths(g, 0, 1)
    _audit_family(g, family)
    assert len(family) == _max_disjoint_by_bruteforce(g, 0, 1) == 3
    assert sorted(family.lengths) == [1, 3, 3]


@given(st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_hypercube_families_auditable(u, v):
    g = hypercube_graph(3)
    if u == v:
        return
    family = edge_disjoint_paths(g, u, v)
    assert len(family) == 3  # Q_3 is 3-edge-connected
    _audit_family(g, family)


def test_paths_require_distinct_endpoints():
    with pytest.raises(GraphError):
        edge_disjoint_paths(complete_graph(4), 1, 1)


def _fifo_augment(g, flow, s, t):
    """Reference for graphs._bfs_augment: a FIFO breadth-first search that
    scans each vertex's arcs in slot order and stops on reaching t."""
    parent_arc = {}
    visited = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for a in g.out_arcs[u].tolist():
            v = int(g.arc_heads[a])
            if flow[a] >= 1 or v in visited:
                continue
            visited.add(v)
            parent_arc[v] = a
            if v == t:
                return parent_arc
            queue.append(v)
    return None


@pytest.mark.parametrize(
    "spec",
    ["complete:12", "cycle:9", "hypercube:6", "complete_bipartite_balanced:4", "torus:2:20",
     "torus:3:6", "random_regular:300:4:7", "random_regular:12:4:3"],
)
def test_level_search_paths_match_fifo_search(spec, monkeypatch):
    family, *params = spec.split(":")
    g = build_graph(family, params)
    rng = np.random.default_rng(17)
    pairs = [tuple(g.edges[0].tolist())] + [tuple(rng.choice(g.n, 2, replace=False).tolist())
                                            for _ in range(4)]
    level = [edge_disjoint_paths(g, s, t).paths for s, t in pairs]
    monkeypatch.setattr(graphs, "_bfs_augment", _fifo_augment)
    assert [edge_disjoint_paths(g, s, t).paths for s, t in pairs] == level
