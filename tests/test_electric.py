"""Electric networks: construction from states, Kirchhoff solving,
resistance distance, circulations, and the dissipation bounds."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from oscillwalk import (
    ArcState,
    Circulation,
    ElectricNetwork,
    Graph,
    basis_arc_state,
    bipartite_double,
    bipartite_partition,
    bounds_from_power,
    circulation_to_flip,
    complete_bipartite_graph,
    complete_graph,
    completed_circulation,
    cycle_graph,
    ensure_normalized,
    flip_projection,
    flip_to_circulation,
    hypercube_graph,
    localization_verdict,
    network_from_selfflip_state,
    network_from_state_double,
    parallel_resistance_identity,
    paths_resistance_bound,
    random_regular_graph,
    resistance_distance,
    resistance_distances,
    solve_network,
    torus_graph,
    uniform_state,
)
from oscillwalk import electric
from oscillwalk.electric import CERTIFIED, NOT_CERTIFIED
from oscillwalk.graphs import label_components
from oscillwalk.verify import (
    assert_circulation_roundtrip,
    assert_completed_flow_norm_identity,
    assert_edge_transitive_resistance,
    assert_grounding_invariance,
    assert_kcl,
    assert_parallel_combination,
    assert_thomson,
    random_flip_state,
    random_resistor_circulation,
    random_state,
)


def selfflip_edge_state(g, u, v):
    amps = basis_arc_state(g, u, v).amplitudes - basis_arc_state(g, v, u).amplitudes
    return ArcState(g, amps / np.sqrt(2))


def alternating_cycle_state(g):
    amps = np.zeros(g.arc_count, dtype=complex)
    scale = 1 / np.sqrt(g.arc_count)
    for i in range(g.n):
        amps[g.arc_index(i, (i + 1) % g.n)] = scale
        amps[g.arc_index((i + 1) % g.n, i)] = -scale
    return ArcState(g, amps)


# ---- network construction --------------------------------------------------------------


def test_triangle_single_edge_network_is_a_path():
    g = complete_graph(3)
    net = network_from_state_double(basis_arc_state(g, 0, 1))
    assert net.node_count == 6
    assert len(net.resistor_edges) == 5
    degree = np.zeros(6, dtype=int)
    for u, v in net.resistor_edges:
        degree[u] += 1
        degree[v] += 1
    # path endpoints are exactly the injection nodes a_out = 0 and b_in = 4
    assert sorted(np.flatnonzero(degree == 1).tolist()) == [0, 4]
    assert np.count_nonzero(degree == 2) == 4
    assert net.injections[4] == pytest.approx(1.0)
    assert net.injections[0] == pytest.approx(-1.0)


def test_everywhere_nonzero_state_gives_no_resistors():
    g = cycle_graph(4)
    # flip state: every arc feeds the injection branch, and the per-node
    # injections net out to zero
    net = network_from_state_double(alternating_cycle_state(g))
    assert len(net.resistor_edges) == 0
    assert np.max(np.abs(net.injections)) <= 1e-12
    # non-flip state with full support: nonzero nets on isolated nodes
    net = network_from_state_double(uniform_state(g))
    assert len(net.resistor_edges) == 0
    assert np.count_nonzero(np.abs(net.injections) > 1e-12) == net.node_count
    assert not solve_network(net).feasible


def test_symmetric_triangle_state_is_infeasible():
    g = complete_graph(3)
    amps = basis_arc_state(g, 0, 1).amplitudes + basis_arc_state(g, 1, 0).amplitudes
    sol = solve_network(network_from_state_double(ArcState(g, amps / np.sqrt(2))))
    assert not sol.feasible
    assert math.isinf(sol.power)
    assert sol.currents is None and sol.potentials is None


def test_selfflip_network_construction():
    g = complete_graph(5)
    net = network_from_selfflip_state(selfflip_edge_state(g, 0, 1))
    assert net.node_count == 5
    assert len(net.resistor_edges) == len(g.edges) - 1
    assert net.injections[1] == pytest.approx(1 / np.sqrt(2))
    assert net.injections[0] == pytest.approx(-1 / np.sqrt(2))


def test_selfflip_network_rejects_other_states():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="self-flip"):
        network_from_selfflip_state(basis_arc_state(g, 0, 1))


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
def test_network_builders_reject_bad_tolerances(bad):
    g = complete_graph(5)
    psi = selfflip_edge_state(g, 0, 1)
    with pytest.raises(ValueError, match="tolerance"):
        network_from_state_double(psi, bad)
    with pytest.raises(ValueError, match="tolerance"):
        network_from_selfflip_state(psi, zero_tol=bad)
    with pytest.raises(ValueError, match="tolerance"):
        network_from_selfflip_state(psi, selfflip_tol=bad)
    sol = solve_network(network_from_state_double(psi))
    with pytest.raises(ValueError, match="tolerance"):
        completed_circulation(g, psi, sol, zero_tol=bad)


def test_zero_state_rejected_at_normalization_gate():
    g = complete_graph(4)
    zero = ArcState(g, np.zeros(g.arc_count))
    with pytest.raises(ValueError, match="norm"):
        network_from_selfflip_state(zero)
    with pytest.raises(ValueError, match="norm"):
        network_from_state_double(zero)


def _link_by_link_network(node_count, links, deltas, zero_tol=electric.ZERO_AMPLITUDE_TOL):
    """Reference builder: one link at a time, head before tail."""
    resistors, injections = [], np.zeros(node_count, dtype=np.complex128)
    for (u, v), delta in zip(links, deltas):
        if abs(delta) <= zero_tol:
            resistors.append([u, v])
        else:
            injections[v] += delta
            injections[u] -= delta
    return resistors, injections


@pytest.mark.parametrize(
    "g",
    [complete_graph(8), hypercube_graph(4), random_regular_graph(30, 5, seed=1)],
    ids=lambda g: g.name,
)
def test_network_builders_match_link_by_link_reference(g):
    rng = np.random.default_rng(8)
    amps = rng.standard_normal(g.arc_count) + 1j * rng.standard_normal(g.arc_count)
    amps *= rng.random(g.arc_count) < 0.4
    state = ArcState(g, amps / np.linalg.norm(amps))
    net = network_from_state_double(state)
    links = [(u, g.n + v) for u, v in zip(g.arc_tails.tolist(), g.arc_heads.tolist())]
    deltas = ensure_normalized(state).amplitudes  # what the builder reads
    resistors, injections = _link_by_link_network(2 * g.n, links, deltas)
    assert net.resistor_edges.tolist() == resistors
    assert np.array_equal(net.injections, injections)  # same summation order, bitwise

    selfflip = np.zeros(g.arc_count, dtype=np.complex128)
    edge_amps = rng.standard_normal(len(g.edges)) * (rng.random(len(g.edges)) < 0.8)
    selfflip[0::2] = edge_amps
    selfflip[1::2] = -edge_amps
    state = ArcState(g, selfflip / np.linalg.norm(selfflip))
    net = network_from_selfflip_state(state)
    deltas = ensure_normalized(state).amplitudes[0::2]
    resistors, injections = _link_by_link_network(g.n, g.edges.tolist(), deltas)
    assert net.resistor_edges.tolist() == resistors
    assert np.array_equal(net.injections, injections)


def test_network_validation():
    with pytest.raises(ValueError, match="self-loop"):
        ElectricNetwork(3, ((0, 0),), np.zeros(3))
    with pytest.raises(ValueError, match="range"):
        ElectricNetwork(3, ((0, 5),), np.zeros(3))


def test_network_rejects_non_integer_node_ids():
    # Cast to int64, [0, 1.7] would be the resistor (0, 1).
    for bad in (1.7, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^node id {bad} is not an integer$"):
            ElectricNetwork(3, [[0, bad], [1, 2]], np.zeros(3))
    edges = ElectricNetwork(3, np.array([[0, 1.0], [1, 2]]), np.zeros(3)).resistor_edges
    assert edges.dtype == np.int64 and edges.tolist() == [[0, 1], [1, 2]]
    # Cast to int64, [[False, True]] would be the resistor (0, 1).
    with pytest.raises(ValueError, match="^node ids must be integers, not booleans$"):
        ElectricNetwork(3, np.array([[False, True]]), np.zeros(3))


# ---- solving ----------------------------------------------------------------------------


def test_series_path_of_five_resistors():
    injections = np.zeros(6, dtype=complex)
    injections[0], injections[5] = 1.0, -1.0
    net = ElectricNetwork(6, tuple((i, i + 1) for i in range(5)), injections)
    sol = solve_network(net)
    assert sol.feasible
    assert sol.power == pytest.approx(5.0, abs=1e-12)
    assert (sol.potentials[0] - sol.potentials[5]).real == pytest.approx(5.0, abs=1e-12)


def test_triangle_network_power_and_resistance():
    g = complete_graph(3)
    psi = basis_arc_state(g, 0, 1)
    sol = solve_network(network_from_state_double(psi))
    assert sol.power == pytest.approx(5.0, abs=1e-9)
    # unit source between b_in = 4 and a_out = 0, so R equals the drop
    assert (sol.potentials[4] - sol.potentials[0]).real == pytest.approx(5.0, abs=1e-9)


def test_kirchhoff_residuals_small():
    for g in (complete_graph(5), hypercube_graph(3), torus_graph(2, 4)):
        net = network_from_state_double(basis_arc_state(g, 0, 1))
        assert_kcl(net, solve_network(net))


def test_grounding_choice_does_not_change_currents():
    net = network_from_state_double(basis_arc_state(hypercube_graph(3), 0, 1))
    assert_grounding_invariance(net, (3, 7, 12))


def disjoint_union(*graphs):
    offsets = np.cumsum([0] + [h.n for h in graphs])
    edges = np.concatenate([h.edges + offset for h, offset in zip(graphs, offsets)])
    name = "+".join(h.name for h in graphs)
    return Graph(int(offsets[-1]), edges, require_connected=False, name=name)


def balanced_network(node_count, edges, seed):
    """Unit resistors on `edges` with random complex injections that sum to
    0 on each component (exactly 0 at an isolated node)."""
    from scipy.sparse.csgraph import connected_components

    tails, heads = np.array(edges).reshape(-1, 2).T
    adjacency = sp.coo_matrix((np.ones(tails.size), (tails, heads)), shape=(node_count,) * 2)
    labels = connected_components(adjacency, directed=False)[1]
    rng = np.random.default_rng(seed)
    injections = rng.standard_normal(node_count) + 1j * rng.standard_normal(node_count)
    sums = np.bincount(labels, injections.real) + 1j * np.bincount(labels, injections.imag)
    return ElectricNetwork(node_count, edges, injections - (sums / np.bincount(labels))[labels])


# Three components with parallel resistors (0-1 twice, 5-6 three times).
PARALLEL_EDGES = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0), (0, 2),
                  (4, 5), (5, 6), (6, 5), (5, 6), (6, 7), (7, 4),
                  (8, 9), (9, 10), (10, 8), (9, 11)]
# A triangle, a path and the isolated nodes 3, 6 and 8.
ISOLATED_EDGES = [(0, 1), (1, 2), (2, 0), (4, 5), (5, 7)]
# The double of torus 2:10 under an edge state (two components of 100 nodes)
# beside 30 isolated nodes: 230 nodes, solved by CG.
TORUS_NET = network_from_state_double(basis_arc_state(torus_graph(2, 10), 0, 1))
TORUS_AND_ISOLATED = ElectricNetwork(
    230, TORUS_NET.resistor_edges, np.concatenate([TORUS_NET.injections, np.zeros(30)])
)


def near_flip_network(g, seed, cut=3e-4):
    """The double network of the flip part of a random state on the arcs
    leaving vertex 0, its amplitudes below `cut` set to 0: the far field
    stays resistors, the arcs between carry injections, and what is left is
    many components with unequal degrees."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(g.arc_count, dtype=complex)
    amps[g.out_arcs[0]] = rng.standard_normal(g.degree) + 1j * rng.standard_normal(g.degree)
    _, flip = flip_projection(ArcState(g, amps / np.linalg.norm(amps)))
    near = np.where(np.abs(flip.amplitudes) < cut, 0, flip.amplitudes)
    return network_from_state_double(ArcState(g, near / np.linalg.norm(near)))


# 455 components of 1 to 576 nodes on the 1152 nodes of torus 2:24's double.
IRREGULAR_NET = near_flip_network(torus_graph(2, 24), 1)


@pytest.mark.parametrize(
    "net, ground, max_iterations",
    [
        pytest.param(network_from_state_double(basis_arc_state(hypercube_graph(3), 0, 1)),
                     None, None, id="dense"),
        pytest.param(TORUS_NET, None, 18, id="cg"),
        pytest.param(balanced_network(9, ISOLATED_EDGES, 1), None, None, id="isolated"),
        pytest.param(balanced_network(12, PARALLEL_EDGES, 2), None, None, id="parallel"),
        pytest.param(balanced_network(12, PARALLEL_EDGES, 3), 6, None, id="ground"),
        pytest.param(TORUS_AND_ISOLATED, None, 18, id="cg-isolated"),
        pytest.param(TORUS_AND_ISOLATED, 150, 18, id="cg-ground"),
        pytest.param(IRREGULAR_NET, None, 20, id="cg-irregular"),
    ],
)
def test_currents_match_laplacian_pseudoinverse(net, ground, max_iterations, monkeypatch):
    # Every node is an unknown: one pinned node per component (its smallest,
    # or `ground` in ground's component) holds potential ~0, and the
    # currents are the pseudoinverse's.  CG runs on the singular Laplacian
    # within the iterations it took with the projector onto its kernel added
    # (18, and 49 per column on the irregular diagonal of "cg-irregular"),
    # on the red class of a network of the double ("cg", "cg-irregular":
    # 17 and 18, where CG on every node takes 18 and 36).
    from scipy.sparse.csgraph import connected_components

    iterations = []
    pcg = electric._pcg

    def counting(a, b):
        counted = CountingMatrix(a)
        x = pcg(counted, b)
        iterations.append(counted.products - 1)
        return x

    monkeypatch.setattr(electric, "_pcg", counting)
    assert (net.node_count <= electric._DENSE_MAX_NODES) == (max_iterations is None)
    pairs = np.array(net.resistor_edges)
    # Singular values below 1e-10 of the largest are the kernel's: hundreds
    # of components leave some above pinv's default cutoff, 1e-15 of it.
    laplacian = dense_laplacian(net.node_count, *pairs.T)
    potentials = np.linalg.pinv(laplacian, 1e-10) @ net.injections
    expected = potentials[pairs[:, 0]] - potentials[pairs[:, 1]]
    sol = solve_network(net, ground=ground)
    assert np.max(np.abs(sol.currents - expected)) <= 1e-9
    assert sol.power == pytest.approx(float(np.sum(np.abs(expected) ** 2)), abs=1e-9)
    assert_kcl(net, sol)
    adjacency = sp.coo_matrix((np.ones(len(pairs)), tuple(pairs.T)), shape=(net.node_count,) * 2)
    labels = connected_components(adjacency, directed=False)[1]
    pins = np.unique(labels, return_index=True)[1]  # the smallest node of each component
    if ground is not None:
        pins[labels[ground]] = ground
    assert np.max(np.abs(sol.potentials[pins])) <= 1e-12
    pinned = electric._laplacian(net.node_count, *pairs.T, pins, dense=True)
    assert np.max(np.abs(sol.potentials - np.linalg.solve(pinned, net.injections))) <= 1e-12
    assert bool(iterations) == (max_iterations is not None)
    assert max(iterations, default=0) <= (max_iterations or 0)


def test_injections_only_at_the_pins_take_no_solve(monkeypatch):
    # Rounding noise left at the pinned nodes 0 and 3 (the smallest of each
    # component) would cost a solve of a system that grounding there drops:
    # it takes none, and the currents are 0.
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(b.shape) or solve(a, b))
    injections = np.zeros(5, dtype=complex)
    injections[[0, 3]] = 5e-17, -5e-17j
    sol = solve_network(ElectricNetwork(5, [(0, 1), (1, 2), (3, 4)], injections))
    assert sol.feasible and solves == []
    assert not sol.currents.any() and not sol.potentials.any()


@pytest.mark.parametrize(
    "g, single_by_cg",
    [(hypercube_graph(3), False), (torus_graph(2, 10), True)],
    ids=["dense", "cg"],
)
def test_flow_block_projection_matches_single_flows(g, single_by_cg, monkeypatch):
    # 100 complex flows are 200 real columns, at least the 14 or 198 free
    # nodes of the double: the block is solved densely, while one flow on the
    # torus (2 columns, 198 > 128 unknowns) still goes through CG.
    solved = []
    pcg = electric._pcg
    monkeypatch.setattr(electric, "_pcg",
                        lambda a, b: solved.append(b.size) or pcg(a, b))
    rng = np.random.default_rng(36)
    flows = rng.standard_normal((g.arc_count, 100)) + 1j * rng.standard_normal((g.arc_count, 100))
    links = (2 * g.n, g.arc_tails, g.n + g.arc_heads)
    block = electric.circulation_projection(*links, flows)
    assert solved == []
    for flow, projected in zip(flows.T, block.T):
        assert np.max(np.abs(electric.circulation_projection(*links, flow) - projected)) <= 1e-12
    assert len(solved) == (2 * flows.shape[1] if single_by_cg else 0)


def test_conjugate_gradients_raise_when_not_converged():
    # Grounded Laplacian of the path 0-1-...-9 (node 0 pinned): one CG
    # iteration cannot reach the 1e-13 residual target.
    diagonal = np.full(9, 2.0)
    diagonal[-1] = 1.0
    lap = sp.diags([diagonal, -np.ones(8), -np.ones(8)], [0, 1, -1], format="csr")
    b = np.random.default_rng(5).standard_normal(9)
    with pytest.raises(ArithmeticError, match="1 iterations"):
        electric._pcg(lap, b, max_iter=1)
    x = electric._pcg(lap, b)
    assert np.max(np.abs(lap @ x - b)) <= 1e-10


def _allocating_pcg(a, b, tol=1e-13):
    """The conjugate-gradient loop written with a new array per update."""
    diag = a.diagonal()
    inv_diag = np.where(diag > 0, 1.0 / np.maximum(diag, 1e-300), 1.0)
    x = np.zeros(b.size)
    r = b - a @ x
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    stop = tol * max(1.0, float(np.linalg.norm(b)))
    while np.linalg.norm(r) > stop:
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        z = inv_diag * r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x


def test_in_place_conjugate_gradients_match_the_allocating_loop_bitwise():
    # The Laplacian of torus 3:10 (1000 unknowns, a CG-sized system; its
    # diagonal 6 has no exact reciprocal) pinned at node 0, then unpinned,
    # as _solve runs it, with right-hand sides balanced against its constant
    # kernel vector; each tolerance stops the loop at a different iterate.
    g = torus_graph(3, 10)
    pins = electric._pins(g.component_roots)
    assert pins.tolist() == [0]
    rng = np.random.default_rng(37)
    b = np.zeros(g.n)
    b[[10, 555]] = 1.0, -1.0
    noise = rng.standard_normal(g.n)
    for pinned in (True, False):
        lap = electric._laplacian(g.n, *g.edges.T, pins if pinned else pins[:0])
        assert lap.shape[0] > electric._DENSE_MAX_NODES
        for rhs in (b, noise if pinned else noise - noise.mean()):
            for tol in (1e-3, 1e-8, 1e-13):
                expected = _allocating_pcg(lap, rhs, tol)
                assert np.array_equal(electric._pcg(lap, rhs, tol), expected)


def _assembly_cases():
    # Three components with parallel resistors; pinning one node of each
    # leaves links with one pinned end.
    tails, heads = np.array(PARALLEL_EDGES).T
    roots = label_components(12, tails, heads)
    yield "grounded", 12, tails, heads, np.flatnonzero(roots == np.arange(12)), -1.0
    yield "one-component", 12, tails, heads, np.array([roots[5]]), -1.0
    g = torus_graph(2, 5)  # the double: 50 nodes, one pin per component
    double = (2 * g.n, g.arc_tails, g.n + g.arc_heads)
    yield "double", *double, np.flatnonzero(g.double_roots == np.arange(2 * g.n)), -1.0
    g = complete_graph(7)
    yield "complete", g.n, *g.edges.T, np.array([], dtype=np.int64), -1.0
    yield "signless", g.n, *g.edges.T, np.array([3]), 1.0
    stacked = np.concatenate([g.edges, g.n + g.edges])
    yield "signs", 2 * g.n, *stacked.T, np.array([0]), np.repeat([-1.0, 1.0], len(g.edges))


@pytest.mark.parametrize("case", list(_assembly_cases()), ids=lambda case: case[0])
def test_dense_laplacian_is_the_sparse_one_bit_for_bit(case):
    _, node_count, tails, heads, pins, signs = case
    dense = electric._laplacian(node_count, tails, heads, pins, signs, dense=True)
    sparse = electric._laplacian(node_count, tails, heads, pins, signs).toarray()
    expected = dense_laplacian(node_count, tails, heads, pins, signs)
    assert isinstance(dense, np.ndarray)
    assert dense.dtype == sparse.dtype and dense.shape == sparse.shape == (node_count, node_count)
    assert dense.tobytes() == sparse.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "g", [complete_graph(7), hypercube_graph(4), torus_graph(2, 5), cycle_graph(9)],
    ids=lambda g: g.name,
)
def test_laplacians_of_g_match_the_edge_list_assembly_bit_for_bit(g, monkeypatch):
    # The systems _g_potentials assembles: L pinned at vertex 0, and Q as
    # S Q S, which is L pinned at vertex 0 when g is bipartite and Q unpinned
    # otherwise.  The numpy array and the CSR matrix, whose rows come out
    # sorted, equal the pinned matrices built here entry by entry.
    assembled = []
    laplacian = electric._laplacian

    def recording(*args, dense=False):
        assembled.append(args)
        return laplacian(*args, dense=dense)

    monkeypatch.setattr(electric, "_laplacian", recording)
    rhs = np.random.default_rng(g.n).standard_normal((g.n, 1))
    for l_rhs, q_rhs in ((rhs, None), (None, rhs)):
        electric._g_potentials(g, l_rhs, q_rhs)
    l = dense_laplacian(g.n, *g.edges.T, [0])
    q = l if bipartite_partition(g) is not None else dense_laplacian(g.n, *g.edges.T, [], 1.0)
    assert len(assembled) == 2
    for args, expected in zip(assembled, (l, q)):
        sparse = laplacian(*args)
        assert sparse.has_canonical_format
        assert laplacian(*args, dense=True).tobytes() == expected.tobytes()
        assert sparse.toarray().tobytes() == expected.tobytes()


@pytest.mark.parametrize("unknowns", [128, 129])
def test_dense_and_cg_currents_agree_at_the_threshold(unknowns, monkeypatch):
    # A random 4-regular resistor graph on `unknowns` nodes, pinned at node
    # 0, solved once on each side of _DENSE_MAX_NODES.
    g = random_regular_graph(unknowns, 4, seed=unknowns)
    rng = np.random.default_rng(unknowns)
    injections = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    net = ElectricNetwork(g.n, g.edges, injections - injections.mean())
    solved_densely = []
    laplacian = electric._laplacian

    def recording(*args, dense=False):
        solved_densely.append(dense)
        return laplacian(*args, dense=dense)

    monkeypatch.setattr(electric, "_laplacian", recording)
    default = solve_network(net).currents
    currents = []
    for threshold in (unknowns, unknowns - 1):  # dense, then CG
        monkeypatch.setattr(electric, "_DENSE_MAX_NODES", threshold)
        currents.append(solve_network(net).currents)
    assert solved_densely == [unknowns <= 128, True, False]
    assert np.array_equal(default, currents[0 if unknowns <= 128 else 1])
    assert np.max(np.abs(currents[0] - currents[1])) <= 1e-12


# CG-sized systems of g on a bipartite torus, an odd one, their disjoint
# union (313 vertices, two components) and a union of two bipartite tori
# (244 vertices), with L's and Q's pins: each component's smallest vertex,
# for Q only on a bipartite component.
G_SYSTEMS = {
    "torus:2:12": (torus_graph(2, 12), [0], [0]),
    "torus:2:13": (torus_graph(2, 13), [0], []),
    "union": (disjoint_union(torus_graph(2, 12), torus_graph(2, 13)), [0, 144], [0]),
    "bipartite-union": (disjoint_union(torus_graph(2, 12), torus_graph(2, 10)), [0, 144],
                        [0, 144]),
}


@pytest.mark.parametrize("systems", ["L", "Q"])
@pytest.mark.parametrize("name", list(G_SYSTEMS))
def test_cg_potentials_of_g_are_the_dense_pinned_solution(name, systems, monkeypatch):
    # CG runs on the unpinned L or Q with the balanced right-hand side and
    # shifts its solution back: the potentials are the pinned matrix's, pin
    # values included, for right-hand sides of any imbalance.
    g, l_pins, q_pins = G_SYSTEMS[name]
    solved = []
    pcg = electric._pcg
    monkeypatch.setattr(electric, "_pcg",
                        lambda a, b: solved.append(b.size) or pcg(a, b))
    rng = np.random.default_rng(len(name) + len(systems))
    l_rhs = rng.standard_normal((g.n, 1)) if "L" in systems else None
    q_rhs = rng.standard_normal((g.n, 1)) if "Q" in systems else None
    x, y = electric._g_potentials(g, l_rhs, q_rhs)
    # CG runs on g's +1 colour class when every component is bipartite.
    bipartite = bipartite_partition(g) is not None
    assert solved == [g.n // (2 if bipartite else 1)]
    l_pins, q_pins = (np.array(pins, dtype=np.int64) for pins in (l_pins, q_pins))
    for rhs, potentials, pins, signs in ((l_rhs, x, l_pins, -1.0), (q_rhs, y, q_pins, 1.0)):
        if rhs is not None:
            pinned = electric._laplacian(g.n, *g.edges.T, pins, signs, dense=True)
            assert np.max(np.abs(potentials - np.linalg.solve(pinned, rhs))) <= 1e-12


def double_network(g, seed):
    """Every arc of g as a resistor u_out -- v_in of its double, but for the
    out-arcs of vertex 5 and the in-arcs of vertex 7 (5_out and 7_in are
    isolated), plus a second copy of 30 arcs (parallel resistors), with
    complex injections balanced on each component."""
    rng = np.random.default_rng(seed)
    kept = np.flatnonzero((g.arc_tails != 5) & (g.arc_heads != 7))
    arcs = np.concatenate([kept, rng.choice(kept, 30)])
    return balanced_network(2 * g.n, np.column_stack([g.arc_tails[arcs], g.n + g.arc_heads[arcs]]),
                            seed)


NETWORK_CASES = {
    # Two torus components of the double and 30 isolated nodes.
    "isolated": (balanced_network(230, TORUS_AND_ISOLATED.resistor_edges, 38), None),
    "ground": (balanced_network(230, TORUS_AND_ISOLATED.resistor_edges, 39), 150),
    # Feasible, though node 5's component sums to 1e-10 rather than 0.
    "imbalanced": (ElectricNetwork(200, TORUS_NET.resistor_edges,
                                   TORUS_NET.injections + 1e-10 * (np.arange(200) == 5)), None),
    # Networks of the double with isolated nodes and parallel resistors: of
    # torus 2:12, and of torus 2:10 beside torus 2:8 grounded at 130_in.
    "double": (double_network(torus_graph(2, 12), 51), None),
    "double-ground": (double_network(disjoint_union(torus_graph(2, 10), torus_graph(2, 8)), 52),
                      164 + 130),
}


@pytest.mark.parametrize("case", list(NETWORK_CASES))
def test_cg_network_potentials_are_the_dense_pinned_solution(case, monkeypatch):
    from scipy.sparse.csgraph import connected_components

    net, ground = NETWORK_CASES[case]
    solved = []
    pcg = electric._pcg
    monkeypatch.setattr(electric, "_pcg",
                        lambda a, b: solved.append(b.size) or pcg(a, b))
    sol = solve_network(net, ground=ground)
    tails, heads = net.resistor_edges.T
    # CG runs on the out-nodes when every resistor joins them to the
    # in-nodes; the 30 isolated nodes after the double break that split.
    half = net.node_count // 2
    crossing = np.all((tails < half) != (heads < half))
    assert sol.feasible and solved
    assert set(solved) == {half if crossing else net.node_count}
    assert crossing == (case not in ("isolated", "ground"))
    adjacency = sp.coo_matrix((np.ones(tails.size), (tails, heads)), shape=(net.node_count,) * 2)
    labels = connected_components(adjacency, directed=False)[1]
    pins = np.unique(labels, return_index=True)[1]  # the smallest node of each component
    if ground is not None:
        pins[labels[ground]] = ground
    pinned = electric._laplacian(net.node_count, tails, heads, pins, dense=True)
    assert np.max(np.abs(sol.potentials - np.linalg.solve(pinned, net.injections))) <= 1e-12
    # A pin holds its component's net injection, the 1e-10 included.
    sums = np.bincount(labels, net.injections.real) + 1j * np.bincount(labels, net.injections.imag)
    assert np.max(np.abs(sol.potentials[pins] - sums)) <= 1e-14


def recording_pcg(monkeypatch):
    """(unknowns, iterations, reduced) of every CG solve from now on."""
    solved = []
    pcg = electric._pcg

    def counting(a, b):
        counted = CountingMatrix(a)
        x = pcg(counted, b)
        solved.append((b.size, counted.products - 1, isinstance(a, electric._RedBlack)))
        return x

    monkeypatch.setattr(electric, "_pcg", counting)
    return solved


@pytest.mark.parametrize("g", [torus_graph(2, 13), complete_graph(150)], ids=lambda g: g.name)
def test_graphs_with_odd_cycles_solve_every_vertex(g, monkeypatch):
    # No 2-colouring: L, then Q, each by CG on all n vertices.
    solved = recording_pcg(monkeypatch)
    resistance_distances(g, 0, int(g.adjacency[0, 0]))
    assert [(size, reduced) for size, _, reduced in solved] == [(g.n, False)] * 2


@pytest.mark.parametrize(
    "solve",
    [lambda: resistance_distances(torus_graph(2, 12), 0, 1),
     lambda: solve_network(network_from_state_double(basis_arc_state(torus_graph(2, 12), 0, 1)))],
    ids=["g", "network"],
)
def test_red_class_solve_raises_when_not_converged(solve, monkeypatch):
    operators = []
    pcg = electric._pcg

    def capped(a, b):
        operators.append(type(a))
        return pcg(a, b, max_iter=3)

    monkeypatch.setattr(electric, "_pcg", capped)
    with pytest.raises(electric.ConvergenceError, match="in 3 iterations"):
        solve()
    assert operators == [electric._RedBlack]


@pytest.mark.parametrize(
    "g", [torus_graph(2, 12), torus_graph(2, 24), torus_graph(2, 100), torus_graph(3, 8),
          hypercube_graph(8), hypercube_graph(12)],
    ids=lambda g: g.name,
)
def test_red_class_takes_at_most_half_the_iterations_plus_one(g, monkeypatch):
    # Reid: CG on the red class takes every other step of Jacobi-CG on all
    # of L; its stop is on the red residual, which is L's.
    u, v = g.edges[len(g.edges) // 3].tolist()
    solved = recording_pcg(monkeypatch)
    reduced = resistance_distances(g, u, v)
    monkeypatch.setattr(electric, "_g_classes", lambda g: None)
    full = resistance_distances(g, u, v)
    [(half, k_half, first), (n, k, second)] = solved
    assert (half, first, n, second) == (g.n // 2, True, g.n, False)
    assert k_half <= math.ceil(k / 2) + 1
    assert reduced == pytest.approx(full, abs=1e-12)


def test_complex_injections_solved_componentwise():
    g = complete_graph(4)
    rng = np.random.default_rng(31)
    psi = random_state(g, rng)
    net = network_from_state_double(psi)
    sol = solve_network(net)
    if sol.feasible:
        assert_kcl(net, sol)


def test_parallel_resistors_supported():
    injections = np.zeros(2, dtype=complex)
    injections[0], injections[1] = 1.0, -1.0
    net = ElectricNetwork(2, ((0, 1), (0, 1)), injections)
    sol = solve_network(net)
    # two unit resistors in parallel: half the current through each
    assert_allclose(np.abs(sol.currents), 0.5, atol=1e-12)
    assert sol.power == pytest.approx(0.5, abs=1e-12)


# ---- resistance distance ------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 8, 16])
def test_complete_graph_resistance(n):
    assert resistance_distance(complete_graph(n), 0, 1) == pytest.approx(2 / n, abs=1e-9)


def test_hypercube_adjacent_resistance():
    g = hypercube_graph(3)
    assert resistance_distance(g, 0, 1) == pytest.approx(7 / 12, abs=1e-9)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_cycle_adjacent_resistance(n):
    assert resistance_distance(cycle_graph(n), 0, 1) == pytest.approx((n - 1) / n, abs=1e-9)


def test_resistance_rejects_bad_pairs():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="distinct"):
        resistance_distance(g, 2, 2)
    double = bipartite_double(cycle_graph(4))
    with pytest.raises(ValueError, match="components"):
        resistance_distance(double, 0, int(double.n / 2))


# ---- circulations --------------------------------------------------------------------------


def test_unit_cycle_circulation_maps_to_alternating_state():
    g = cycle_graph(4)
    # unit flow along the cycle: u_out -> (u + 1)_in carries 1, u_out -> (u - 1)_in carries -1
    flow = np.where((g.arc_heads - g.arc_tails) % g.n == 1, 1.0, -1.0)
    circ = Circulation(g, flow)
    circ.check(1e-12)
    state = circulation_to_flip(g, circ)
    expected = alternating_cycle_state(g).amplitudes * np.sqrt(g.arc_count)
    assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_circulation_round_trip():
    assert_circulation_roundtrip(random_flip_state(hypercube_graph(3), np.random.default_rng(32)))


def test_zero_circulation_maps_to_zero_state():
    g = complete_graph(3)
    state = circulation_to_flip(g, Circulation(g, np.zeros(g.arc_count)))
    assert state.norm() == 0.0


def test_circulation_invariant_errors_name_the_culprit():
    g = cycle_graph(4)
    circ = flip_to_circulation(g, random_flip_state(g, np.random.default_rng(33)))
    bad = circ.flow.copy()
    bad[0] += 0.5  # arc (0, 1): breaks conservation at 0_out and 1_in
    with pytest.raises(ValueError, match="conservation fails at vertex 0:"):
        Circulation(g, bad).check()


@pytest.mark.parametrize(
    "g", [hypercube_graph(3), complete_graph(5), cycle_graph(7)], ids=lambda g: g.name
)
def test_circulation_broken_only_at_in_nodes_names_the_first(g):
    a, b = g.adjacency[0, :2].tolist()
    flow = np.zeros(g.arc_count, dtype=complex)
    # 0_out sends 1 to a_in and takes 1 from b_in: every out-node balances.
    flow[g.arc_index(0, a)], flow[g.arc_index(0, b)] = 1.0, -1.0
    with pytest.raises(ValueError, match=f"conservation fails at vertex {g.n + a}: net outflow -1"):
        Circulation(g, flow).check()


def test_circulations_build_no_graph(monkeypatch):
    g = hypercube_graph(10)
    psi = basis_arc_state(g, 0, 1)
    sol = solve_network(network_from_state_double(psi))
    phi = random_flip_state(g, np.random.default_rng(34))

    def no_graph(*args, **kwargs):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(Graph, "__init__", no_graph)
    completed = circulation_to_flip(g, completed_circulation(g, psi, sol))
    assert completed.norm() ** 2 == pytest.approx(1.0 + sol.power, abs=1e-9)
    back = circulation_to_flip(g, flip_to_circulation(g, phi))
    assert np.array_equal(back.amplitudes, phi.amplitudes)


def test_circulation_to_flip_accepts_equal_graphs_only():
    g = cycle_graph(6)
    phi = random_flip_state(g, np.random.default_rng(35))
    back = circulation_to_flip(g, Circulation(cycle_graph(6), phi.amplitudes))
    assert back.graph is g and np.array_equal(back.amplitudes, phi.amplitudes)
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                          require_connected=False)
    for other in (two_triangles, bipartite_double(g)):
        with pytest.raises(ValueError, match="not defined on the bipartite double"):
            circulation_to_flip(g, Circulation(other, np.zeros(other.arc_count)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_circulation_check_rejects_bad_tolerances(bad):
    g = cycle_graph(4)
    unconserved = Circulation(g, np.ones(g.arc_count))  # net outflow +-2 at every node
    with pytest.raises(ValueError, match="tolerance must be finite"):
        circulation_to_flip(g, unconserved, tol=bad)
    with pytest.raises(ValueError, match="tolerance must be finite"):
        Circulation(g, np.zeros(g.arc_count)).check(bad)


def test_circulation_check_takes_a_zero_tolerance():
    g = cycle_graph(4)
    unit_cycle = np.where((g.arc_heads - g.arc_tails) % g.n == 1, 1.0, -1.0)
    state = circulation_to_flip(g, Circulation(g, unit_cycle), tol=0.0)
    assert np.array_equal(state.amplitudes, unit_cycle)
    with pytest.raises(ValueError, match="conservation fails at vertex 0:"):
        circulation_to_flip(g, Circulation(g, np.ones(g.arc_count)), tol=0.0)


def test_flip_to_circulation_rejects_non_flip_states():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="flip"):
        flip_to_circulation(g, basis_arc_state(g, 0, 1))


# ---- completed circulations ------------------------------------------------------------------


def test_completed_circulation_on_triangle():
    g = complete_graph(3)
    psi = basis_arc_state(g, 0, 1)
    sol = solve_network(network_from_state_double(psi))
    phi = circulation_to_flip(g, completed_circulation(g, psi, sol))
    assert phi.norm() ** 2 == pytest.approx(6.0, abs=1e-9)  # 1 + P with P = 5


def test_completed_circulation_reaches_exact_projection_on_k4():
    g = complete_graph(4)
    psi = basis_arc_state(g, 0, 1)
    sol = solve_network(network_from_state_double(psi))
    alpha_lower, _ = bounds_from_power(sol.power, "double")
    alpha_sq, _ = flip_projection(psi)
    assert alpha_lower == pytest.approx(alpha_sq, abs=1e-10)
    assert alpha_sq == pytest.approx(5 / 12, abs=1e-10)


def test_zero_power_completion_returns_the_state():
    g = cycle_graph(4)
    psi = alternating_cycle_state(g)
    sol = solve_network(network_from_state_double(psi))
    assert sol.power == pytest.approx(0.0, abs=1e-15)
    phi = circulation_to_flip(g, completed_circulation(g, psi, sol))
    assert_allclose(phi.amplitudes, psi.amplitudes, atol=1e-12)


def test_completed_circulation_rejects_infeasible_flows():
    g = complete_graph(3)
    amps = basis_arc_state(g, 0, 1).amplitudes + basis_arc_state(g, 1, 0).amplitudes
    psi = ArcState(g, amps / np.sqrt(2))
    sol = solve_network(network_from_state_double(psi))
    with pytest.raises(ValueError, match="infeasible"):
        completed_circulation(g, psi, sol)


@pytest.mark.parametrize(
    "g",
    [complete_graph(4), complete_graph(6), hypercube_graph(3), complete_bipartite_graph(3)],
    ids=lambda g: g.name,
)
def test_norm_identity_one_plus_power(g):
    assert_completed_flow_norm_identity(basis_arc_state(g, *g.edges[0]))


# ---- dissipation bounds -------------------------------------------------------------------


def test_bounds_from_power_cases():
    assert bounds_from_power(5.0, "double") == pytest.approx((1 / 6, -2 / 3))
    assert bounds_from_power(0.0, "double") == (1.0, 1.0)
    assert bounds_from_power(math.inf, "double") == (0.0, -1.0)
    assert bounds_from_power(0.5, "selfflip") == pytest.approx((1 / 2, 0.0))
    with pytest.raises(ValueError):
        bounds_from_power(1.0, "elsewhere")
    with pytest.raises(ValueError):
        bounds_from_power(-0.1, "double")


def test_selfflip_bound_matches_exact_projection_on_edge_transitive():
    for g in (complete_graph(4), hypercube_graph(3), complete_bipartite_graph(3)):
        psi = selfflip_edge_state(g, *g.edges[0])
        sol = solve_network(network_from_selfflip_state(psi))
        alpha_lower, _ = bounds_from_power(sol.power, "selfflip")
        alpha_sq, _ = flip_projection(psi)
        assert alpha_lower == pytest.approx(alpha_sq, abs=1e-9)


def test_parallel_resistance_identity_values():
    assert parallel_resistance_identity(5.0) == pytest.approx(5 / 6)
    assert parallel_resistance_identity(0.0) == 0.0
    assert parallel_resistance_identity(1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        parallel_resistance_identity(-1.0)


@pytest.mark.parametrize(
    "g",
    [complete_graph(3), complete_graph(4), hypercube_graph(3)],
    ids=lambda g: g.name,
)
def test_parallel_identity_against_double_graph_resistance(g):
    assert_parallel_combination(g)


def test_triangle_double_resistance_closed_form():
    omega = resistance_distance(bipartite_double(complete_graph(3)), 0, 3 + 1)
    assert omega == pytest.approx(5 / 6, abs=1e-12)  # (2n-1)/(d n) at n=3, d=2


def dense_laplacian(nodes, tails, heads, pins=(), signs=-1.0):
    """Laplacian of the links tails[i] -- heads[i] entry by entry, with
    signs off the diagonal (-1: L, +1: Q) and 1 added at each pinned node."""
    laplacian = np.zeros((nodes, nodes))
    pins = np.asarray(pins, dtype=np.int64)
    np.add.at(laplacian, (tails, tails), 1.0)
    np.add.at(laplacian, (heads, heads), 1.0)
    np.add.at(laplacian, (tails, heads), signs)
    np.add.at(laplacian, (heads, tails), signs)
    np.add.at(laplacian, (pins, pins), 1.0)
    return laplacian


@pytest.mark.parametrize(
    "g,pairs",
    [
        (complete_graph(5), [(0, 1), (2, 2), (4, 0)]),
        (hypercube_graph(3), [(0, 1), (0, 7), (6, 1)]),
        (torus_graph(2, 9), [(0, 1), (0, 40), (5, 5)]),  # odd side: not bipartite
        (torus_graph(2, 12), [(0, 1), (3, 21)]),  # 144 nodes: solved by CG
        # K_4 (odd) on 0-3, Q_3 on 4-11, K_{3,3} on 12-17: a bipartite part
        # of the double is two copies, an odd one a single component.
        (disjoint_union(complete_graph(4), hypercube_graph(3), complete_bipartite_graph(3)),
         [(0, 1), (2, 2), (3, 0), (4, 5), (4, 11), (10, 8), (12, 15), (17, 14)]),
        # C_3 on 0-2, C_4 on 3-6, C_5 on 7-11.
        (disjoint_union(cycle_graph(3), cycle_graph(4), cycle_graph(5)),
         [(0, 0), (0, 2), (3, 4), (6, 3), (7, 9), (8, 8), (11, 7)]),
    ],
    ids=lambda x: getattr(x, "name", ""),
)
def test_double_resistance_without_the_double_matches_the_built_double(g, pairs):
    # The double is solved as L (+) Q on g's own nodes, so it agrees with the
    # built double and with the pseudoinverse of its Laplacian to rounding;
    # on a bipartite component (u_out and u_in apart) Q = S L S and the
    # double's resistance is the base resistance, the same float.
    double = bipartite_double(g)
    pinv = np.linalg.pinv(dense_laplacian(double.n, *double.edges.T))
    for u, v in pairs:
        omega = resistance_distance(g, u, v, double=True)
        built = resistance_distance(double, u, g.n + v)
        oracle = pinv[u, u] + pinv[g.n + v, g.n + v] - 2 * pinv[u, g.n + v]
        assert abs(omega - built) <= 1e-12 * built
        assert abs(omega - oracle) <= 1e-12 * oracle
        if u != v:
            base = resistance_distance(g, u, v)
            assert resistance_distances(g, u, v) == (base, omega)
            if double.component_roots[u] != double.component_roots[g.n + u]:
                assert omega == base


def test_double_resistance_rejects_terminals_in_different_components():
    # 0 and 3 share a color of Q_3, so 0_out and 3_in = 11 lie in different copies.
    with pytest.raises(ValueError, match="vertices 0 and 11 lie in different components"):
        resistance_distance(hypercube_graph(3), 0, 3, double=True)


@pytest.mark.parametrize(
    "g, dense", [(hypercube_graph(4), True), (torus_graph(2, 12), False)], ids=["dense", "cg"]
)
def test_pinned_signless_solve_on_a_bipartite_graph_is_the_colored_laplacian_one(g, dense,
                                                                                monkeypatch):
    # Q = S L S on a bipartite g, pinned at vertex 0: for a b whose S-weighted
    # sum is 0, Q y = b gives y = S L^+ S b up to the null vector S, which the
    # pin fixes by y_0 = 0.
    solved = []
    pcg = electric._pcg
    monkeypatch.setattr(electric, "_pcg",
                        lambda a, b: solved.append(b.size) or pcg(a, b))
    colors = np.full(g.n, -1.0)
    colors[bipartite_partition(g).partite_x] = 1.0
    rng = np.random.default_rng(g.n)
    b = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    b -= colors * np.mean(colors * b)
    _, y = electric._g_potentials(g, q_rhs=b[:, None])
    z = np.linalg.pinv(dense_laplacian(g.n, *g.edges.T)) @ (colors * b)
    assert np.max(np.abs(y[:, 0] - colors * (z - z[0]))) <= 1e-12
    assert abs(y[0, 0]) <= 1e-12
    assert solved == ([] if dense else [g.n // 2, g.n // 2])  # the red class


class CountingMatrix:
    """A matrix that counts its products with a vector."""

    def __init__(self, a):
        self.a, self.products = a, 0

    def diagonal(self):
        return self.a.diagonal()

    def __matmul__(self, p):
        self.products += 1
        return self.a @ p


# Iterations of the L solve of an edge pair: CG on the unpinned L converges
# at the Fiedler rate, L pinned at one vertex at the grounded Laplacian's
# (401, 404 and 24), and CG on the red class of a bipartite L takes half
# the steps of CG on all of it (125 and 6 against 248 and 12; torus 2:101
# has odd cycles and takes 250 on all of its vertices).
MAX_L_ITERATIONS = {"torus:2:100": 130, "torus:2:101": 260, "hypercube:12": 8}


@pytest.mark.parametrize(
    "g", [torus_graph(2, 100), torus_graph(2, 101), hypercube_graph(12)], ids=lambda g: g.name
)
def test_cg_sized_resistances_match_fosters_closed_forms(g, monkeypatch):
    # Foster: every edge of an edge-transitive graph has resistance (n-1)/m,
    # and the double of a non-bipartite one is connected and edge-transitive
    # with 2n vertices and 2m edges.  A bipartite g takes one L solve
    # (y = S x) on its red class, an odd one L, then Q, on all vertices.
    solved = []
    pcg = electric._pcg

    def counting(a, b):
        counted = CountingMatrix(a)
        x = pcg(counted, b)
        solved.append((b.size, counted.products - 1))
        return x

    monkeypatch.setattr(electric, "_pcg", counting)
    bipartite = bipartite_partition(g) is not None
    m = len(g.edges)
    omega = (g.n - 1) / m
    u, v = g.edges[m // 3].tolist()
    omegas = resistance_distances(g, u, v)
    assert omegas[0] == pytest.approx(omega, abs=1e-9)
    assert omegas[1] == pytest.approx(omega if bipartite else (2 * g.n - 1) / (2 * m), abs=1e-9)
    assert [size for size, _ in solved] == ([g.n // 2] if bipartite else [g.n] * 2)
    assert solved[0][1] <= MAX_L_ITERATIONS[g.name]


def spsolve_resistances(nodes, tails, heads, pairs):
    """Effective resistances of unit resistors tails[i] -- heads[i] by a
    sparse LU solve of the Laplacian, grounded at one node per component of
    scipy's own labeling."""
    import scipy.sparse.linalg as spla
    from scipy.sparse.csgraph import connected_components

    adjacency = sp.coo_matrix((np.ones(tails.size), (tails, heads)), shape=(nodes, nodes)).tocsr()
    adjacency = adjacency + adjacency.T
    laplacian = (sp.diags(np.asarray(adjacency.sum(axis=1)).ravel()) - adjacency).tocsr()
    labels = connected_components(adjacency, directed=False)[1]
    free = np.setdiff1d(np.arange(nodes), np.unique(labels, return_index=True)[1])
    rhs = np.zeros((nodes, len(pairs)))
    for k, (a, b) in enumerate(pairs):
        rhs[a, k] += 1.0
        rhs[b, k] -= 1.0
    potentials = np.zeros_like(rhs)
    system = laplacian[free][:, free].tocsc()
    potentials[free] = spla.spsolve(system, rhs[free], permc_spec="MMD_AT_PLUS_A")
    return np.array([potentials[a, k] - potentials[b, k] for k, (a, b) in enumerate(pairs)])


# Random regular graphs are connected and not bipartite (for these seeds), so
# the double is one component and omega_double takes the signless solve; the
# union puts a bipartite torus beside an odd component (three double
# components).  All are above _DENSE_MAX_NODES: both solves run CG.
SCALE_GRAPHS = [
    random_regular_graph(4000, 3, seed=41),
    random_regular_graph(3000, 4, seed=42),
    random_regular_graph(2000, 5, seed=43),
    disjoint_union(random_regular_graph(2000, 4, seed=44), torus_graph(2, 40)),
]


@pytest.mark.parametrize("g", SCALE_GRAPHS, ids=lambda g: g.name)
def test_resistances_at_scale_match_sparse_lu_on_the_built_double(g):
    rng = np.random.default_rng(g.n)
    first = 2000 if g.num_components > 1 else g.n  # the random regular part
    pairs = [tuple(int(x) for x in rng.choice(first, 2, replace=False)) for _ in range(3)]
    if g.num_components > 1:
        torus_edges = np.flatnonzero(g.edges[:, 0] >= first)
        pairs += [tuple(int(x) for x in g.edges[k]) for k in rng.choice(torus_edges, 3)]
    omegas = np.array([resistance_distances(g, a, b) for a, b in pairs])
    base = spsolve_resistances(g.n, *g.edges.T, pairs)
    loops = [(a, a) for a, _ in pairs[:2]]
    double = spsolve_resistances(2 * g.n, g.arc_tails, g.n + g.arc_heads,
                                 [(a, g.n + b) for a, b in pairs + loops])
    assert_allclose(omegas[:, 0], base, rtol=1e-12, atol=0)
    assert_allclose(omegas[:, 1], double[: len(pairs)], rtol=1e-12, atol=0)
    loop_omegas = [resistance_distance(g, a, a, double=True) for a, _ in loops]
    assert_allclose(loop_omegas, double[len(pairs):], rtol=1e-12, atol=0)


@pytest.mark.parametrize("g", SCALE_GRAPHS, ids=lambda g: g.name)
def test_component_counts_at_scale_match_networkx(g):
    nx = pytest.importorskip("networkx")
    base = nx.Graph(g.edges.tolist())
    double = nx.Graph(zip(g.arc_tails.tolist(), (g.n + g.arc_heads).tolist()))
    assert g.num_components == nx.number_connected_components(base)
    assert np.unique(g.double_roots).size == nx.number_connected_components(double)
    assert (bipartite_partition(g) is not None) == nx.is_bipartite(base)


def test_paths_resistance_bound_values():
    assert paths_resistance_bound([7]) == pytest.approx(7.0)
    assert paths_resistance_bound([3, 3, 3]) == pytest.approx(1.0)
    assert paths_resistance_bound([1, 3, 3]) == pytest.approx(3 / 5)
    with pytest.raises(ValueError):
        paths_resistance_bound([])
    with pytest.raises(ValueError):
        paths_resistance_bound([0, 2])


def test_localization_verdict_strings():
    assert localization_verdict(0.4) == CERTIFIED
    assert localization_verdict(0.5) == NOT_CERTIFIED
    assert localization_verdict(0.7) == NOT_CERTIFIED


# ---- Thomson's principle -------------------------------------------------------------------


@pytest.mark.parametrize(
    "g",
    [complete_graph(5), hypercube_graph(3), torus_graph(2, 4)],
    ids=lambda g: g.name,
)
def test_kirchhoff_currents_minimize_power(g):
    net = network_from_state_double(basis_arc_state(g, 0, 1))
    assert_thomson(net, np.random.default_rng(34), 30)


def test_tree_networks_carry_no_circulation():
    g = complete_graph(3)
    net = network_from_state_double(basis_arc_state(g, 0, 1))  # a path
    assert random_resistor_circulation(net, np.random.default_rng(35)) is None


def test_edge_transitive_resistance_closed_forms():
    graphs = [
        complete_graph(5),
        complete_graph(9),
        hypercube_graph(2),
        hypercube_graph(4),
        cycle_graph(9),
        torus_graph(2, 5),
        complete_bipartite_graph(4),
    ]
    for g in graphs:
        assert_edge_transitive_resistance(g)
