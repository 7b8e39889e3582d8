"""Bounds and flip projections of `certify` and `decompose` against oracles.

A state on the two arcs of one edge takes g's own L and Q: the
transfer-current block (one L solve, plus a Q solve only on a component with
an odd cycle).  Its oracle is the path that builds the double's networks and
flows: `solve_network` on `network_from_state_double` and
`network_from_selfflip_state`, and `circulation_projection` on the double's
edges.  A wider state's flip part is that circulation projection, so its
oracle is the L (+) Q change of variables instead, with dense
pseudo-inverses of g's L and Q: it calls no solver of the package.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oscillwalk import (
    ArcState,
    Graph,
    basis_arc_state,
    bounds_from_power,
    certify,
    complete_graph,
    cycle_graph,
    decompose,
    graph_from_edge_list,
    hypercube_graph,
    is_selfflip_state,
    network_from_selfflip_state,
    network_from_state_double,
    random_regular_graph,
    read_state_csv,
    solve_network,
    torus_graph,
    write_state_csv,
)
from oscillwalk import electric
from oscillwalk.cli import main
from oscillwalk.verify import random_state

RTOL = 1e-10


def selfflip_state(g, u, v):
    amps = basis_arc_state(g, u, v).amplitudes - basis_arc_state(g, v, u).amplitudes
    return ArcState(g, amps / np.sqrt(2))


def pair_state(g, edge, rng):
    """Complex amplitudes on both arcs of one edge."""
    amps = np.zeros(g.arc_count, dtype=complex)
    amps[2 * edge : 2 * edge + 2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return ArcState(g, amps / np.linalg.norm(amps))


@functools.cache
def pseudo_inverses(g):
    """Dense L^+ and Q^+ of g, from its arcs."""
    adjacency = np.zeros((g.n, g.n))
    np.add.at(adjacency, (g.arc_tails, g.arc_heads), 1.0)
    degree = np.diag(adjacency.sum(axis=1))
    return np.linalg.pinv(degree - adjacency), np.linalg.pinv(degree + adjacency)


def lq_flip_part(psi):
    """The flip part by the L (+) Q change of variables: with o the outflow
    of psi at each vertex and i minus its inflow, p = L^+ (o + i) and
    q = Q^+ (o - i) are the double's potentials turned by
    (x, y) -> (x + y, x - y), and arc (u, v) carries the current
    (p_u - p_v + q_u + q_v) / 2 of psi's divergence."""
    g, amps = psi.graph, psi.amplitudes
    outs, ins = np.zeros(g.n, dtype=complex), np.zeros(g.n, dtype=complex)
    np.add.at(outs, g.arc_tails, amps)
    np.add.at(ins, g.arc_heads, -amps)
    l_inv, q_inv = pseudo_inverses(g)
    p, q = l_inv @ (outs + ins), q_inv @ (outs - ins)
    tails, heads = g.arc_tails, g.arc_heads
    return amps - (p[tails] - p[heads] + q[tails] + q[heads]) / 2


def assert_matches_oracle(psi):
    """certify(psi) and decompose(psi) against the 2n-node networks and a
    flip part from outside the code under test, within RTOL relative (the
    flip part relative to the unit state): for a state on one edge the
    circulation projection on the double's edges, for a wider one
    lq_flip_part."""
    g = psi.graph
    support = np.flatnonzero(psi.amplitudes) // 2
    if np.all(support == support[0]):
        flip = electric.circulation_projection(2 * g.n, g.arc_tails, g.n + g.arc_heads,
                                               psi.amplitudes)
    else:
        flip = lq_flip_part(psi)
    double = solve_network(network_from_state_double(psi)).power
    selfflip = None
    if is_selfflip_state(psi):
        selfflip = solve_network(network_from_selfflip_state(psi)).power

    cert = certify(psi)
    dec = cert.decomposition
    assert np.linalg.norm(dec.flip_component.amplitudes - flip) <= RTOL
    assert dec.alpha_sq == pytest.approx(float(np.vdot(flip, flip).real), rel=RTOL, abs=1e-14)
    assert cert.power_double == pytest.approx(double, rel=RTOL, abs=1e-14)
    if selfflip is None:
        assert cert.power_selfflip is None
    else:
        assert cert.power_selfflip == pytest.approx(selfflip, rel=RTOL, abs=1e-14)
    assert np.array_equal(decompose(psi).flip_component.amplitudes, dec.flip_component.amplitudes)
    return cert


@pytest.mark.parametrize("n", [101, 201])
def test_long_cycles_where_the_block_is_nearly_singular(n):
    # On C_n, omega(u, v) = (n - 1)/n and omega_double = (2n - 1)/(2n) for odd
    # n: lambda_min(I - K) is 1/(2n), so P carries ~2n eps relative error.
    g = cycle_graph(n)
    for u, v in [(0, 1), (n // 2, n // 2 + 1), (n - 1, 0)]:
        for psi in (basis_arc_state(g, u, v), basis_arc_state(g, v, u)):
            cert = assert_matches_oracle(psi)
            assert cert.power_double == pytest.approx(2 * n - 1, rel=RTOL)
        cert = assert_matches_oracle(selfflip_state(g, u, v))
        assert cert.power_double == pytest.approx(n - 1, rel=RTOL)
        assert cert.power_selfflip == pytest.approx((n - 1) / 2, rel=RTOL)


BRIDGE_EDGES = """\
# 3-regular, two K_4 minus an edge, each closed by a vertex (4, 9) that
# also holds the bridge 4 - 9
0 1
0 2
0 3
1 2
1 3
2 4
3 4
5 6
5 7
5 8
6 7
6 8
7 9
8 9
4 9
"""


def test_states_on_a_bridge_keep_their_verdicts(tmp_path):
    path = tmp_path / "bridge.txt"
    path.write_text(BRIDGE_EDGES)
    g = graph_from_edge_list(str(path))
    assert g.degree == 3 and g.num_components == 1
    # An edge state leaves the reverse arc in the double, so its network is
    # feasible; a self-flip state takes both arcs out and cuts the double
    # (and g) in two, so both of its networks are infeasible.
    for u, v in [(4, 9), (9, 4)]:
        cert = assert_matches_oracle(basis_arc_state(g, u, v))
        assert cert.power_double == pytest.approx(5.0, rel=RTOL)
        cert = assert_matches_oracle(selfflip_state(g, u, v))
        assert cert.power_double == cert.power_selfflip == float("inf")
        assert cert.decomposition.alpha_sq <= 1e-14


def test_selfflip_states_on_a_cg_sized_torus(monkeypatch):
    g = torus_graph(2, 12)
    assert g.n > electric._DENSE_MAX_NODES
    solved = []
    pcg = electric._pcg
    monkeypatch.setattr(electric, "_pcg",
                        lambda a, b: solved.append(b.size) or pcg(a, b))
    for u, v in [(0, 1), (5, 17), (143, 131)]:
        psi = selfflip_state(g, u, v)
        solved.clear()
        certify(psi)
        assert solved == [g.n // 2]  # L on its red class
        assert_matches_oracle(psi)


ZOO = [
    complete_graph(6),
    cycle_graph(9),
    hypercube_graph(3),
    torus_graph(2, 5),
    torus_graph(2, 12),
    random_regular_graph(30, 3, seed=2),
    random_regular_graph(200, 5, seed=3),
]


@pytest.mark.parametrize("g", ZOO, ids=lambda g: g.name)
def test_random_complex_states_match_the_oracle(g):
    rng = np.random.default_rng(g.n)
    for _ in range(3):
        assert_matches_oracle(random_state(g, rng))
        assert_matches_oracle(random_state(g, rng, real=True))
        assert_matches_oracle(pair_state(g, int(rng.integers(len(g.edges))), rng))


@settings(max_examples=12, deadline=None)
@given(n=st.integers(4, 2000), d=st.integers(3, 5), seed=st.integers(0, 2**16))
@example(n=2000, d=5, seed=11)
@example(n=1999, d=4, seed=12)
def test_random_regular_single_edge_states_match_the_oracle(n, d, seed):
    assume(d < n and n * d % 2 == 0)
    g = random_regular_graph(n, d, seed=seed)
    u, v = g.arc_endpoints(seed % g.arc_count)
    cert = assert_matches_oracle(basis_arc_state(g, u, v))
    lower, _ = bounds_from_power(cert.power_double, "double")
    assert lower == pytest.approx(cert.decomposition.alpha_sq, rel=1e-9)
    assert_matches_oracle(selfflip_state(g, u, v))
    assert_matches_oracle(pair_state(g, g.edge_id(u, v), np.random.default_rng(seed)))


def test_certify_does_not_depend_on_the_vertex_labels():
    # A random relabeling pi of a CG-sized graph with odd cycles moves every
    # arc id, double root, pin and red-class index; the scalars and the flip
    # part, mapped back to g's arcs, stay within rounding.
    g = random_regular_graph(200, 5, seed=3)
    rng = np.random.default_rng(27)
    pi = rng.permutation(g.n)
    assert pi[0] != 0 and not g.coloring[1].all()
    h = Graph(g.n, pi[g.edges], name="relabeled")
    arcs = np.array([h.arc_index(u, v) for u, v in zip(pi[g.arc_tails], pi[g.arc_heads])])
    assert np.array_equal(h.arc_tails[arcs], pi[g.arc_tails])
    assert 2 * g.n > electric._DENSE_MAX_NODES and not np.array_equal(arcs, np.arange(g.arc_count))
    psi = random_state(g, rng)
    amps = np.zeros(h.arc_count, dtype=complex)
    amps[arcs] = psi.amplitudes
    expected, relabeled = certify(psi), certify(ArcState(h, amps))
    for name in ("alpha_sq", "beta_sq", "gamma_sq"):
        assert getattr(relabeled.decomposition, name) == pytest.approx(
            getattr(expected.decomposition, name), abs=1e-12)
    flip = expected.decomposition.flip_component.amplitudes
    relabeled_flip = relabeled.decomposition.flip_component.amplitudes
    assert np.max(np.abs(relabeled_flip[arcs] - flip)) <= 1e-12


def run_recording(argv, monkeypatch, capsys):
    """Run the CLI, recording the unknowns of every CG solve and the node
    count of every assembly of a network's Laplacian, whole or reduced to
    its red class.  g's own L and Q, and the double's links, one per arc,
    give every node the same number of links; a network lacks the links of
    the state's support, so its link counts differ."""
    solved, networks = [], []
    pcg, laplacian, red_black = electric._pcg, electric._laplacian, electric._RedBlack

    def record(node_count, tails, heads):
        links = np.bincount(np.concatenate([tails, heads]), minlength=node_count)
        if links.min() != links.max():
            networks.append(node_count)

    def recording(node_count, tails, heads, *args, **kw):
        record(node_count, tails, heads)
        return laplacian(node_count, tails, heads, *args, **kw)

    def reducing(tails, heads, red):
        record(red.size, tails, heads)
        return red_black(tails, heads, red)

    monkeypatch.setattr(electric, "_pcg",
                        lambda a, b: solved.append(b.size) or pcg(a, b))
    monkeypatch.setattr(electric, "_laplacian", recording)
    monkeypatch.setattr(electric, "_RedBlack", reducing)
    code = main(argv)
    capsys.readouterr()
    return code, solved, networks


@pytest.mark.parametrize(
    "spec,state,solves",
    [
        # Bipartite: y = S_u S x, one L solve, on the red class.
        ("hypercube:8", "edge:0:1", [128]),
        ("hypercube:8", "selfflip:3:7", [128]),
        ("torus:2:24", "edge:0:1", [288]),
        ("torus:2:24", "selfflip:0:24", [288]),
        ("torus:2:13", "selfflip:0:1", [169]),  # odd cycles, but no Q right-hand side
        ("torus:2:13", "edge:0:1", [169, 169]),  # L, then Q: the solves of `resistance`
    ],
)
@pytest.mark.parametrize("command", ["bounds", "decompose"])
def test_single_edge_states_take_one_cg_solve_on_g(command, spec, state, solves, monkeypatch,
                                                  capsys):
    argv = [command, "--graph", spec, "--state", state]
    code, solved, networks = run_recording(argv, monkeypatch, capsys)
    assert (code, solved, networks) == (0, solves, [])


def plaquette_state(side, count, rng):
    """A random sum of `count` unit squares of torus 2:side, each a flip
    state: its corners u, v, w, z in turn, from a random corner either way
    round, carry c on u -> v and w -> z and -c on w -> v and u -> z."""
    g = torus_graph(2, side)
    corners = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
    turn = rng.integers(4, size=(count, 1)) + rng.choice([1, -1], size=(count, 1)) * np.arange(4)
    origins = np.column_stack(np.divmod(rng.integers(g.n, size=count), side))
    cells = corners[turn % 4] + origins[:, None]
    u, v, w, z = (cells[:, k] % side @ [side, 1] for k in range(4))
    c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    amps = np.zeros(g.arc_count, dtype=complex)
    for tails, heads, sign in ((u, v, 1), (w, v, -1), (w, z, 1), (u, z, -1)):
        np.add.at(amps, [g.arc_index(t, h) for t, h in zip(tails, heads)], sign * c)
    return ArcState(g, amps / np.linalg.norm(amps))


def test_bounds_of_a_plaquette_state_solve_nothing(monkeypatch, capsys, tmp_path):
    # Overlapping squares leave rounding noise in the double network's
    # injections and in the flip part's divergence.  Balanced, each column
    # is already within CG's stop: it takes no CG solve and no sparse
    # assembly, and its potentials are the imbalance times the kernel
    # vector, so every current is exactly 0 and the flip part is the state.
    psi = plaquette_state(24, 576, np.random.default_rng(8))
    path = tmp_path / "state.csv"
    write_state_csv(psi, str(path))
    amps = read_state_csv(psi.graph, str(path)).amplitudes
    solved, sparse = [], []
    pcg, laplacian = electric._pcg, electric._laplacian

    def recording(*args, dense=False, **kw):
        sparse.append(not dense)
        return laplacian(*args, dense=dense, **kw)

    monkeypatch.setattr(electric, "_pcg", lambda a, b: solved.append(b.size) or pcg(a, b))
    monkeypatch.setattr(electric, "_laplacian", recording)
    assert main(["bounds", "--graph", "torus:2:24", "--state", f"csv:{path}"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert solved == [] and not any(sparse)
    assert record["double"]["power"] == 0.0
    assert record["alpha_sq"] == float(np.vdot(amps, amps).real)


def test_decompose_of_a_wide_state_assembles_no_double(monkeypatch, capsys, tmp_path):
    # The flip part is projected on the double's 2n nodes, one link per arc,
    # so no network is assembled.  The double is bipartite, out-nodes against
    # in-nodes, on bipartite torus 2:12 and on torus 2:13 and a random
    # 5-regular graph, which have odd cycles: CG runs on the n out-nodes, once
    # per real and imaginary part.
    graphs = [torus_graph(2, 12), torus_graph(2, 13), random_regular_graph(200, 5, seed=3)]
    for g, bipartite in zip(graphs, [True, False, False]):
        assert g.coloring[1].all() == bipartite
        path = tmp_path / "state.csv"
        write_state_csv(random_state(g, np.random.default_rng(42)), str(path))
        argv = ["decompose", "--graph", g.name, "--state", f"csv:{path}"]
        assert run_recording(argv, monkeypatch, capsys) == (0, [g.n, g.n], [])
        monkeypatch.undo()


def test_bounds_of_a_real_wide_state_solve_one_real_column_per_system(monkeypatch, capsys,
                                                                      tmp_path):
    # A real state on 20 arcs of torus 2:12: its double network and its
    # flip projection, each on the double's 288 nodes (one pin in each
    # copy), take one CG solve on their 144 red nodes, the out-nodes; the
    # zero imaginary parts are not solved.
    g = torus_graph(2, 12)
    rng = np.random.default_rng(5)
    amps = np.zeros(g.arc_count)
    amps[rng.choice(g.arc_count, 20, replace=False)] = rng.standard_normal(20)
    path = tmp_path / "state.csv"
    write_state_csv(ArcState(g, amps / np.linalg.norm(amps)), str(path))
    argv = ["bounds", "--graph", "torus:2:12", "--state", f"csv:{path}"]
    code, solved, networks = run_recording(argv, monkeypatch, capsys)
    assert (code, solved, networks) == (0, [144, 144], [2 * g.n])


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--graph", "torus:2:12", "--state", "selfflip:0:1"],
        ["bounds", "--graph", "torus:2:13", "--state", "edge:0:1", "--format", "csv"],
        ["decompose", "--graph", "hypercube:8", "--state", "edge:0:1"],
    ],
)
def test_unconverged_solve_on_g_exits_four(argv, monkeypatch, capsys):
    monkeypatch.setattr(electric, "_pcg", functools.partial(electric._pcg, max_iter=1))
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.startswith("error: conjugate gradients did not converge in 1 iterations")
    assert err.count("\n") == 1


def test_bounds_json_on_a_bridge_reports_both_networks_infeasible(tmp_path, capsys):
    path = tmp_path / "bridge.txt"
    path.write_text(BRIDGE_EDGES)
    code = main(["bounds", "--graph", f"edge_list:{path}", "--state", "selfflip:4:9"])
    record = json.loads(capsys.readouterr().out)
    assert code == 0
    for network, mode in (("double", "double"), ("selfflip", "selfflip")):
        assert record[network] == {
            "feasible": False,
            "power": None,
            "alpha_lower": bounds_from_power(float("inf"), mode)[0],
            "overlap_lower": -1.0,
        }
