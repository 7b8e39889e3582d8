"""Walk operators: coin, shift, evolution, flip transform, averages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oscillwalk import (
    ArcState,
    GraphError,
    apply_coin,
    apply_shift,
    basis_arc_state,
    bipartite_partition,
    complete_graph,
    cycle_graph,
    dense_walk_matrix,
    ensure_normalized,
    evolve,
    flip_transform,
    hypercube_graph,
    is_selfflip_state,
    overlap,
    random_regular_graph,
    read_state_csv,
    uniform_state,
    vertex_averages,
    walk_step,
    write_state_csv,
)
from oscillwalk.verify import (
    assert_bipartite_alternation,
    assert_coin_involution,
    assert_flip_state_single_step,
    assert_realness_preserved,
    assert_shift_involution,
    assert_uniform_state_stationary,
    assert_unitarity,
    random_flip_state,
    random_state,
)

ZOO = [complete_graph(5), cycle_graph(6), hypercube_graph(3)]


# ---- constructors ------------------------------------------------------------------------


def test_basis_state_is_unit_vector():
    g = complete_graph(4)
    psi = basis_arc_state(g, 0, 1)
    assert psi.norm() == 1.0
    assert psi.amplitude(0, 1) == 1.0 + 0j


def test_basis_state_rejects_non_edges():
    g = complete_graph(4)
    with pytest.raises(GraphError):
        basis_arc_state(g, 0, 0)
    g = cycle_graph(4)
    with pytest.raises(GraphError):
        basis_arc_state(g, 0, 2)


def test_basis_state_lands_on_the_right_arc():
    g = cycle_graph(4)
    psi = basis_arc_state(g, 0, 1)
    hot = np.flatnonzero(psi.amplitudes)
    assert hot.tolist() == [g.arc_index(0, 1)]


def test_uniform_state_values():
    g = complete_graph(3)
    sigma = uniform_state(g)
    assert_allclose(sigma.amplitudes, np.full(6, 1 / np.sqrt(6)), atol=1e-15)

    g = cycle_graph(4)
    part = bipartite_partition(g)
    sigma_x = uniform_state(g, part.partite_x)
    hot = np.abs(sigma_x.amplitudes) > 0
    assert hot.sum() == 4
    assert_allclose(np.abs(sigma_x.amplitudes[hot]), 0.5, atol=1e-15)

    g = hypercube_graph(3)
    single = uniform_state(g, {5})
    assert_allclose(single.norm(), 1.0, atol=1e-15)
    assert (np.abs(single.amplitudes) > 0).sum() == g.degree


def test_uniform_state_rejects_empty_set():
    with pytest.raises(ValueError):
        uniform_state(complete_graph(3), set())


# ---- coin ---------------------------------------------------------------------------------


def test_coin_inverts_about_average():
    g = complete_graph(4)
    psi = basis_arc_state(g, 0, 1)
    out = apply_coin(psi)
    assert_allclose(out.amplitude(0, 1), -1 / 3, atol=1e-15)
    assert_allclose(out.amplitude(0, 2), 2 / 3, atol=1e-15)
    assert_allclose(out.amplitude(0, 3), 2 / 3, atol=1e-15)


def test_coin_negates_zero_average_states():
    rng = np.random.default_rng(5)
    for g in ZOO:
        phi = random_flip_state(g, rng)
        out = apply_coin(phi)
        assert_allclose(out.amplitudes, -phi.amplitudes, atol=1e-12)


def test_coin_fixes_uniform_coin_state():
    g = hypercube_graph(3)
    psi = uniform_state(g, {2})
    out = apply_coin(psi)
    assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_coin_is_an_involution(seed):
    assert_coin_involution(random_state(ZOO[seed % len(ZOO)], np.random.default_rng(seed)))


# ---- shift --------------------------------------------------------------------------------


def test_shift_swaps_arc_directions():
    g = complete_graph(4)
    assert_allclose(
        apply_shift(basis_arc_state(g, 0, 1)).amplitudes,
        basis_arc_state(g, 1, 0).amplitudes,
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_shift_is_an_involution(seed):
    assert_shift_involution(random_state(ZOO[seed % len(ZOO)], np.random.default_rng(seed)))


def test_shift_fixes_symmetric_states():
    g = cycle_graph(5)
    amps = np.zeros(g.arc_count, dtype=complex)
    for u, v in g.edges:
        amps[g.arc_index(u, v)] = amps[g.arc_index(v, u)] = 0.3
    psi = ArcState(g, amps)
    assert np.array_equal(apply_shift(psi).amplitudes, psi.amplitudes)


# ---- one step and evolution ---------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 10, 100])
def test_single_step_reversed_arc_amplitude(n):
    g = complete_graph(n)
    stepped = walk_step(basis_arc_state(g, 0, 1))
    assert_allclose(stepped.amplitude(1, 0), -(n - 3) / (n - 1), atol=1e-14)


def test_uniform_state_is_stationary_on_non_bipartite():
    assert_uniform_state_stationary(complete_graph(5))


def test_evolve_zero_steps_returns_state():
    g = cycle_graph(4)
    psi = basis_arc_state(g, 0, 1)
    assert np.array_equal(evolve(psi, 0).amplitudes, psi.amplitudes)


def test_two_step_return_amplitude_on_k100():
    g = complete_graph(100)
    psi = basis_arc_state(g, 0, 1)
    value = abs(overlap(psi, evolve(psi, 2)))
    assert abs(value - 0.960004) <= 1e-6


def test_flip_states_step_to_their_flip():
    rng = np.random.default_rng(5)
    for g in ZOO:
        assert_flip_state_single_step(random_flip_state(g, rng))


def test_flip_states_have_period_two():
    rng = np.random.default_rng(6)
    for g in ZOO:
        phi = random_flip_state(g, rng)
        assert np.max(np.abs(evolve(phi, 2).amplitudes - phi.amplitudes)) <= 1e-10


def test_degenerate_single_edge_graph():
    # K_2 has degree 1, where the Grover reflection is the identity, so the
    # walk reduces to the bare flip-flop shift
    g = complete_graph(2)
    psi = basis_arc_state(g, 0, 1)
    assert_allclose(walk_step(psi).amplitudes, basis_arc_state(g, 1, 0).amplitudes)
    assert_allclose(evolve(psi, 2).amplitudes, psi.amplitudes)


def test_walk_preserves_norm():
    rng = np.random.default_rng(7)
    for g in ZOO + [random_regular_graph(10, 4, seed=1)]:
        assert_unitarity(random_state(g, rng))


def test_real_states_stay_real():
    psi = random_state(complete_graph(6), np.random.default_rng(8), real=True)
    assert_realness_preserved(psi, 9)


def test_bipartite_side_conservation():
    g = cycle_graph(6)
    part = bipartite_partition(g)
    rng = np.random.default_rng(9)
    amps = np.zeros(g.arc_count, dtype=complex)
    for x in part.partite_x:
        amps[g.out_arcs[x]] = rng.standard_normal(g.degree)
    psi = ArcState(g, amps / np.linalg.norm(amps))
    stepped = walk_step(psi)
    for x in part.partite_x:
        assert np.max(np.abs(stepped.amplitudes[g.out_arcs[x]])) < 1e-14


def test_dense_walk_matrix_matches_operator():
    rng = np.random.default_rng(10)
    for g in ZOO:
        psi = random_state(g, rng)
        matrix = dense_walk_matrix(g)
        assert_allclose(matrix @ psi.amplitudes, walk_step(psi).amplitudes, atol=1e-13)
        assert_allclose(matrix.T @ matrix, np.eye(g.arc_count), atol=1e-12)


# ---- flip transform and averages -----------------------------------------------------------


def test_flip_transform_of_basis_state():
    g = complete_graph(4)
    flipped = flip_transform(basis_arc_state(g, 0, 1))
    assert_allclose(flipped.amplitudes, -basis_arc_state(g, 1, 0).amplitudes)


def test_flip_transform_fixes_selfflip_states():
    g = complete_graph(5)
    amps = basis_arc_state(g, 0, 1).amplitudes - basis_arc_state(g, 1, 0).amplitudes
    psi = ArcState(g, amps / np.sqrt(2))
    assert is_selfflip_state(psi)
    assert_allclose(flip_transform(psi).amplitudes, psi.amplitudes)


def test_flip_transform_is_involution():
    rng = np.random.default_rng(11)
    g = hypercube_graph(3)
    psi = random_state(g, rng)
    assert np.array_equal(flip_transform(flip_transform(psi)).amplitudes, psi.amplitudes)


def test_vertex_averages():
    g = complete_graph(4)
    sigma = uniform_state(g)
    averages = vertex_averages(sigma)
    expected = 1 / np.sqrt(g.degree * g.n)
    assert_allclose(averages.avg_out, expected, atol=1e-15)
    assert_allclose(averages.avg_in, expected, atol=1e-15)

    psi = basis_arc_state(g, 0, 1)
    averages = vertex_averages(psi)
    assert_allclose(averages.avg_out[0], 1 / 3, atol=1e-15)
    assert np.max(np.abs(averages.avg_out[1:])) == 0.0

    phi = random_flip_state(g, np.random.default_rng(12))
    averages = vertex_averages(phi)
    assert np.max(np.abs(averages.avg_out)) <= 1e-12
    assert np.max(np.abs(averages.avg_in)) <= 1e-12


# ---- overlap and normalization gate ---------------------------------------------------------


def test_overlap_basics():
    g = complete_graph(4)
    psi = basis_arc_state(g, 0, 1)
    assert overlap(psi, psi) == 1.0 + 0j
    assert overlap(psi, basis_arc_state(g, 1, 0)) == 0.0 + 0j


def test_overlap_conjugates_first_argument():
    g = cycle_graph(4)
    a = ArcState(g, 1j * basis_arc_state(g, 0, 1).amplitudes)
    b = basis_arc_state(g, 0, 1)
    assert overlap(a, b) == pytest.approx(-1j)
    assert overlap(b, a) == pytest.approx(1j)


def test_overlap_of_uniform_sides_vanishes():
    assert_bipartite_alternation(cycle_graph(6))


def test_overlap_rejects_mismatched_graphs():
    with pytest.raises(ValueError):
        overlap(basis_arc_state(complete_graph(4), 0, 1), basis_arc_state(complete_graph(5), 0, 1))


def test_normalization_gate():
    g = complete_graph(4)
    almost = ArcState(g, basis_arc_state(g, 0, 1).amplitudes * (1 + 5e-10))
    assert abs(ensure_normalized(almost).norm() - 1.0) < 1e-15
    far = ArcState(g, basis_arc_state(g, 0, 1).amplitudes * 1.1)
    with pytest.raises(ValueError, match="norm"):
        ensure_normalized(far)
    with pytest.raises(ValueError, match="norm"):
        evolve(far, 1)


# ---- serialization ---------------------------------------------------------------------------


def test_state_csv_round_trip(tmp_path):
    g = hypercube_graph(3)
    psi = random_state(g, np.random.default_rng(13))
    path = tmp_path / "state.csv"
    write_state_csv(psi, str(path))
    loaded = read_state_csv(g, str(path))
    assert_allclose(loaded.amplitudes, psi.amplitudes, atol=0, rtol=0)


def test_state_csv_rejects_missing_arcs(tmp_path):
    g = cycle_graph(4)
    path = tmp_path / "bad.csv"
    path.write_text("arc_id,re,im\n0,1.0,0.0\n")
    with pytest.raises(ValueError, match="no amplitude"):
        read_state_csv(g, str(path))
