"""Decomposition, oscillation bounds, overlap series, and the dense
1-eigenspace oracle for the squared walk."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import flip_basis_nullspace, flip_projection_nullspace
from oscillwalk import (
    ArcState,
    CapacityError,
    basis_arc_state,
    bipartite_double,
    bipartite_partition,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    decompose,
    evolve,
    flip_projection,
    flip_transform,
    hypercube_graph,
    is_flip_state,
    is_selfflip_state,
    measured_overlaps,
    network_from_state_double,
    one_eigenspace_u2,
    oscillation_bounds,
    overlap,
    random_regular_graph,
    solve_network,
    torus_graph,
    uniform_coefficients,
    uniform_state,
    walk_step,
)
from oscillwalk.verify import (
    assert_decomposition,
    assert_flip_projection_maximal,
    assert_oscillatory_subspace,
    assert_overlap_bounds,
    random_flip_state,
    random_state,
)


def selfflip_edge_state(g, u, v):
    amps = basis_arc_state(g, u, v).amplitudes - basis_arc_state(g, v, u).amplitudes
    return ArcState(g, amps / np.sqrt(2))


def alternating_cycle_state(g):
    """+1/sqrt(2n) along the (i, i+1) arcs, -1/sqrt(2n) along the reverses."""
    amps = np.zeros(g.arc_count, dtype=complex)
    scale = 1 / np.sqrt(g.arc_count)
    for i in range(g.n):
        amps[g.arc_index(i, (i + 1) % g.n)] = scale
        amps[g.arc_index((i + 1) % g.n, i)] = -scale
    return ArcState(g, amps)


# ---- flip-state predicate ------------------------------------------------------------


def test_alternating_cycle_state_is_flip():
    state = alternating_cycle_state(cycle_graph(4))
    assert is_flip_state(state, 1e-12)


def test_uniform_and_basis_states_are_not_flip():
    g = complete_graph(4)
    assert not is_flip_state(uniform_state(g), 1e-9)
    assert not is_flip_state(basis_arc_state(g, 0, 1), 1e-9)


def test_flip_predicate_requires_positive_tolerance():
    with pytest.raises(ValueError):
        is_flip_state(uniform_state(complete_graph(3)), 0.0)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_flip_predicates_reject_bad_tolerances(bad):
    # NaN compares false with everything and once passed the positivity check
    psi = uniform_state(complete_graph(3))
    with pytest.raises(ValueError, match="tolerance"):
        is_flip_state(psi, bad)
    with pytest.raises(ValueError, match="tolerance"):
        is_selfflip_state(psi, bad)


# ---- flip projection -------------------------------------------------------------------


def test_flip_projection_on_k4_single_edge():
    g = complete_graph(4)
    psi = basis_arc_state(g, 0, 1)
    alpha_sq, component = flip_projection(psi)
    assert abs(alpha_sq - 5 / 12) <= 1e-10
    assert is_flip_state(component, 1e-9)
    # independent nullspace-basis oracle agrees
    assert abs(alpha_sq - flip_projection_nullspace(g, psi)) <= 1e-10


@pytest.mark.parametrize(
    "g",
    [complete_graph(5), cycle_graph(6), hypercube_graph(3), complete_bipartite_graph(3)],
    ids=lambda g: g.name,
)
def test_flip_projection_matches_nullspace_oracle(g):
    rng = np.random.default_rng(21)
    for _ in range(3):
        psi = random_state(g, rng)
        alpha_sq, component = flip_projection(psi)
        assert abs(alpha_sq - flip_projection_nullspace(g, psi)) <= 1e-10
        assert is_flip_state(component, 1e-9)


def test_flip_projection_extremes():
    g = hypercube_graph(3)
    phi = random_flip_state(g, np.random.default_rng(22))
    alpha_sq, _ = flip_projection(phi)
    assert abs(alpha_sq - 1.0) <= 1e-12
    alpha_sq, _ = flip_projection(uniform_state(g))
    assert alpha_sq <= 1e-12


def test_flip_projection_of_edge_state_on_large_torus():
    # 40k arcs: one Kirchhoff solve on the double, no arcs x 2n basis
    g = torus_graph(2, 100)
    psi = basis_arc_state(g, 0, 1)
    dn = g.degree * g.n
    alpha_sq = decompose(psi).alpha_sq
    assert abs(alpha_sq - (dn - 2 * g.n + 2) / dn) <= 1e-10
    power = solve_network(network_from_state_double(psi)).power
    assert abs(alpha_sq - 1 / (1 + power)) <= 1e-10


def test_indicator_basis_dimension():
    # span dimension is 2n minus one dependency per double-graph component
    for g, expected in [
        (complete_graph(5), 2 * 5 - 1),
        (cycle_graph(6), 2 * 6 - 2),
        (hypercube_graph(3), 2 * 8 - 2),
    ]:
        assert expected == 2 * g.n - bipartite_double(g).num_components
        # complement dimension matches the independent nullspace basis
        assert flip_basis_nullspace(g).shape[1] == g.arc_count - expected


# ---- uniform coefficients ---------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 7, 10])
def test_uniform_coefficient_of_single_edge_state(n):
    g = complete_graph(n)
    beta_sq, component = uniform_coefficients(basis_arc_state(g, 0, 1))
    assert abs(beta_sq - 1 / (n * (n - 1))) <= 1e-12
    assert abs(np.linalg.norm(component.amplitudes) ** 2 - beta_sq) <= 1e-12


def test_uniform_coefficient_on_bipartite_graph():
    g = hypercube_graph(3)
    beta_sq, _ = uniform_coefficients(basis_arc_state(g, 0, 1))
    assert abs(beta_sq - 1 / 12) <= 1e-12


def test_uniform_coefficient_extremes():
    g = complete_graph(5)
    beta_sq, _ = uniform_coefficients(uniform_state(g))
    assert abs(beta_sq - 1.0) <= 1e-12
    beta_sq, _ = uniform_coefficients(random_flip_state(g, np.random.default_rng(23)))
    assert beta_sq <= 1e-12


# ---- decomposition -----------------------------------------------------------------------


def test_decompose_k4_single_edge():
    dec = decompose(basis_arc_state(complete_graph(4), 0, 1))
    assert abs(dec.alpha_sq - 5 / 12) <= 1e-10
    assert abs(dec.beta_sq - 1 / 12) <= 1e-10
    assert abs(dec.gamma_sq - 1 / 2) <= 1e-10


def test_decompose_pure_components():
    g = complete_graph(5)
    dec = decompose(random_flip_state(g, np.random.default_rng(24)))
    assert abs(dec.alpha_sq - 1.0) <= 1e-10 and dec.beta_sq <= 1e-12
    dec = decompose(uniform_state(g))
    assert abs(dec.beta_sq - 1.0) <= 1e-10 and dec.alpha_sq <= 1e-12


@pytest.mark.parametrize(
    "g",
    [complete_graph(6), cycle_graph(5), hypercube_graph(3), complete_bipartite_graph(3)],
    ids=lambda g: g.name,
)
def test_decomposition_invariants(g):
    rng = np.random.default_rng(25)
    for _ in range(5):
        assert_decomposition(random_state(g, rng))


# ---- bounds ------------------------------------------------------------------------------


@pytest.mark.parametrize("n", [5, 8, 16])
def test_bounds_on_complete_graph_single_edge(n):
    report = oscillation_bounds(decompose(basis_arc_state(complete_graph(n), 0, 1)))
    assert abs(report.even_bound - (1 - 4 / n)) <= 1e-10
    assert abs(report.odd_bound - (1 - 2 / (n - 1) - 2 / n)) <= 1e-10


def test_bounds_of_pure_flip_state():
    report = oscillation_bounds(decompose(random_flip_state(complete_graph(5), np.random.default_rng(26))))
    assert abs(report.even_bound - 1.0) <= 1e-9
    assert abs(report.odd_bound - 1.0) <= 1e-9


def test_negative_bounds_are_reported_not_clamped():
    report = oscillation_bounds(decompose(basis_arc_state(cycle_graph(6), 0, 1)))
    assert report.even_bound == pytest.approx(-1 / 3, abs=1e-10)
    assert report.even_vacuous and report.odd_vacuous


# ---- measured overlaps -------------------------------------------------------------------


def test_odd_overlaps_on_k100_single_edge():
    g = complete_graph(100)
    series = measured_overlaps(basis_arc_state(g, 0, 1), 20)
    assert_allclose(series.odd_overlaps, 97 / 99, atol=1e-9)


def test_flip_state_overlaps_stay_at_one():
    phi = random_flip_state(hypercube_graph(3), np.random.default_rng(27))
    series = measured_overlaps(phi, 12)
    assert_allclose(series.even_overlaps, 1.0, atol=1e-10)
    assert_allclose(series.odd_overlaps, 1.0, atol=1e-10)


@pytest.mark.parametrize(
    "g",
    [complete_graph(8), hypercube_graph(3), cycle_graph(8), random_regular_graph(10, 4, seed=2)],
    ids=lambda g: g.name,
)
def test_measured_overlaps_respect_bounds(g):
    rng = np.random.default_rng(28)
    for _ in range(5):
        assert_overlap_bounds(random_state(g, rng), 50)


def test_flip_projection_is_maximal_over_flip_states():
    rng = np.random.default_rng(29)
    assert_flip_projection_maximal(random_state(complete_graph(5), rng), rng, 100)


def test_selfflip_state_oscillation_is_stationarity():
    g = complete_graph(6)
    psi = selfflip_edge_state(g, 0, 1)
    assert np.max(np.abs(flip_transform(psi).amplitudes - psi.amplitudes)) == 0.0
    series = measured_overlaps(psi, 15)
    current = psi
    direct = []
    for t in range(1, 16):
        current = walk_step(current)
        if t % 2 == 1:
            direct.append(abs(overlap(psi, current)))
    assert_allclose(series.odd_overlaps, direct, atol=1e-9)


def test_measured_overlaps_needs_positive_horizon():
    with pytest.raises(ValueError):
        measured_overlaps(uniform_state(complete_graph(4)), 0)


# ---- dense 1-eigenspace oracle --------------------------------------------------------------


def test_eigenspace_contains_uniform_state():
    g = complete_graph(3)
    basis = one_eigenspace_u2(g)
    sigma = uniform_state(g).amplitudes.real
    assert np.linalg.norm(basis @ (basis.T @ sigma) - sigma) <= 1e-9


def test_eigenspace_of_four_cycle():
    g = cycle_graph(4)
    basis = one_eigenspace_u2(g)
    assert basis.shape[1] == 4
    part = bipartite_partition(g)
    members = [
        uniform_state(g, part.partite_x).amplitudes.real,
        uniform_state(g, part.partite_y).amplitudes.real,
        alternating_cycle_state(g).amplitudes.real,
        flip_transform(alternating_cycle_state(g)).amplitudes.real,
    ]
    for vec in members:
        assert np.linalg.norm(basis @ (basis.T @ vec) - vec) <= 1e-9


def test_eigenspace_vectors_decompose_cleanly():
    for g in (complete_graph(4), cycle_graph(5), hypercube_graph(3)):
        basis = one_eigenspace_u2(g)
        for column in basis.T:
            dec = decompose(ArcState(g, column.astype(complex)))
            assert dec.gamma_sq <= 1e-9


def test_eigenspace_vectors_have_period_two():
    g = cycle_graph(6)
    basis = one_eigenspace_u2(g)
    for column in basis.T:
        state = ArcState(g, column.astype(complex))
        assert np.max(np.abs(evolve(state, 2).amplitudes - state.amplitudes)) <= 1e-9


@pytest.mark.parametrize(
    "g",
    [complete_graph(4), complete_graph(5), cycle_graph(4), cycle_graph(7),
     hypercube_graph(3), complete_bipartite_graph(3)],
    ids=lambda g: g.name,
)
def test_projector_equality_flip_plus_uniform(g):
    assert_oscillatory_subspace(g)


def test_eigenspace_dimension_formula():
    # dim = cycle space of the double (2m - 2n + components) + uniform count
    for g in (complete_graph(5), cycle_graph(6), hypercube_graph(3)):
        bipartite = bipartite_partition(g) is not None
        components = 2 if bipartite else 1
        uniform_count = 2 if bipartite else 1
        expected = g.arc_count - 2 * g.n + components + uniform_count
        assert one_eigenspace_u2(g).shape[1] == expected


def test_capacity_ceiling():
    with pytest.raises(CapacityError):
        one_eigenspace_u2(complete_graph(8), ceiling=10)
