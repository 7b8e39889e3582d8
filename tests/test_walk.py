"""Walk operators: coin, shift, evolution, flip transform, averages."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oscillwalk import (
    ArcState,
    Graph,
    GraphError,
    apply_coin,
    apply_shift,
    basis_arc_state,
    bipartite_partition,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dense_walk_matrix,
    ensure_normalized,
    evolve,
    flip_transform,
    hypercube_graph,
    is_selfflip_state,
    measured_overlaps,
    overlap,
    random_regular_graph,
    read_state_csv,
    torus_graph,
    uniform_state,
    vertex_averages,
    walk_step,
    write_state_csv,
)
from oscillwalk import walk
from oscillwalk.complete import amp_ab, amp_ba
from oscillwalk.walk import UNIT_NORM_SLACK
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


def test_state_accepts_strided_amplitudes_and_rejects_nan_in_them():
    g = complete_graph(4)
    assert ArcState(g, np.zeros(24, dtype=complex)[::2]).norm() == 0.0
    assert ArcState(g, np.arange(12, dtype=complex)[::-1]).amplitudes[0] == 11
    amps = np.zeros(24, dtype=complex)
    amps[6] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="finite"):
        ArcState(g, amps[::2])


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


def test_uniform_state_rejects_non_integer_vertex_ids():
    # Cast to int64, 0.5 would be vertex 0.
    g = complete_graph(4)
    for bad in ([0.5], np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match=r"^vertex id (0\.5|nan) is not an integer$"):
            uniform_state(g, bad)
    expected = uniform_state(g, [0, 2]).amplitudes
    assert np.array_equal(uniform_state(g, np.array([0.0, 2.0])).amplitudes, expected)
    # Cast to int64, this mask would be the vertices 0 and 1.
    mask = np.array([True, False, True, False])
    with pytest.raises(ValueError, match=r"^vertex ids must be integers, not booleans$"):
        uniform_state(g, mask)
    assert np.array_equal(uniform_state(g, np.flatnonzero(mask)).amplitudes, expected)


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


def test_shift_and_flip_swap_arc_pairs_exactly():
    rng = np.random.default_rng(13)
    for g in ZOO + [complete_graph(2)]:
        psi = random_state(g, rng)
        reverse = np.arange(g.arc_count) ^ 1
        shifted = apply_shift(psi).amplitudes
        flipped = flip_transform(psi).amplitudes
        assert np.array_equal(shifted, psi.amplitudes[reverse])
        assert np.array_equal(flipped, -psi.amplitudes[reverse])
        assert not np.shares_memory(shifted, psi.amplitudes)
        assert not np.shares_memory(flipped, psi.amplitudes)


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


@pytest.mark.parametrize(
    "g", [complete_graph(5), hypercube_graph(3), cycle_graph(6)], ids=lambda g: g.name
)
def test_dense_walk_matrix_matches_per_vertex_loop(g):
    coin = -np.eye(g.arc_count)
    for u in range(g.n):
        coin[np.ix_(g.out_arcs[u], g.out_arcs[u])] += 2.0 / g.degree
    expected = coin[np.arange(g.arc_count) ^ 1, :]
    assert np.array_equal(dense_walk_matrix(g), expected)


def test_dense_walk_matrix_matches_operator():
    rng = np.random.default_rng(10)
    for g in ZOO:
        psi = random_state(g, rng)
        matrix = dense_walk_matrix(g)
        assert_allclose(matrix @ psi.amplitudes, walk_step(psi).amplitudes, atol=1e-13)
        assert_allclose(matrix.T @ matrix, np.eye(g.arc_count), atol=1e-12)


# ---- many steps: the vertex-mean stepper behind evolve and measured_overlaps ---------------


def stepper_states(g, rng):
    u, v = (int(x) for x in g.edges[0])
    selfflip = basis_arc_state(g, u, v).amplitudes - basis_arc_state(g, v, u).amplitudes
    return {
        "edge": basis_arc_state(g, u, v),
        "selfflip": ArcState(g, selfflip / np.sqrt(2)),
        "uniform": uniform_state(g),
        "random": random_state(g, rng),
    }


def stepped_overlaps(psi, t_max):
    """|<psi|U^t psi>| at even t and |<~psi|U^t psi>| at odd t, one walk_step at a time."""
    flipped = flip_transform(psi)
    current, series = psi, [abs(overlap(psi, psi))]
    for t in range(1, t_max + 1):
        current = walk_step(current)
        series.append(abs(overlap(flipped if t % 2 else psi, current)))
    return np.array(series)


def assert_stepper_matches(psi, steps, check_every):
    """measured_overlaps and evolve against a walk_step loop and against
    matrix powers of the dense walk, to 1e-12, leaving the input untouched.
    The dense power is carried from checkpoint to checkpoint: U^check_every
    is computed once, and an explicit power bridges only the final partial
    gap."""
    g = psi.graph
    before = psi.amplitudes.copy()
    series = measured_overlaps(psi, steps)
    assert series.even_overlaps.shape == ((steps + 2) // 2,)
    assert series.odd_overlaps.shape == ((steps + 1) // 2,)
    reference = stepped_overlaps(psi, steps)
    assert np.max(np.abs(series.even_overlaps - reference[0::2])) <= 1e-12
    assert np.max(np.abs(series.odd_overlaps - reference[1::2])) <= 1e-12
    matrix = dense_walk_matrix(g)
    power = np.linalg.matrix_power(matrix, check_every)
    flipped = flip_transform(psi).amplitudes
    current, powered, checked = psi, psi.amplitudes, 0
    for t in range(steps + 1):
        if t % check_every == 0 or t == steps:
            evolved = evolve(psi, t).amplitudes
            if t - checked == check_every:
                powered = power @ powered
            elif t > checked:
                powered = np.linalg.matrix_power(matrix, t - checked) @ powered
            checked = t
            assert np.max(np.abs(evolved - current.amplitudes)) <= 1e-12
            assert np.max(np.abs(evolved - powered)) <= 1e-12
            target = flipped if t % 2 else psi.amplitudes
            measured = series.odd_overlaps[t // 2] if t % 2 else series.even_overlaps[t // 2]
            assert abs(measured - abs(np.vdot(target, powered))) <= 1e-12
        current = walk_step(current)
    assert np.array_equal(psi.amplitudes, before)


@pytest.mark.parametrize(
    "g", ZOO + [complete_graph(2), cycle_graph(7)], ids=lambda g: g.name
)
def test_stepper_matches_single_steps_and_matrix_powers(g):
    # complete:2 has degree 1: out_arcs.T is C-ordered, a read-only view unless copied
    for psi in stepper_states(g, np.random.default_rng(12)).values():
        assert_stepper_matches(psi, 13, 1)


@pytest.mark.parametrize(
    "g",
    # the edge starts on the cycles walk windows of their light cone for
    # about 100 and 250 steps, then all of the cycle
    [complete_graph(12), torus_graph(2, 5), cycle_graph(401), cycle_graph(999)],
    ids=lambda g: g.name,
)
def test_stepper_over_a_thousand_steps(g):
    states = stepper_states(g, np.random.default_rng(14))
    for kind in ("edge", "random"):
        assert_stepper_matches(states[kind], 1000, 250)


BLOCK = walk._CONE_BLOCK


@pytest.mark.parametrize(
    "t_max", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1]
)
def test_sweeps_ending_around_a_window_boundary(t_max):
    # An edge start on cycle 401 reaches 2 t + 1 vertices in t steps, so its
    # walk changes windows every BLOCK steps up to about step 100.
    states = stepper_states(cycle_graph(401), np.random.default_rng(19))
    for kind in ("edge", "selfflip"):
        assert_stepper_matches(states[kind], t_max, BLOCK // 2)


def test_a_cone_over_two_windows_matches_single_steps():
    # On torus 2:61 (3721 vertices) the cone of an edge or vertex start
    # takes one window, then all of the torus: the ball of radius 2 BLOCK
    # holds more than half the vertices.
    g = torus_graph(2, 61)
    c = 30 * 61 + 30
    starts = [basis_arc_state(g, 0, 1), basis_arc_state(g, c, c + 61),
              ArcState(g, np.exp(0.7j) * uniform_state(g, [c]).amplitudes)]
    for psi in starts:
        series = measured_overlaps(psi, 40)
        reference = stepped_overlaps(psi, 40)
        assert np.max(np.abs(series.even_overlaps - reference[0::2])) <= 1e-12
        assert np.max(np.abs(series.odd_overlaps - reference[1::2])) <= 1e-12
        current = psi
        for t in range(41):
            assert np.max(np.abs(evolve(psi, t).amplitudes - current.amplitudes)) <= 1e-12
            current = walk_step(current)


def test_windows_step_bit_for_bit_like_the_full_graph(monkeypatch):
    """Inside a window the vertex means, and so the amplitudes, are the full
    walk's, bit for bit, and 0 outside it: the same table rows summed in the
    same order, with a zero sink where a neighbour leaves the window.  That
    holds at every step while no walk re-imposes its conserved sums, and up
    to step BLOCK of evolve when they do, which only windows of whole
    components can; past it the two agree to rounding."""
    cases = []
    for g in (cycle_graph(401), torus_graph(2, 41)):
        u, v = (int(x) for x in g.edges[len(g.edges) // 2])
        rng = np.random.default_rng(20)
        local = np.zeros(g.arc_count, dtype=complex)
        local[g.out_arcs[[u, v]].ravel()] = rng.standard_normal(2 * g.degree) + 1j
        cases += [basis_arc_state(g, u, v), ArcState(g, local / np.linalg.norm(local))]
    steps = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 5 * BLOCK, 150)

    def walks():
        return [[evolve(psi, t).amplitudes for t in steps] for psi in cases]

    windowed = walks()
    with monkeypatch.context() as patch:
        patch.setattr(walk, "_drift_terms", lambda g, verts: None)  # no walk re-imposes sums
        plain = walks()
        patch.setattr(walk, "_CONE_SHARE", 0.0)  # every walk takes all of g at once
        plain_full = walks()
    monkeypatch.setattr(walk, "_CONE_SHARE", 0.0)
    full = walks()
    for case in zip(windowed, plain, plain_full, full):
        for t, state, plain_state, plain_full_state, full_state in zip(steps, *case):
            assert np.array_equal(plain_state.view(np.int64), plain_full_state.view(np.int64))
            if t <= BLOCK:
                assert np.array_equal(state.view(np.int64), full_state.view(np.int64))
            assert np.max(np.abs(state - full_state)) <= 1e-14


TWO_CYCLES = Graph(802, np.vstack([cycle_graph(401).edges, cycle_graph(401).edges + 401]),
                   require_connected=False, name="two cycles")


def test_a_disconnected_graph_keeps_the_other_component_at_zero():
    g = TWO_CYCLES
    psi = basis_arc_state(g, 7, 8)
    for t in (1, BLOCK, 150, 300):
        amps = evolve(psi, t).amplitudes
        assert not amps[g.out_arcs[401:]].any()
        assert abs(np.linalg.norm(amps) - 1.0) <= 1e-12
    series = measured_overlaps(psi, 300)
    reference = stepped_overlaps(psi, 300)
    assert np.max(np.abs(series.even_overlaps - reference[0::2])) <= 1e-12
    assert np.max(np.abs(series.odd_overlaps - reference[1::2])) <= 1e-12


def test_a_ball_that_fills_its_component_stays_the_window():
    # cycle n holds less than half of the n + 401 vertices: the cone of a
    # start on it stops growing at about step n / 2 and walks that window on.
    # From vertex 3 of cycle 97 the ball fills the cycle at step 48, the last
    # layer of a window, so the windows from steps 32 and 48 both hold it.
    for n in (101, 97):
        mixed = np.vstack([cycle_graph(n).edges, cycle_graph(401).edges + n])
        g = Graph(n + 401, mixed, require_connected=False, name=f"cycles {n} and 401")
        psi = basis_arc_state(g, 3, 4)
        series = measured_overlaps(psi, 200)
        reference = stepped_overlaps(psi, 200)
        assert np.max(np.abs(series.even_overlaps - reference[0::2])) <= 1e-12
        assert np.max(np.abs(series.odd_overlaps - reference[1::2])) <= 1e-12
        current = psi
        for t in range(201):
            if t % 25 == 0:
                amps = evolve(psi, t).amplitudes
                assert not amps[g.out_arcs[n:]].any()
                assert np.max(np.abs(amps - current.amplitudes)) <= 1e-12
            current = walk_step(current)


def test_translated_edge_starts_give_the_same_overlaps():
    # Vertex 0's cone wraps the vertex numbering of torus 2:41; the edge one
    # step up the same axis from the centre (20, 20) is its translate.
    g = torus_graph(2, 41)
    c = 20 + 41 * 20
    corner = measured_overlaps(basis_arc_state(g, 0, 1), 30)
    centre = measured_overlaps(basis_arc_state(g, c, c + 1), 30)
    assert np.max(np.abs(corner.even_overlaps - centre.even_overlaps)) <= 1e-14
    assert np.max(np.abs(corner.odd_overlaps - centre.odd_overlaps)) <= 1e-14


STEPPER_GRAPHS = ZOO + [complete_graph(2), cycle_graph(7)]


@pytest.mark.parametrize("g", STEPPER_GRAPHS, ids=lambda g: g.name)
def test_real_starts_overlap_like_their_complex_turns(g):
    """A real start walks in float64; turned by a phase it walks in complex128
    and must give the same overlaps."""
    states = stepper_states(g, np.random.default_rng(15))
    for kind in ("edge", "selfflip", "uniform"):
        psi = states[kind]
        turned = ArcState(g, np.exp(0.9j) * psi.amplitudes)
        real, complex_ = measured_overlaps(psi, 40), measured_overlaps(turned, 40)
        assert np.max(np.abs(real.even_overlaps - complex_.even_overlaps)) <= 1e-12
        assert np.max(np.abs(real.odd_overlaps - complex_.odd_overlaps)) <= 1e-12


@pytest.mark.parametrize("g", STEPPER_GRAPHS + [TWO_CYCLES], ids=lambda g: g.name)
def test_vertex_means_follow_single_steps(g):
    """The stepper's recurrence mu_(t+1) = (2/d) A mu_t - mu_(t-1) from
    mu_-1 = iota_0 gives the out-means of walk_step^t psi for t <= 20, past
    the first step at which a whole window re-imposes its conserved sums
    (complete:2 has degree 1)."""
    for psi in stepper_states(g, np.random.default_rng(21)).values():
        current = psi
        for t in range(21):
            verts, _, rows, _ = walk._mean_walk(psi, t + 1)
            means = np.zeros((2, g.n), dtype=rows.dtype)
            means[:, slice(None) if verts is None else verts] = rows[[t % 2, 1 - t % 2], :-1]
            assert np.max(np.abs(means[0] - vertex_averages(current).avg_out)) <= 1e-13
            if t == 0:
                assert np.max(np.abs(means[1] - vertex_averages(psi).avg_in)) <= 1e-13
            current = walk_step(current)


@pytest.mark.parametrize("g", STEPPER_GRAPHS + [TWO_CYCLES], ids=lambda g: g.name)
def test_column_blocks_step_bit_for_bit(g, monkeypatch):
    """A step in column blocks of three columns or fewer sums each mean over
    the same table rows in the same order as a step through the whole table:
    overlaps and states bit for bit, for real and complex starts, in cone
    windows (whose sink falls inside a block on the two cycles) and in whole
    ones, past two re-impositions of the conserved sums."""
    rng = np.random.default_rng(22)
    u, v = (int(x) for x in g.edges[0])
    edge = basis_arc_state(g, u, v)
    starts = [edge, ArcState(g, np.exp(0.4j) * edge.amplitudes),
              random_state(g, rng), random_state(g, rng, real=True)]
    times = (1, 2, 17, 33, 34)

    def walks():
        series = [measured_overlaps(psi, t_max) for psi in starts for t_max in (33, 34)]
        return ([np.concatenate([s.even_overlaps, s.odd_overlaps]) for s in series]
                + [evolve(psi, t).amplitudes for psi in starts for t in times])

    whole = walks()
    split = []
    window = walk._window

    def spy(g, inside, verts, itemsize):
        tables, cuts, covered = window(g, inside, verts, itemsize)
        split.append(([table.shape[1] for table in tables],
                      any((table == cuts[-1]).any() for table in tables[:-1])))
        return tables, cuts, covered

    monkeypatch.setattr(walk, "_GATHER_BYTES", 1)
    monkeypatch.setattr(walk, "_window", spy)
    blocked = walks()
    # a window of three vertices or fewer is one block
    assert all(len(widths) > 1 for widths, _ in split if sum(widths) > 3)
    if g.n not in (2, 6):  # cycle:6 splits into two blocks of three
        assert any(len(set(widths)) > 1 for widths, _ in split)
    if g is TWO_CYCLES:
        assert any(sink_inside for _, sink_inside in split)
    for before, after in zip(whole, blocked, strict=True):
        assert np.array_equal(before.view(np.int64), after.view(np.int64))


DRIFT_STEPS = 30_000


def test_long_sweeps_keep_the_complete_graph_edge_overlaps():
    """At the eigenvalues 1 and -1 of A/d the recurrence is a Jordan block, so
    rounding drifts the means off their conserved sums and the overlap error
    grows like t^2 unless a whole window re-imposes them: 2e-10 from K_12's
    closed form at 30,000 steps without, 4e-12 with (the closed form's own
    rounding of cos(theta t))."""
    n = 12
    series = measured_overlaps(basis_arc_state(complete_graph(n), 0, 1), DRIFT_STEPS)
    even = [abs(amp_ab(n, t)) for t in range(0, DRIFT_STEPS + 1, 2)]
    odd = [abs(amp_ba(n, t)) for t in range(1, DRIFT_STEPS + 1, 2)]
    assert np.max(np.abs(series.even_overlaps - even)) <= 2e-11
    assert np.max(np.abs(series.odd_overlaps - odd)) <= 2e-11


@pytest.mark.parametrize(
    "g", [hypercube_graph(6), complete_bipartite_graph(4)], ids=lambda g: g.name
)
def test_long_sweeps_match_dense_matrix_powers(g):
    """Random complex starts on two bipartite graphs at 30,000 steps: overlaps
    and states within 2e-11 of dense matrix powers, where the uncorrected
    recurrence strays by 3e-11 to 8e-10."""
    psi = random_state(g, np.random.default_rng(5))
    series = measured_overlaps(psi, DRIFT_STEPS)
    matrix = dense_walk_matrix(g)
    flipped = flip_transform(psi).amplitudes
    x = np.linalg.matrix_power(matrix, DRIFT_STEPS - 1) @ psi.amplitudes
    for t in (DRIFT_STEPS - 1, DRIFT_STEPS):
        target = flipped if t % 2 else psi.amplitudes
        measured = series.odd_overlaps[t // 2] if t % 2 else series.even_overlaps[t // 2]
        assert abs(measured - abs(np.vdot(target, x))) <= 2e-11
        assert np.max(np.abs(evolve(psi, t).amplitudes - x)) <= 2e-11
        x = matrix @ x


@pytest.mark.parametrize("t_max", [1, 2, 3])
@pytest.mark.parametrize("g", STEPPER_GRAPHS, ids=lambda g: g.name)
def test_short_sweeps_end_on_either_parity(g, t_max):
    for psi in stepper_states(g, np.random.default_rng(16)).values():
        assert_stepper_matches(psi, t_max, 1)


@pytest.mark.parametrize("g", STEPPER_GRAPHS, ids=lambda g: g.name)
def test_evolve_returns_complex_states_and_keeps_its_input(g):
    rng = np.random.default_rng(17)
    for psi in [*stepper_states(g, rng).values(), random_state(g, rng, real=True)]:
        before = psi.amplitudes.copy()
        for t in (0, 1, 4, 9):
            evolved = evolve(psi, t)
            assert isinstance(evolved, ArcState) and evolved.graph is g
            assert evolved.amplitudes.dtype == np.complex128
            assert not np.shares_memory(evolved.amplitudes, psi.amplitudes)
            assert np.array_equal(psi.amplitudes, before)
    # The float64 walk of a real start is the complex walk's arithmetic on
    # one component: i psi carries it bit for bit in its imaginary part.
    real = random_state(g, rng, real=True)
    for t in (1, 2, 9):
        turned = evolve(ArcState(g, 1j * real.amplitudes), t).amplitudes
        assert np.array_equal(turned.imag, evolve(real, t).amplitudes.real)


def test_measured_overlaps_of_an_edge_start_keep_to_its_light_cone():
    """In 20 steps an edge start on torus 2:300 reaches under 900 of the
    90,000 vertices: the sweep peaks below one float64 vector over the arcs
    (8 B per arc), where a walk over every arc keeps about 48."""
    g = torus_graph(2, 300)
    psi = basis_arc_state(g, 0, 1)
    tracemalloc.start()
    try:
        measured_overlaps(psi, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.arc_count


def test_measured_overlaps_keep_to_a_few_state_vectors():
    """The start's arcs gathered for its vertex sums, the (d, n) neighbour
    table, the gather block and four rows of vertex values: below three
    complex state vectors at the peak on torus 2:100, whose complex gather
    of 625 KiB is one block (2.76 measured; the arc walk it replaced kept
    5.5).  On torus 2:150 the 1.4 MB gather takes three column blocks of
    0.48 MB and no whole gather block is held: below 2.6 (2.50 measured,
    2.75 with the whole block)."""
    for k, vectors in ((100, 3), (150, 2.6)):
        g = torus_graph(2, k)
        psi = random_state(g, np.random.default_rng(18))
        tracemalloc.start()
        try:
            measured_overlaps(psi, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < vectors * 16 * g.arc_count


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


def test_norm_within_a_few_ulp_is_not_copied():
    g = complete_graph(6)
    psi = random_state(g, np.random.default_rng(40))
    assert psi.norm() != 1.0 and abs(psi.norm() - 1.0) <= UNIT_NORM_SLACK
    assert ensure_normalized(psi) is psi
    off = ArcState(g, psi.amplitudes * (1 + 1e-12))
    copied = ensure_normalized(off)
    assert copied is not off and abs(copied.norm() - 1.0) <= UNIT_NORM_SLACK


def test_measured_overlaps_peak_holds_no_renormalized_copy():
    # On torus 2:100 (40,000 arcs) a complex state normalized to the last
    # ulp walks without the copy that a norm off by 1e-12 still costs: the
    # tracemalloc peak of measured_overlaps differs by one state vector.
    g = torus_graph(2, 100)
    psi = random_state(g, np.random.default_rng(41))
    assert psi.norm() != 1.0
    peaks = []
    for state in (psi, ArcState(g, psi.amplitudes * (1 + 1e-12))):
        tracemalloc.start()
        measured_overlaps(state, 4)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    vector = psi.amplitudes.nbytes
    assert abs(peaks[1] - peaks[0] - vector) <= 0.05 * vector


def test_unit_norm_slack_holds_under_one_blas_thread():
    # The benchmark pins OpenBLAS to one thread, which sums the squared
    # moduli of torus 2:100's 40,000 arcs in another order than two threads
    # do: the state above reads 1 + 5 eps there, against 1 + eps with two.
    # It must still pass ensure_normalized uncopied.
    script = (
        "import numpy as np\n"
        "from oscillwalk import ensure_normalized, torus_graph\n"
        "from oscillwalk.verify import random_state\n"
        "psi = random_state(torus_graph(2, 100), np.random.default_rng(41))\n"
        "assert psi.norm() != 1.0\n"
        "assert ensure_normalized(psi) is psi\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr


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
