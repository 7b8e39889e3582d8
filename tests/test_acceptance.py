"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

The frozen table below is the canonical reference for the single-edge walk
on the complete graph; its rows carry a size-16 caption but are reproduced
by the closed forms at n = 100 (the discrepancy is asserted explicitly and
flagged in the CLI metadata).
"""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oscillwalk import (
    ArcState,
    amp_ab,
    amp_ba,
    basis_arc_state,
    bipartite_double,
    bipartite_partition,
    bounds_from_power,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edge_disjoint_paths,
    flip_projection,
    hypercube_graph,
    localization_verdict,
    network_from_selfflip_state,
    network_from_state_double,
    paths_resistance_bound,
    random_regular_graph,
    resistance_distance,
    solve_network,
    torus_graph,
)
from oscillwalk.cli import main as cli_main
from oscillwalk.electric import CERTIFIED
from oscillwalk.verify import (
    assert_closed_forms_match_simulation,
    assert_disjoint_paths_bound,
    assert_edge_transitive_resistance,
    assert_oscillatory_subspace,
    assert_overlap_bounds,
    assert_thomson,
    random_state,
)

# Reference single-edge oscillation table: (t, prob_ab, prob_ba, amp_ab, amp_ba).
FROZEN_TABLE = (
    (0, 1.0, 0.0, 1.0, 0.0),
    (1, 0.0, 0.960004, 0.0, -0.979798),
    (2, 0.921608, 0.0, 0.960004, 0.0),
    (3, 6.52861e-7, 0.960004, 0.000807998, -0.979798),
    (4, 0.999967, 0.0, 0.999984, 0.0),
    (5, 6.52329e-7, 0.960004, -0.000807669, -0.979798),
    (6, 0.921671, 0.0, 0.960037, 0.0),
    (7, 2.60825e-6, 0.960004, 0.00161501, -0.979798),
    (8, 0.999869, 0.0, 0.999935, 0.0),
    (9, 2.60399e-6, 0.960004, -0.00161369, -0.979798),
    (10, 0.921796, 0.0, 0.960102, 0.0),
    (11, 5.855e-6, 0.960004, 0.00241971, -0.979798),
    (12, 0.999707, 0.0, 0.999853, 0.0),
    (13, 5.84066e-6, 0.960004, -0.00241675, -0.979798),
    (14, 0.921983, 0.0, 0.9602, 0.0),
    (15, 1.03735e-5, 0.960004, 0.00322079, -0.979798),
    (16, 0.999479, 0.0, 0.999739, 0.0),
    (17, 1.03396e-5, 0.960004, -0.00321553, -0.979798),
    (18, 0.922233, 0.0, 0.96033, 0.0),
    (19, 1.61359e-5, 0.960004, 0.00401695, -0.979798),
    (20, 0.999187, 0.0, 0.999593, 0.0),
)

SIX_DECIMALS = 5e-7


@contextmanager
def criterion(label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"[acceptance] {label}: FAIL (runtime {elapsed:.2f}s over {budget}s budget)")
        raise AssertionError(f"{label}: runtime {elapsed:.2f}s exceeds {budget}s")
    print(f"[acceptance] {label}: PASS ({elapsed:.2f}s)")


def selfflip_edge_state(g, u, v):
    amps = basis_arc_state(g, u, v).amplitudes - basis_arc_state(g, v, u).amplitudes
    return ArcState(g, amps / np.sqrt(2))


# --------------------------------------------------------------------------------------
# 1. Reference-table reproduction through the CLI
# --------------------------------------------------------------------------------------


def test_accept_1_table_reproduction(tmp_path):
    with criterion("1 table1 reproduces the reference rows at n=100", budget=1.0):
        out = tmp_path / "table.csv"
        code = cli_main(["table1", "--n", "100", "--t-max", "20", "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert "reference_caption_n=16" in text
        assert "reference_matches_n=100" in text
        data_lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        rows = {int(r["t"]): r for r in csv.DictReader(data_lines)}
        assert len(rows) == 21
        for t, prob_ab, prob_ba, ref_ab, ref_ba in FROZEN_TABLE:
            row = rows[t]
            assert abs(float(row["amp_ab"]) - ref_ab) <= SIX_DECIMALS
            assert abs(float(row["amp_ba"]) - ref_ba) <= SIX_DECIMALS
            assert abs(float(row["prob_ab"]) - prob_ab) <= SIX_DECIMALS
            assert abs(float(row["prob_ba"]) - prob_ba) <= SIX_DECIMALS
    # document what the captioned size would give instead
    print(
        "[acceptance]   n=16 closed forms for comparison: "
        f"odd amp_ba = {amp_ba(16, 1):.6f} (= -13/15), "
        f"t=2 amp_ab = {amp_ab(16, 2):.6f}"
    )
    assert abs(amp_ba(16, 1) + 13 / 15) <= 1e-12


# --------------------------------------------------------------------------------------
# 2. Closed forms against full arc-space simulation
# --------------------------------------------------------------------------------------


def test_accept_2_closed_form_vs_simulation():
    with criterion("2 closed forms match full simulation (n in {4,8,16,100}, t<=40)", budget=10.0):
        for n in (4, 8, 16, 100):
            assert_closed_forms_match_simulation(n, 40)


# --------------------------------------------------------------------------------------
# 3. Exact projections and the electric equality on edge-transitive graphs
# --------------------------------------------------------------------------------------

EDGE_TRANSITIVE = [
    complete_graph(4),
    complete_graph(8),
    complete_graph(16),
    hypercube_graph(3),
    cycle_graph(6),
    complete_bipartite_graph(3),
]


def test_accept_3_exact_projections_and_electric_equality():
    with criterion("3 exact single-edge/self-flip projections + electric equality"):
        for g in EDGE_TRANSITIVE:
            d, n = g.degree, g.n
            u, v = g.edges[0]
            bipartite = bipartite_partition(g) is not None

            # single-edge state: +1 numerator on non-bipartite graphs; on
            # bipartite graphs the double graph splits into two copies of g,
            # which raises the projection to the +2 numerator
            single = basis_arc_state(g, u, v)
            alpha_single, _ = flip_projection(single)
            numerator = 2 if bipartite else 1
            expected_single = (d * n - 2 * n + numerator) / (d * n)
            assert abs(alpha_single - expected_single) <= 1e-10, g.name

            # self-flip state: +2 numerator everywhere
            selfflip = selfflip_edge_state(g, u, v)
            alpha_selfflip, _ = flip_projection(selfflip)
            expected_selfflip = (d * n - 2 * n + 2) / (d * n)
            assert abs(alpha_selfflip - expected_selfflip) <= 1e-10, g.name

            # the Kirchhoff current realizes the closest flip state exactly
            sol = solve_network(network_from_state_double(single))
            lower, _ = bounds_from_power(sol.power, "double")
            assert abs(lower - alpha_single) <= 1e-9, g.name

            sol = solve_network(network_from_selfflip_state(selfflip))
            lower, _ = bounds_from_power(sol.power, "selfflip")
            assert abs(lower - alpha_selfflip) <= 1e-9, g.name
    print(
        "[acceptance]   note: on the bipartite members (hypercube:3, cycle:6, "
        "complete_bipartite_balanced:3) the single-edge projection equals the "
        "+2-numerator form; the +1 form holds only on the non-bipartite K_n "
        "(see the companion xfail test)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the +1-numerator single-edge value cannot hold on bipartite graphs: "
        "their bipartite double is two disjoint copies of the graph, so the "
        "terminal resistance equals the base-graph resistance and the exact "
        "projection is (dn-2n+2)/dn; confirmed independently by subspace "
        "projection, the dense eigenspace oracle, and the solved network"
    ),
)
def test_accept_3_plus_one_numerator_on_bipartite_members():
    for g in (hypercube_graph(3), cycle_graph(6), complete_bipartite_graph(3)):
        d, n = g.degree, g.n
        alpha, _ = flip_projection(basis_arc_state(g, *g.edges[0]))
        assert abs(alpha - (d * n - 2 * n + 1) / (d * n)) <= 1e-10


# --------------------------------------------------------------------------------------
# 4. Overlap lower bounds on random states
# --------------------------------------------------------------------------------------


def test_accept_4_bounds_hold_for_random_states():
    with criterion("4 even/odd overlap bounds hold for 50 random states per graph", budget=30.0):
        graphs = [
            complete_graph(8),
            hypercube_graph(3),
            cycle_graph(8),
            random_regular_graph(10, 4, seed=1),
        ]
        rng = np.random.default_rng(123)
        for g in graphs:
            for _ in range(50):
                assert_overlap_bounds(random_state(g, rng), 25)


# --------------------------------------------------------------------------------------
# 5. The oscillatory subspace equals flip + uniform
# --------------------------------------------------------------------------------------


def test_accept_5_subspace_projector_equality():
    with criterion("5 ker(U^2 - 1) projector = flip + uniform projector", budget=60.0):
        graphs = (
            [complete_graph(n) for n in range(4, 9)]
            + [cycle_graph(n) for n in range(4, 9)]
            + [hypercube_graph(3), complete_bipartite_graph(3)]
        )
        for g in graphs:
            assert g.arc_count <= 200
            assert_oscillatory_subspace(g)


# --------------------------------------------------------------------------------------
# 6. Electric identities
# --------------------------------------------------------------------------------------


def test_accept_6_electric_identities():
    with criterion("6 network identities and edge-transitive resistance forms", budget=5.0):
        g3 = complete_graph(3)
        psi = basis_arc_state(g3, 0, 1)
        sol = solve_network(network_from_state_double(psi))
        drop = (sol.potentials[4] - sol.potentials[0]).real  # b_in minus a_out
        assert abs(drop - 5.0) <= 1e-9  # R = 5
        assert abs(sol.power - 5.0) <= 1e-9  # P = 5
        lower, _ = bounds_from_power(sol.power, "double")
        assert abs(lower - 1 / 6) <= 1e-9

        omega_double = resistance_distance(bipartite_double(g3), 0, g3.n + 1)
        assert abs(omega_double - 5 / 6) <= 1e-9  # (2n-1)/(d n) at n=3, d=2

        families = (
            [complete_graph(n) for n in (4, 8, 16)]
            + [hypercube_graph(dim) for dim in (1, 2, 3, 4)]
            + [cycle_graph(n) for n in (3, 6, 9)]
            + [torus_graph(2, 5)]
        )
        for g in families:
            assert_edge_transitive_resistance(g)


# --------------------------------------------------------------------------------------
# 7. Thomson's principle
# --------------------------------------------------------------------------------------


def test_accept_7_kirchhoff_currents_minimize_power():
    with criterion("7 100 random circulation bumps strictly raise dissipation", budget=5.0):
        rng = np.random.default_rng(77)
        networks = [
            network_from_state_double(basis_arc_state(complete_graph(5), 0, 1)),
            network_from_state_double(basis_arc_state(hypercube_graph(3), 0, 1)),
            network_from_state_double(basis_arc_state(torus_graph(2, 4), 0, 1)),
            network_from_selfflip_state(selfflip_edge_state(complete_graph(6), 0, 1)),
        ]
        for net in networks:
            assert_thomson(net, rng, 100)


# --------------------------------------------------------------------------------------
# 8. Connectivity chain
# --------------------------------------------------------------------------------------


def test_accept_8_connectivity_chain():
    with criterion("8 connectivity -> paths bound -> resistance -> verdict", budget=5.0):
        q3 = hypercube_graph(3)
        omega_q3 = resistance_distance(q3, 0, 1)
        assert abs(omega_q3 - 7 / 12) <= 1e-9
        for u, v in q3.edges:
            assert_disjoint_paths_bound(q3, u, v, 3)
            bound = paths_resistance_bound(edge_disjoint_paths(q3, u, v).lengths)
            assert abs(bound - 3 / 5) <= 1e-12

        for n in (5, 6, 8, 16):
            g = complete_graph(n)
            assert len(edge_disjoint_paths(g, 0, 1)) == n - 1
            omega = resistance_distance(g, 0, 1)
            assert abs(omega - 2 / n) <= 1e-9
            assert omega < 0.5
            assert localization_verdict(omega) == CERTIFIED


# --------------------------------------------------------------------------------------
# Asymptotic behavior, checked directionally on concrete instances
# --------------------------------------------------------------------------------------


def test_accept_9_resistance_falls_with_degree_on_random_regular():
    with criterion("9 random-regular resistance decreases in d; certified for d >= 8"):
        for n in (50, 100):
            omegas = []
            for d in (4, 8, 16):
                g = random_regular_graph(n, d, seed=1)
                u, v = g.edges[0]
                omegas.append(resistance_distance(g, u, v))
            assert omegas[0] > omegas[1] > omegas[2], (n, omegas)
            for omega in omegas[1:]:
                assert omega < 0.5
                assert localization_verdict(omega) == CERTIFIED
