"""Built-in property suite behind the `verify` CLI command.

Each check is a small, self-contained assertion bundle over fixed instances;
checks are independent and run one after another in canonical (name-sorted)
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import complete as cf
from .electric import (
    bounds_from_power,
    circulation_to_flip,
    completed_circulation,
    flip_to_circulation,
    network_from_state_double,
    parallel_resistance_identity,
    paths_resistance_bound,
    random_resistor_circulation,
    resistance_distance,
    solve_network,
)
from .graphs import (
    Graph,
    bipartite_double,
    bipartite_partition,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edge_disjoint_paths,
    hypercube_graph,
    random_regular_graph,
    torus_graph,
)
from .oscillation import (
    CapacityError,
    decompose,
    flip_projection,
    measured_overlaps,
    one_eigenspace_u2,
    oscillation_bounds,
)
from .walk import (
    ArcState,
    apply_coin,
    apply_shift,
    basis_arc_state,
    evolve,
    flip_transform,
    is_flip_state,
    overlap,
    uniform_state,
    walk_step,
)

__all__ = ["CheckResult", "run_checks", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _random_state(g: Graph, rng: np.random.Generator) -> ArcState:
    amps = rng.standard_normal(g.arc_count) + 1j * rng.standard_normal(g.arc_count)
    return ArcState(g, amps / np.linalg.norm(amps))


def _random_flip_state(g: Graph, rng: np.random.Generator) -> ArcState:
    _, component = flip_projection(_random_state(g, rng))
    return ArcState(g, component.amplitudes / component.norm())


def _assert_oscillatory_subspace(g: Graph) -> None:
    """The projector onto ker(U^2 - 1) equals flip plus uniform projectors."""
    basis = one_eigenspace_u2(g)
    projector = basis @ basis.T
    flip_proj = np.column_stack(
        [flip_projection(ArcState(g, column))[1].amplitudes.real for column in np.eye(g.arc_count)]
    )
    part = bipartite_partition(g)
    if part is None:
        sigmas = [uniform_state(g)]
    else:
        sigmas = [uniform_state(g, part.partite_x), uniform_state(g, part.partite_y)]
    uniform_proj = sum(np.outer(s.amplitudes.real, s.amplitudes.real) for s in sigmas)
    assert np.max(np.abs(projector - (flip_proj + uniform_proj))) <= 1e-8


def _zoo() -> list[Graph]:
    return [
        complete_graph(5),
        cycle_graph(6),
        hypercube_graph(3),
        complete_bipartite_graph(3),
        random_regular_graph(10, 4, seed=7),
    ]


# ---- graph structure -----------------------------------------------------------------


def check_arc_indexing() -> None:
    for g in _zoo():
        for a in range(g.arc_count):
            assert g.reverse_arc(g.reverse_arc(a)) == a
            u, v = g.arc_endpoints(a)
            assert g.arc_endpoints(g.reverse_arc(a)) == (v, u)
            assert g.arc_index(u, v) == a


def check_family_counts() -> None:
    g = complete_graph(4)
    assert (g.n, len(g.edges), g.degree) == (4, 6, 3)
    g = hypercube_graph(3)
    assert (g.n, len(g.edges), g.degree) == (8, 12, 3)
    g = torus_graph(2, 4)
    assert (g.n, len(g.edges), g.degree) == (16, 32, 4)


def check_double_graph_structure() -> None:
    for g in _zoo():
        double = bipartite_double(g).graph
        assert bipartite_partition(double) is not None
        bipartite = bipartite_partition(g) is not None
        assert double.num_components == (2 if bipartite else 1)
        assert double.degree == g.degree and double.n == 2 * g.n


def check_random_regular_reproducible() -> None:
    a = random_regular_graph(14, 5, seed=3)
    b = random_regular_graph(14, 5, seed=3)
    assert np.array_equal(a.edges, b.edges)
    assert a.degree == 5 and a.num_components == 1


# ---- walk operators ------------------------------------------------------------------


def check_unitarity() -> None:
    rng = np.random.default_rng(11)
    for g in _zoo():
        psi = _random_state(g, rng)
        assert abs(walk_step(psi).norm() - 1.0) <= 1e-12


def check_coin_involution() -> None:
    rng = np.random.default_rng(12)
    for g in _zoo():
        psi = _random_state(g, rng)
        twice = apply_coin(apply_coin(psi))
        assert np.max(np.abs(twice.amplitudes - psi.amplitudes)) <= 1e-12


def check_shift_involution() -> None:
    rng = np.random.default_rng(13)
    for g in _zoo():
        psi = _random_state(g, rng)
        twice = apply_shift(apply_shift(psi))
        assert np.max(np.abs(twice.amplitudes - psi.amplitudes)) == 0.0


def check_flip_state_single_step() -> None:
    rng = np.random.default_rng(14)
    for g in _zoo():
        phi = _random_flip_state(g, rng)
        assert is_flip_state(phi, 1e-9)
        stepped = walk_step(phi)
        flipped = flip_transform(phi)
        assert np.max(np.abs(stepped.amplitudes - flipped.amplitudes)) <= 1e-10
        assert is_flip_state(flipped, 1e-9)


def check_realness_preserved() -> None:
    rng = np.random.default_rng(15)
    for g in _zoo():
        amps = rng.standard_normal(g.arc_count)
        psi = ArcState(g, amps / np.linalg.norm(amps))
        out = evolve(psi, 7)
        assert np.max(np.abs(out.amplitudes.imag)) < 1e-14


def check_bipartite_alternation() -> None:
    g = hypercube_graph(3)
    part = bipartite_partition(g)
    sigma_x = uniform_state(g, part.partite_x)
    sigma_y = uniform_state(g, part.partite_y)
    stepped = walk_step(sigma_x)
    assert np.max(np.abs(stepped.amplitudes - sigma_y.amplitudes)) <= 1e-12
    assert abs(overlap(sigma_x, sigma_y)) == 0.0


def check_uniform_state_stationary() -> None:
    g = complete_graph(6)
    sigma = uniform_state(g)
    stepped = walk_step(sigma)
    assert np.max(np.abs(stepped.amplitudes - sigma.amplitudes)) <= 1e-12


# ---- decomposition and bounds ----------------------------------------------------------


def check_decomposition_reconstruction() -> None:
    rng = np.random.default_rng(16)
    for g in _zoo():
        psi = _random_state(g, rng)
        dec = decompose(psi)
        total = dec.alpha_sq + dec.beta_sq + dec.gamma_sq
        assert abs(total - 1.0) <= 1e-10
        recon = (
            dec.flip_component.amplitudes
            + dec.uniform_component.amplitudes
            + dec.remainder_component.amplitudes
        )
        assert np.linalg.norm(recon - psi.amplitudes) <= 1e-10
        for first, second in (
            (dec.flip_component, dec.uniform_component),
            (dec.flip_component, dec.remainder_component),
            (dec.uniform_component, dec.remainder_component),
        ):
            assert abs(overlap(first, second)) <= 1e-10


def check_overlap_lower_bounds() -> None:
    rng = np.random.default_rng(17)
    for g in (complete_graph(6), hypercube_graph(3)):
        for _ in range(5):
            psi = _random_state(g, rng)
            report = oscillation_bounds(decompose(psi))
            series = measured_overlaps(psi, 20)
            assert np.all(series.even_overlaps >= report.even_bound - 1e-9)
            assert np.all(series.odd_overlaps >= report.odd_bound - 1e-9)


def check_flip_projection_maximality() -> None:
    rng = np.random.default_rng(18)
    g = complete_graph(5)
    psi = _random_state(g, rng)
    alpha_sq, _ = flip_projection(psi)
    for _ in range(25):
        phi = _random_flip_state(g, rng)
        assert abs(overlap(psi, phi)) ** 2 <= alpha_sq + 1e-10


def check_oscillatory_subspace_projectors() -> None:
    for g in (complete_graph(4), cycle_graph(5), hypercube_graph(2)):
        _assert_oscillatory_subspace(g)


# ---- electric networks -----------------------------------------------------------------


def check_kirchhoff_current_law() -> None:
    for g in (complete_graph(5), hypercube_graph(3)):
        net = network_from_state_double(basis_arc_state(g, 0, 1))
        sol = solve_network(net)
        residual = np.zeros(net.node_count, dtype=np.complex128)
        for (u, v), current in zip(net.resistor_edges, sol.currents):
            residual[u] += current
            residual[v] -= current
        assert np.max(np.abs(residual - net.injections)) <= 1e-9


def check_grounding_invariance() -> None:
    g = complete_graph(5)
    net = network_from_state_double(basis_arc_state(g, 0, 1))
    base = solve_network(net)
    other = solve_network(net, ground=3)
    assert np.max(np.abs(base.currents - other.currents)) <= 1e-10


def check_thomson_minimality() -> None:
    rng = np.random.default_rng(19)
    g = complete_graph(5)
    net = network_from_state_double(basis_arc_state(g, 0, 1))
    sol = solve_network(net)
    for _ in range(20):
        bump = random_resistor_circulation(net, rng)
        assert bump is not None
        perturbed = float(np.sum(np.abs(sol.currents + bump) ** 2))
        assert perturbed > sol.power


def check_completed_flow_norm_identity() -> None:
    for g in (complete_graph(3), complete_graph(4), hypercube_graph(3)):
        psi = basis_arc_state(g, 0, 1)
        sol = solve_network(network_from_state_double(psi))
        phi = circulation_to_flip(g, completed_circulation(g, psi, sol))
        assert abs(phi.norm() ** 2 - (1.0 + sol.power)) <= 1e-9
        assert abs(overlap(psi, phi) - 1.0) <= 1e-9
        alpha_sq, _ = flip_projection(psi)
        lower, _ = bounds_from_power(sol.power, "double")
        assert lower <= alpha_sq + 1e-9


def check_circulation_roundtrip() -> None:
    rng = np.random.default_rng(20)
    g = cycle_graph(4)
    phi = _random_flip_state(g, rng)
    back = circulation_to_flip(g, flip_to_circulation(g, phi))
    assert np.max(np.abs(back.amplitudes - phi.amplitudes)) <= 1e-12


def check_parallel_combination() -> None:
    for g in (complete_graph(3), complete_graph(4), hypercube_graph(3)):
        psi = basis_arc_state(g, 0, 1)
        sol = solve_network(network_from_state_double(psi))
        double = bipartite_double(g)
        omega = resistance_distance(
            double.graph, int(double.out_vertex[0]), int(double.in_vertex[1])
        )
        assert abs(omega - parallel_resistance_identity(sol.power)) <= 1e-9


def check_edge_transitive_resistance() -> None:
    for g in (complete_graph(6), hypercube_graph(3), cycle_graph(7), torus_graph(2, 5)):
        u, v = g.edges[0]
        expected = (g.n - 1) / (g.degree * g.n / 2)
        assert abs(resistance_distance(g, u, v) - expected) <= 1e-9


def check_disjoint_paths_bound() -> None:
    g = hypercube_graph(3)
    family = edge_disjoint_paths(g, 0, 1)
    assert len(family) == 3
    bound = paths_resistance_bound(family.lengths)
    assert bound >= resistance_distance(g, 0, 1) - 1e-12


def check_closed_form_vs_simulation() -> None:
    g = complete_graph(8)
    psi0 = basis_arc_state(g, 0, 1)
    reversed_arc = basis_arc_state(g, 1, 0)
    current = psi0
    for t in range(11):
        assert abs(overlap(psi0, current) - cf.amp_ab(8, t)) <= 1e-9
        assert abs(overlap(reversed_arc, current) - cf.amp_ba(8, t)) <= 1e-9
        current = walk_step(current)


def check_reference_table_reproduction() -> None:
    n = cf.REFERENCE_TABLE_MATCHES_N
    for t, prob_ab, prob_ba, amp_ab_ref, amp_ba_ref in cf.REFERENCE_TABLE:
        assert abs(cf.amp_ab(n, t) - amp_ab_ref) <= 5e-7
        assert abs(cf.amp_ba(n, t) - amp_ba_ref) <= 5e-7
        assert abs(cf.amp_ab(n, t) ** 2 - prob_ab) <= 5e-7
        assert abs(cf.amp_ba(n, t) ** 2 - prob_ba) <= 5e-7


CHECKS = {
    "arc_indexing": check_arc_indexing,
    "bipartite_alternation": check_bipartite_alternation,
    "circulation_roundtrip": check_circulation_roundtrip,
    "closed_form_vs_simulation": check_closed_form_vs_simulation,
    "coin_involution": check_coin_involution,
    "completed_flow_norm_identity": check_completed_flow_norm_identity,
    "decomposition_reconstruction": check_decomposition_reconstruction,
    "disjoint_paths_bound": check_disjoint_paths_bound,
    "double_graph_structure": check_double_graph_structure,
    "edge_transitive_resistance": check_edge_transitive_resistance,
    "family_counts": check_family_counts,
    "flip_projection_maximality": check_flip_projection_maximality,
    "flip_state_single_step": check_flip_state_single_step,
    "grounding_invariance": check_grounding_invariance,
    "kirchhoff_current_law": check_kirchhoff_current_law,
    "oscillatory_subspace_projectors": check_oscillatory_subspace_projectors,
    "overlap_lower_bounds": check_overlap_lower_bounds,
    "parallel_combination": check_parallel_combination,
    "random_regular_reproducible": check_random_regular_reproducible,
    "realness_preserved": check_realness_preserved,
    "reference_table_reproduction": check_reference_table_reproduction,
    "shift_involution": check_shift_involution,
    "thomson_minimality": check_thomson_minimality,
    "uniform_state_stationary": check_uniform_state_stationary,
    "unitarity": check_unitarity,
}


def _graph_checks(g: Graph) -> dict:
    """Extra checks focused on one user-supplied graph."""

    def targeted_arc_indexing() -> None:
        for a in range(g.arc_count):
            assert g.reverse_arc(g.reverse_arc(a)) == a

    def targeted_decomposition() -> None:
        rng = np.random.default_rng(21)
        psi = _random_state(g, rng)
        dec = decompose(psi)
        assert abs(dec.alpha_sq + dec.beta_sq + dec.gamma_sq - 1.0) <= 1e-10
        report = oscillation_bounds(dec)
        series = measured_overlaps(psi, 10)
        assert np.all(series.even_overlaps >= report.even_bound - 1e-9)
        assert np.all(series.odd_overlaps >= report.odd_bound - 1e-9)

    return {
        "target_graph:arc_indexing": targeted_arc_indexing,
        "target_graph:decomposition_bounds": targeted_decomposition,
        "target_graph:oscillatory_subspace": lambda: _assert_oscillatory_subspace(g),
    }


def run_checks(extra_graph: Graph | None = None) -> list[CheckResult]:
    """Run every check; returns results sorted by check name.

    CapacityError propagates (the caller maps it to its own exit status);
    every other exception marks the check failed.
    """
    checks = dict(CHECKS)
    if extra_graph is not None:
        checks.update(_graph_checks(extra_graph))
    results = []
    for name, func in sorted(checks.items()):
        try:
            func()
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc) or "assertion failed"))
        except CapacityError:
            raise
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
        else:
            results.append(CheckResult(name, True))
    return results
