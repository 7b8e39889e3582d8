"""Built-in property suite behind the `verify` CLI command.

Each property of the graphs, the walk, the decomposition and the electric
networks is asserted in one place: an `assert_*` function below that takes
its instance (a graph, a state, or a network) and raises AssertionError when
the property fails.  `CHECKS` runs them over fixed small instances,
`verify --graph` runs three of them on a user-supplied graph, and the test
suite calls the same functions on its own instances.  Checks are independent
and run one after another in canonical (name-sorted) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import complete as cf
from .electric import (
    ElectricNetwork,
    FlowSolution,
    bounds_from_power,
    circulation_projection,
    circulation_to_flip,
    completed_circulation,
    flip_to_circulation,
    network_from_state_double,
    parallel_resistance_identity,
    paths_resistance_bound,
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
    _flip_part,
    _uniform_states,
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
    walk_step,
)

__all__ = ["CheckResult", "run_checks", "CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# ---- instances -----------------------------------------------------------------------


def random_state(g: Graph, rng: np.random.Generator, real: bool = False) -> ArcState:
    """Normalized state with Gaussian amplitudes (real parts drawn first)."""
    amps = rng.standard_normal(g.arc_count).astype(np.complex128)
    if not real:
        amps = amps + 1j * rng.standard_normal(g.arc_count)
    return ArcState(g, amps / np.linalg.norm(amps))


# Norm of the random circulations that perturb Kirchhoff currents in the
# Thomson-minimality checks.
CIRCULATION_SCALE = 1e-3


def random_resistor_circulation(
    net: ElectricNetwork, rng: np.random.Generator
) -> np.ndarray | None:
    """Random circulation supported on the resistor edges, of norm
    CIRCULATION_SCALE.

    Projects a random per-edge vector onto the kernel of the incidence map
    (conservation at every node); returns None when the resistor graph is a
    forest and therefore carries no circulation at all.
    """
    count = len(net.resistor_edges)
    if count == 0:
        return None
    raw = rng.standard_normal(count)
    tails, heads = net.resistor_edges.T
    projected = circulation_projection(net.node_count, tails, heads, raw)
    nrm = float(np.linalg.norm(projected))
    if nrm <= 1e-9:
        return None
    return projected * (CIRCULATION_SCALE / nrm)


def random_flip_state(g: Graph, rng: np.random.Generator) -> ArcState:
    """Normalized flip component of a random state."""
    _, component = flip_projection(random_state(g, rng))
    return ArcState(g, component.amplitudes / component.norm())


def flip_projector(g: Graph) -> np.ndarray:
    """Dense (arcs x arcs) flip projector: every basis arc state projected
    as one block of flows by the flip part's own solve on the double."""
    return _flip_part(g, np.eye(g.arc_count))


def _zoo() -> list[Graph]:
    return [
        complete_graph(5),
        cycle_graph(6),
        hypercube_graph(3),
        complete_bipartite_graph(3),
        random_regular_graph(10, 4, seed=7),
    ]


# ---- graph structure -----------------------------------------------------------------


def assert_arc_indexing(g: Graph) -> None:
    """arc_index inverts arc_endpoints; reverse_arc is an involution that
    swaps the endpoints."""
    for a in range(g.arc_count):
        u, v = g.arc_endpoints(a)
        assert g.arc_index(u, v) == a
        assert g.reverse_arc(g.reverse_arc(a)) == a
        assert g.arc_endpoints(g.reverse_arc(a)) == (v, u)


def assert_family_counts(g: Graph, n: int, edges: int, degree: int) -> None:
    assert (g.n, len(g.edges), g.degree) == (n, edges, degree)


def assert_double_graph_structure(g: Graph) -> None:
    """The double is bipartite, d-regular on 2n vertices, and splits into two
    copies exactly when g is bipartite."""
    double = bipartite_double(g)
    assert bipartite_partition(double) is not None
    bipartite = bipartite_partition(g) is not None
    assert double.num_components == (2 if bipartite else 1)
    assert double.degree == g.degree and double.n == 2 * g.n


def assert_random_regular_reproducible(n: int, d: int, seed: int) -> None:
    """Same seed, same simple connected d-regular graph."""
    a = random_regular_graph(n, d, seed=seed)
    b = random_regular_graph(n, d, seed=seed)
    assert np.array_equal(a.edges, b.edges)
    assert a.degree == d and a.num_components == 1
    assert len(a.edges) == n * d // 2


# ---- walk operators ------------------------------------------------------------------


def assert_unitarity(psi: ArcState) -> None:
    assert abs(walk_step(psi).norm() - 1.0) <= 1e-12


def assert_coin_involution(psi: ArcState) -> None:
    twice = apply_coin(apply_coin(psi))
    assert np.max(np.abs(twice.amplitudes - psi.amplitudes)) <= 1e-12


def assert_shift_involution(psi: ArcState) -> None:
    assert np.array_equal(apply_shift(apply_shift(psi)).amplitudes, psi.amplitudes)


def assert_flip_state_single_step(phi: ArcState) -> None:
    """One walk step maps a flip state to its flip transform, a flip state."""
    assert is_flip_state(phi, 1e-9)
    stepped = walk_step(phi)
    flipped = flip_transform(phi)
    assert np.max(np.abs(stepped.amplitudes - flipped.amplitudes)) <= 1e-10
    assert is_flip_state(flipped, 1e-9)


def assert_realness_preserved(psi: ArcState, steps: int) -> None:
    """A real state stays real.  evolve walks a real start in real
    arithmetic, so the same start turned by a phase e^(i theta) runs the
    complex arithmetic too: turned back, it must be real and match."""
    real = evolve(psi, steps).amplitudes
    assert np.max(np.abs(real.imag)) < 1e-14
    theta = 0.7
    turned = evolve(ArcState(psi.graph, np.exp(1j * theta) * psi.amplitudes), steps)
    turned = np.exp(-1j * theta) * turned.amplitudes
    assert np.max(np.abs(turned.imag)) < 1e-14
    assert np.max(np.abs(turned - real)) < 1e-14


def assert_bipartite_alternation(g: Graph) -> None:
    """On a bipartite graph the walk swaps the two orthogonal uniform states."""
    sigma_x, sigma_y = _uniform_states(g)
    assert np.max(np.abs(walk_step(sigma_x).amplitudes - sigma_y.amplitudes)) <= 1e-14
    assert np.max(np.abs(walk_step(sigma_y).amplitudes - sigma_x.amplitudes)) <= 1e-14
    assert abs(overlap(sigma_x, sigma_y)) == 0.0


def assert_uniform_state_stationary(g: Graph) -> None:
    """On a non-bipartite graph the uniform state is fixed by the walk."""
    (sigma,) = _uniform_states(g)
    assert np.max(np.abs(walk_step(sigma).amplitudes - sigma.amplitudes)) <= 1e-14


# ---- decomposition and bounds ----------------------------------------------------------


def assert_decomposition(psi: ArcState) -> None:
    """flip + uniform + remainder rebuilds psi from pairwise-orthogonal parts
    whose squared norms sum to one; the flip part is a flip state."""
    dec = decompose(psi)
    assert abs(dec.alpha_sq + dec.beta_sq + dec.gamma_sq - 1.0) <= 1e-10
    parts = (dec.flip_component, dec.uniform_component, dec.remainder_component)
    recon = sum(part.amplitudes for part in parts)
    assert np.linalg.norm(recon - psi.amplitudes) <= 1e-10
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(overlap(parts[i], parts[j])) <= 1e-10
    assert is_flip_state(dec.flip_component, 1e-9)


def assert_overlap_bounds(psi: ArcState, t_max: int) -> None:
    """Measured even/odd return overlaps up to t_max lie between the
    decomposition's lower bounds and one."""
    report = oscillation_bounds(decompose(psi))
    series = measured_overlaps(psi, t_max)
    assert np.all(series.even_overlaps >= report.even_bound - 1e-9)
    assert np.all(series.odd_overlaps >= report.odd_bound - 1e-9)
    assert np.all(series.even_overlaps <= 1 + 1e-12)
    assert np.all(series.odd_overlaps <= 1 + 1e-12)


def assert_flip_projection_maximal(psi: ArcState, rng: np.random.Generator, samples: int) -> None:
    """No random normalized flip state overlaps psi more than alpha_sq."""
    alpha_sq, _ = flip_projection(psi)
    for _ in range(samples):
        phi = random_flip_state(psi.graph, rng)
        assert abs(overlap(psi, phi)) ** 2 <= alpha_sq + 1e-10


def assert_oscillatory_subspace(g: Graph) -> None:
    """The projector onto ker(U^2 - 1) equals flip plus uniform projectors."""
    basis = one_eigenspace_u2(g)
    uniform = sum(np.outer(s.amplitudes.real, s.amplitudes.real) for s in _uniform_states(g))
    assert np.max(np.abs(basis @ basis.T - (flip_projector(g) + uniform))) <= 1e-8


# ---- electric networks -----------------------------------------------------------------


def assert_kcl(net: ElectricNetwork, sol: FlowSolution) -> None:
    """The currents' net outflow at every node equals its injection."""
    tails, heads = net.resistor_edges.T
    residual = np.zeros(net.node_count, dtype=np.complex128)
    np.add.at(residual, tails, sol.currents)
    np.add.at(residual, heads, -sol.currents)
    assert np.max(np.abs(residual - net.injections)) <= 1e-9


def assert_grounding_invariance(net: ElectricNetwork, grounds) -> None:
    base = solve_network(net)
    for ground in grounds:
        other = solve_network(net, ground=ground)
        assert np.max(np.abs(base.currents - other.currents)) <= 1e-10


def assert_thomson(net: ElectricNetwork, rng: np.random.Generator, bumps: int) -> None:
    """Adding any circulation on the resistors strictly raises the power."""
    sol = solve_network(net)
    assert sol.feasible
    for _ in range(bumps):
        bump = random_resistor_circulation(net, rng)
        assert bump is not None
        assert float(np.sum(np.abs(sol.currents + bump) ** 2)) > sol.power


def assert_completed_flow_norm_identity(psi: ArcState) -> None:
    """The completed circulation phi' has <psi|phi'> = 1, ||phi'||^2 = 1 + P,
    and 1/(1 + P) never exceeds the exact alpha_sq."""
    g = psi.graph
    sol = solve_network(network_from_state_double(psi))
    phi = circulation_to_flip(g, completed_circulation(g, psi, sol))
    assert abs(phi.norm() ** 2 - (1.0 + sol.power)) <= 1e-9
    assert abs(overlap(psi, phi) - 1.0) <= 1e-9
    alpha_sq, _ = flip_projection(psi)
    lower, _ = bounds_from_power(sol.power, "double")
    assert lower <= alpha_sq + 1e-9


def assert_single_arc_equality(g: Graph) -> None:
    """An edge state's electric bound is tight on every graph: for |uv> on
    every arc, 1/(1 + P) from the double network, solved on the 2n-node
    double, equals the exact alpha_sq."""
    for a in range(g.arc_count):
        u, v = g.arc_endpoints(a)
        psi = basis_arc_state(g, u, v)
        lower, _ = bounds_from_power(solve_network(network_from_state_double(psi)).power, "double")
        alpha_sq, _ = flip_projection(psi)
        assert abs(lower - alpha_sq) <= 1e-9, (u, v, lower, alpha_sq)


def assert_circulation_roundtrip(phi: ArcState) -> None:
    g = phi.graph
    back = circulation_to_flip(g, flip_to_circulation(g, phi))
    assert np.max(np.abs(back.amplitudes - phi.amplitudes)) <= 1e-12


def assert_parallel_combination(g: Graph) -> None:
    """For the edge state on (u, v) = g.edges[0], the double's resistance
    between u_out and v_in is a unit resistor in parallel with the power."""
    u, v = g.edges[0]
    sol = solve_network(network_from_state_double(basis_arc_state(g, u, v)))
    omega = resistance_distance(g, int(u), int(v), double=True)
    assert abs(omega - parallel_resistance_identity(sol.power)) <= 1e-9


def assert_edge_transitive_resistance(g: Graph) -> None:
    """Foster's theorem on an edge-transitive graph: every edge has
    resistance (n - 1) / m."""
    u, v = g.edges[0]
    expected = (g.n - 1) / (g.degree * g.n / 2)
    assert abs(resistance_distance(g, u, v) - expected) <= 1e-9


def assert_disjoint_paths_bound(g: Graph, u: int, v: int, k: int) -> None:
    """k edge-disjoint u-v paths whose harmonic bound dominates the resistance."""
    family = edge_disjoint_paths(g, u, v)
    assert len(family) == k
    assert paths_resistance_bound(family.lengths) >= resistance_distance(g, u, v)


# ---- closed forms for K_n ----------------------------------------------------------------


def assert_closed_forms_match_simulation(n: int, t_max: int) -> None:
    """amp_ab/amp_ba equal the simulated single-edge amplitudes on K_n."""
    g = complete_graph(n)
    psi0 = basis_arc_state(g, 0, 1)
    reversed_arc = basis_arc_state(g, 1, 0)
    current = psi0
    for t in range(t_max + 1):
        assert abs(overlap(psi0, current) - cf.amp_ab(n, t)) <= 1e-9
        assert abs(overlap(reversed_arc, current) - cf.amp_ba(n, t)) <= 1e-9
        current = walk_step(current)


def assert_reference_table() -> None:
    """The shipped reference rows are the closed forms at their matching n."""
    n = cf.REFERENCE_TABLE_MATCHES_N
    for t, prob_ab, prob_ba, amp_ab_ref, amp_ba_ref in cf.REFERENCE_TABLE:
        assert abs(cf.amp_ab(n, t) - amp_ab_ref) <= 5e-7
        assert abs(cf.amp_ba(n, t) - amp_ba_ref) <= 5e-7
        assert abs(cf.amp_ab(n, t) ** 2 - prob_ab) <= 5e-7
        assert abs(cf.amp_ba(n, t) ** 2 - prob_ba) <= 5e-7


# ---- the fixed registry ------------------------------------------------------------------


def _each(check, instances) -> None:
    for instance in instances:
        check(instance)


def _zoo_states(seed: int, draw=random_state) -> list[ArcState]:
    """One state per zoo graph, drawn in order from one seeded stream."""
    rng = np.random.default_rng(seed)
    return [draw(g, rng) for g in _zoo()]


def _edge_network(g: Graph) -> ElectricNetwork:
    return network_from_state_double(basis_arc_state(g, 0, 1))


def _small_doubles() -> list[Graph]:
    return [complete_graph(3), complete_graph(4), hypercube_graph(3)]


def _check_family_counts() -> None:
    assert_family_counts(complete_graph(4), 4, 6, 3)
    assert_family_counts(hypercube_graph(3), 8, 12, 3)
    assert_family_counts(torus_graph(2, 4), 16, 32, 4)


def _check_flip_projection_maximality() -> None:
    rng = np.random.default_rng(18)
    assert_flip_projection_maximal(random_state(complete_graph(5), rng), rng, 25)


def _check_kirchhoff_current_law() -> None:
    for net in (_edge_network(complete_graph(5)), _edge_network(hypercube_graph(3))):
        assert_kcl(net, solve_network(net))


def _check_overlap_lower_bounds() -> None:
    rng = np.random.default_rng(17)
    for g in (complete_graph(6), hypercube_graph(3)):
        for _ in range(5):
            assert_overlap_bounds(random_state(g, rng), 20)


# Each check runs one assertion over fixed instances; the instances are built
# when the check runs, not when the module is imported.
CHECKS = {
    "arc_indexing": lambda: _each(assert_arc_indexing, _zoo()),
    "bipartite_alternation": lambda: assert_bipartite_alternation(hypercube_graph(3)),
    "circulation_roundtrip": lambda: assert_circulation_roundtrip(
        random_flip_state(cycle_graph(4), np.random.default_rng(20))
    ),
    "closed_form_vs_simulation": lambda: assert_closed_forms_match_simulation(8, 10),
    "coin_involution": lambda: _each(assert_coin_involution, _zoo_states(12)),
    "completed_flow_norm_identity": lambda: _each(
        assert_completed_flow_norm_identity, [basis_arc_state(g, 0, 1) for g in _small_doubles()]
    ),
    "decomposition_reconstruction": lambda: _each(assert_decomposition, _zoo_states(16)),
    "disjoint_paths_bound": lambda: assert_disjoint_paths_bound(hypercube_graph(3), 0, 1, 3),
    "double_graph_structure": lambda: _each(assert_double_graph_structure, _zoo()),
    "edge_transitive_resistance": lambda: _each(
        assert_edge_transitive_resistance,
        [complete_graph(6), hypercube_graph(3), cycle_graph(7), torus_graph(2, 5)],
    ),
    "family_counts": _check_family_counts,
    "flip_projection_maximality": _check_flip_projection_maximality,
    "flip_state_single_step": lambda: _each(
        assert_flip_state_single_step, _zoo_states(14, random_flip_state)
    ),
    "grounding_invariance": lambda: assert_grounding_invariance(
        _edge_network(complete_graph(5)), [3]
    ),
    "kirchhoff_current_law": _check_kirchhoff_current_law,
    "oscillatory_subspace_projectors": lambda: _each(
        assert_oscillatory_subspace, [complete_graph(4), cycle_graph(5), hypercube_graph(2)]
    ),
    "overlap_lower_bounds": _check_overlap_lower_bounds,
    "parallel_combination": lambda: _each(assert_parallel_combination, _small_doubles()),
    "random_regular_reproducible": lambda: assert_random_regular_reproducible(14, 5, 3),
    "realness_preserved": lambda: _each(
        partial(assert_realness_preserved, steps=7),
        _zoo_states(15, partial(random_state, real=True)),
    ),
    "reference_table_reproduction": assert_reference_table,
    "shift_involution": lambda: _each(assert_shift_involution, _zoo_states(13)),
    "single_arc_equality": lambda: _each(assert_single_arc_equality, _zoo()),
    "thomson_minimality": lambda: assert_thomson(
        _edge_network(complete_graph(5)), np.random.default_rng(19), 20
    ),
    "uniform_state_stationary": lambda: assert_uniform_state_stationary(complete_graph(6)),
    "unitarity": lambda: _each(assert_unitarity, _zoo_states(11)),
}


def _graph_checks(g: Graph) -> dict:
    """Extra checks focused on one user-supplied graph."""

    def targeted_decomposition() -> None:
        psi = random_state(g, np.random.default_rng(21))
        assert_decomposition(psi)
        assert_overlap_bounds(psi, 10)

    return {
        "target_graph:arc_indexing": lambda: assert_arc_indexing(g),
        "target_graph:decomposition_bounds": targeted_decomposition,
        "target_graph:oscillatory_subspace": lambda: assert_oscillatory_subspace(g),
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
