"""Flip/uniform/remainder decomposition of starting states and the
two-state-oscillation machinery built on it.

A *flip state* has zero average outgoing and incoming amplitude at every
vertex; flip states and the uniform states together span the eigenspace of
U^2 with eigenvalue 1, so the squared projections alpha_sq (flip) and
beta_sq (uniform) of a starting state bound how strongly the walk returns to
it at even steps and to its flipped version at odd steps:

    even:  |<psi0|U^(2t)|psi0>|        >= 2 (alpha_sq + beta_sq) - 1
    odd:   |<~psi0|U^(2t+1)|psi0>|     >= 2 max(alpha_sq, beta_sq) - 1

Negative bounds are vacuous but reported as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .electric import (
    ZERO_AMPLITUDE_TOL,
    ElectricNetwork,
    _balanced_roots,
    _circulation_projection,
    _edge_double_power,
    _edge_selfflip_power,
    _pair_potentials,
    _PairPotentials,
    network_from_selfflip_state,
    network_from_state_double,
    solve_network,
)
from .graphs import Graph, bipartite_partition
from .walk import (
    ArcState,
    _mean_walk,
    dense_walk_matrix,
    ensure_normalized,
    is_flip_state,
    is_selfflip_state,
    overlap,
    uniform_state,
)

__all__ = [
    "CapacityError",
    "Decomposition",
    "BoundReport",
    "Certificate",
    "OverlapSeries",
    "is_flip_state",
    "flip_projection",
    "uniform_coefficients",
    "decompose",
    "certify",
    "oscillation_bounds",
    "measured_overlaps",
    "one_eigenspace_u2",
    "DENSE_ORACLE_CEILING",
    "SINGULAR_VALUE_TOL",
]

DENSE_ORACLE_CEILING = 2000
# Singular values of U^2 - I at or below this count as the eigenvalue 1.
SINGULAR_VALUE_TOL = 1e-9


class CapacityError(RuntimeError):
    """An exact dense computation was requested above its size ceiling."""


@dataclass
class Decomposition:
    """psi = flip_component + uniform_component + remainder_component with
    pairwise-orthogonal parts; the *_sq fields are their squared norms."""

    alpha_sq: float
    beta_sq: float
    gamma_sq: float
    flip_component: ArcState
    uniform_component: ArcState
    remainder_component: ArcState


@dataclass(frozen=True)
class Certificate:
    """A decomposition with the powers of the state's electric networks:
    `power_double` on the bipartite double and, for a self-flip state,
    `power_selfflip` on g itself (else None); +inf marks a network that
    carries no steady current."""

    decomposition: Decomposition
    power_double: float
    power_selfflip: float | None


@dataclass(frozen=True)
class BoundReport:
    even_bound: float
    odd_bound: float

    @property
    def even_vacuous(self) -> bool:
        return self.even_bound < 0.0

    @property
    def odd_vacuous(self) -> bool:
        return self.odd_bound < 0.0


@dataclass(frozen=True)
class OverlapSeries:
    """Measured return overlaps: even_overlaps[t] = |<psi0|U^(2t)|psi0>|,
    odd_overlaps[t] = |<~psi0|U^(2t+1)|psi0>|."""

    even_overlaps: np.ndarray
    odd_overlaps: np.ndarray


# ======================================================================================
# The flip subspace as the circulations of the bipartite double
# ======================================================================================
#
# A flip state sums to zero over the arcs leaving each vertex and over the
# arcs entering it.  Read the amplitude of arc (u, v) as the current through a
# unit resistor from u_out = u to v_in = n + v of the bipartite double: those
# sums become the net outflows at u_out and v_in, so the flip states are
# exactly the circulations of the double (the paper's flip-state <->
# circulation bijection).  Their orthogonal complement is the cut space, the
# potential drops x[u_out] - x[v_in].  By Thomson's principle the Kirchhoff
# current of psi's own divergence is the orthogonal projection of psi onto
# the cut space, and the flip part is psi minus that current.
#
# A wider state's flip part is electric's circulation projection on the
# double's links u_out -- v_in, labeled by the cached g.double_roots.  The
# double is bipartite on every g, so CG runs on its n out-nodes alone.
#
# A state on the two arcs of one edge {u, v} keeps to g's own L and Q.  With
# o its divergence at the out-nodes and i the one at the in-nodes, the change
# of variables that splits the double's Laplacian into L (+) Q (electric's
# block comment above _g_potentials) gives L p = o + i and Q q = o - i on
# g's vertices and the current (p_u - p_v + q_u + q_v) / 2 on arc (u, v).
# With delta_0 on (u, v) and delta_1 on (v, u), o + i =
# (delta_0 - delta_1)(e_u - e_v) and o - i = (delta_0 + delta_1)(e_u + e_v).
# So the pair potentials of u and v, L^+ (e_u - e_v) and Q^+ (e_u + e_v),
# give its flip part and, in `certify`, the powers of its networks
# (electric's transfer-current block): L, then Q, the solves of
# resistance_distance.  A self-flip state has delta_1 = -delta_0 and needs no
# Q solve, and on a bipartite g the Q potentials are the L ones turned by the
# coloring: either way the state costs one L solve on g's n vertices.


def flip_projection(state: ArcState) -> tuple[float, ArcState]:
    """Squared norm of the orthogonal projection onto the flip subspace and
    the (unnormalized) projected component.

    Over all normalized flip states phi, alpha_sq is the maximum of
    |<state|phi>|^2, attained by the normalized flip component.
    """
    psi = ensure_normalized(state)
    flip_amps = _flip_amplitudes(psi)
    alpha_sq = float(np.vdot(flip_amps, flip_amps).real)
    return alpha_sq, ArcState(psi.graph, flip_amps)


def _flip_amplitudes(psi: ArcState) -> np.ndarray:
    edge = _support_edge(psi.amplitudes)
    if edge is None:
        return _flip_part(psi.graph, psi.amplitudes)
    return _edge_flip(psi.graph, edge, psi.amplitudes, _solve_edge(psi.graph, edge, psi.amplitudes))


def _flip_part(g: Graph, flows: np.ndarray) -> np.ndarray:
    """Flip part of one arc vector, or of each column of an (arc_count, k)
    block: its projection onto the circulations of the bipartite double; a
    real flow gives a real flip part."""
    return _circulation_projection(2 * g.n, g.arc_tails, g.n + g.arc_heads, flows, g.double_roots)


def _currents(g: Graph, p: np.ndarray, q: np.ndarray | None) -> np.ndarray:
    """(p_u - p_v + q_u + q_v) / 2 on every arc (u, v); q = None counts as 0."""
    tails, heads = g.arc_tails, g.arc_heads
    drops = p[tails] - p[heads]
    if q is not None:
        drops += q[tails] + q[heads]
    return drops / 2


def _support_edge(amps: np.ndarray) -> int | None:
    """The edge whose two arcs hold every nonzero amplitude, or None."""
    nonzero = np.flatnonzero(amps != 0)
    if nonzero.size and nonzero[0] // 2 == nonzero[-1] // 2:
        return int(nonzero[0] // 2)
    return None


def _solve_edge(g: Graph, edge: int, amps: np.ndarray) -> _PairPotentials:
    u, v = g.edges[edge].tolist()
    return _pair_potentials(g, u, v, signless=bool(amps[2 * edge] + amps[2 * edge + 1] != 0))


def _edge_flip(g: Graph, edge: int, amps: np.ndarray, pot: _PairPotentials) -> np.ndarray:
    delta_0, delta_1 = amps[2 * edge], amps[2 * edge + 1]
    q = None if pot.y is None else (delta_0 + delta_1) * pot.y
    return amps - _currents(g, (delta_0 - delta_1) * pot.x, q)


def _uniform_states(g: Graph) -> list[ArcState]:
    """Orthonormal basis of the uniform states: sigma_V on a non-bipartite
    graph, sigma_X and sigma_Y (one per partite set) on a bipartite one."""
    partition = bipartite_partition(g)
    if partition is None:
        return [uniform_state(g)]
    return [uniform_state(g, partition.partite_x), uniform_state(g, partition.partite_y)]


def uniform_coefficients(state: ArcState) -> tuple[float, ArcState]:
    """Squared overlap with the uniform states and the projected component.

    Non-bipartite graphs have the single uniform state sigma_V; bipartite
    graphs have the two-dimensional span of sigma_X and sigma_Y.
    """
    psi = ensure_normalized(state)
    sigmas = _uniform_states(psi.graph)
    betas = [overlap(sigma, psi) for sigma in sigmas]
    beta_sq = float(sum(abs(beta) ** 2 for beta in betas))
    # reduce starts from the first term, not from 0: 0 + (-0.0) would turn
    # the component's negative zeros positive.
    component = reduce(np.add, [beta * sigma.amplitudes for beta, sigma in zip(betas, sigmas)])
    return beta_sq, ArcState(psi.graph, component)


def decompose(state: ArcState) -> Decomposition:
    """Split a normalized state into flip + uniform + remainder parts."""
    psi = ensure_normalized(state)
    return _decomposition(psi, _flip_amplitudes(psi))


def _decomposition(psi: ArcState, flip_amps: np.ndarray) -> Decomposition:
    alpha_sq = float(np.vdot(flip_amps, flip_amps).real)
    beta_sq, uniform_component = uniform_coefficients(psi)
    remainder = psi.amplitudes - flip_amps - uniform_component.amplitudes
    gamma_sq = float(np.vdot(remainder, remainder).real)
    return Decomposition(
        alpha_sq=alpha_sq,
        beta_sq=beta_sq,
        gamma_sq=gamma_sq,
        flip_component=ArcState(psi.graph, flip_amps),
        uniform_component=uniform_component,
        remainder_component=ArcState(psi.graph, remainder),
    )


def certify(
    state: ArcState, zero_tol: float = ZERO_AMPLITUDE_TOL, flip_tol: float = 1e-9
) -> Certificate:
    """decompose(state) with the power of
    solve_network(network_from_state_double(state, zero_tol)) and, when the
    state is a self-flip state within flip_tol, of
    solve_network(network_from_selfflip_state(state, zero_tol, flip_tol)).

    A state on the two arcs of one edge takes all three from the same L
    solve and at most one Q solve on g: each network is still labeled for
    feasibility, but none is solved.  Any other state solves its networks.
    """
    return _certify(state, zero_tol, flip_tol)


def _certify(
    state: ArcState, zero_tol: float, flip_tol: float,
    network_double: ElectricNetwork | None = None,
) -> Certificate:
    """certify(state, zero_tol, flip_tol), given its double network
    network_from_state_double(state, zero_tol) when the caller has built it
    already (bounds --dump-network writes it)."""
    psi = ensure_normalized(state)
    g, amps = psi.graph, psi.amplitudes
    edge = _support_edge(amps)
    pot = None if edge is None else _solve_edge(g, edge, amps)

    def power(net, edge_power) -> float:
        if pot is None:
            return solve_network(net).power
        if _balanced_roots(net) is None:
            return math.inf
        return edge_power(pot, amps[2 * edge : 2 * edge + 2], zero_tol)

    if network_double is None:  # built here, it is freed before the flip part is formed
        network_double = network_from_state_double(psi, zero_tol)
    power_double = power(network_double, _edge_double_power)
    del network_double
    flip_amps = _flip_part(g, amps) if pot is None else _edge_flip(g, edge, amps, pot)
    power_selfflip = None
    if is_selfflip_state(state, flip_tol):
        power_selfflip = power(
            network_from_selfflip_state(psi, zero_tol, flip_tol), _edge_selfflip_power
        )
    return Certificate(_decomposition(psi, flip_amps), power_double, power_selfflip)


def oscillation_bounds(dec: Decomposition) -> BoundReport:
    """Even/odd return-overlap lower bounds implied by a decomposition."""
    return BoundReport(
        even_bound=2.0 * (dec.alpha_sq + dec.beta_sq) - 1.0,
        odd_bound=2.0 * max(dec.alpha_sq, dec.beta_sq) - 1.0,
    )


def measured_overlaps(state: ArcState, t_max: int) -> OverlapSeries:
    """Return overlaps from a single evolution sweep up to step t_max.

    even_overlaps covers steps 0, 2, ..., odd_overlaps steps 1, 3, ...;
    odd steps are measured against the flipped starting state.  The sweep
    walks the out-means of U^t psi, not its arcs: one product with the
    adjacency matrix per step on the vertices of the start's light cone, in
    float64 when the start is real, and two dots over those vertices per two
    steps give both overlaps (see the `walk` module).  No state over the arcs
    is built.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    *_, overlaps = _mean_walk(ensure_normalized(state), t_max, measure=True)
    return OverlapSeries(even_overlaps=overlaps[0::2], odd_overlaps=overlaps[1::2])


def one_eigenspace_u2(g: Graph, ceiling: int = DENSE_ORACLE_CEILING) -> np.ndarray:
    """Orthonormal basis (columns) for the eigenspace of U^2 with eigenvalue 1.

    Materializes U^2 densely and extracts the nullspace of U^2 - I from its
    singular value decomposition; cubic in the arc count, hence the ceiling.
    """
    if g.arc_count > ceiling:
        raise CapacityError(
            f"dense eigenspace oracle limited to {ceiling} arcs, "
            f"graph has {g.arc_count}"
        )
    u = dense_walk_matrix(g)
    shifted = u @ u - np.eye(g.arc_count)
    _, singular_values, vt = np.linalg.svd(shifted)
    keep = singular_values <= SINGULAR_VALUE_TOL
    return vt[keep].T.copy()
