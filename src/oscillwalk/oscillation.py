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

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .electric import circulation_projection
from .graphs import Graph, bipartite_partition
from .walk import (
    ArcState,
    _slot_order,
    _slot_start,
    _slot_steps,
    dense_walk_matrix,
    ensure_normalized,
    is_flip_state,
    overlap,
    uniform_state,
)

__all__ = [
    "CapacityError",
    "Decomposition",
    "BoundReport",
    "OverlapSeries",
    "is_flip_state",
    "flip_projection",
    "uniform_coefficients",
    "decompose",
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
# potential drops x[u] - x[n + v].  Inject psi's own net outflows (+psi at
# u_out, -psi at v_in) into the network: the Kirchhoff currents are the
# potential-drop flow with that divergence, the least-energy one by Thomson's
# principle, and hence the orthogonal projection of psi onto the cut space.
# The flip component is psi minus those currents, from one grounded Laplacian
# solve on the double.  Equivalently, the Gram matrix I + A_D/d of the 2n
# normalized out/in indicators is sign-similar to L_D/d, the double's
# Laplacian, because the double is bipartite.


def flip_projection(state: ArcState) -> tuple[float, ArcState]:
    """Squared norm of the orthogonal projection onto the flip subspace and
    the (unnormalized) projected component.

    Over all normalized flip states phi, alpha_sq is the maximum of
    |<state|phi>|^2, attained by the normalized flip component.
    """
    psi = ensure_normalized(state)
    flip_amps = _flip_part(psi.graph, psi.amplitudes)
    alpha_sq = float(np.vdot(flip_amps, flip_amps).real)
    return alpha_sq, ArcState(psi.graph, flip_amps)


def _flip_part(g: Graph, flows: np.ndarray) -> np.ndarray:
    """Flip part of one arc vector, or of each column of an (arc_count, k)
    block: the circulation projection on the double's edges (u, n + v)."""
    return circulation_projection(2 * g.n, g.arc_tails, g.n + g.arc_heads, flows, g.double_roots)


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
    alpha_sq, flip_component = flip_projection(psi)
    beta_sq, uniform_component = uniform_coefficients(psi)
    remainder = psi.amplitudes - flip_component.amplitudes - uniform_component.amplitudes
    gamma_sq = float(np.vdot(remainder, remainder).real)
    return Decomposition(
        alpha_sq=alpha_sq,
        beta_sq=beta_sq,
        gamma_sq=gamma_sq,
        flip_component=flip_component,
        uniform_component=uniform_component,
        remainder_component=ArcState(psi.graph, remainder),
    )


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
    runs in float64 when the start is real and takes one dot over the arcs
    per two steps: the odd overlap comes from the even one and the coin's
    vertex means (see the `walk` module).
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    psi0 = ensure_normalized(state)
    g = psi0.graph
    order = _slot_order(g)
    start = _slot_start(psi0, order)
    _, overlaps = _slot_steps(g, order, start.copy(), t_max, start)
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
