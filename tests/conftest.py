"""Shared helpers: random states and independent oracles.

The flip-subspace oracle here deliberately avoids the library's
Kirchhoff projection route: it builds the zero-average constraint matrix
explicitly and takes its SVD nullspace through scipy, so projection values
can be cross-checked between two unrelated code paths.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from oscillwalk import ArcState, Graph, flip_projection


def random_state(g: Graph, rng: np.random.Generator, real: bool = False) -> ArcState:
    amps = rng.standard_normal(g.arc_count).astype(np.complex128)
    if not real:
        amps = amps + 1j * rng.standard_normal(g.arc_count)
    return ArcState(g, amps / np.linalg.norm(amps))


def random_flip_state(g: Graph, rng: np.random.Generator) -> ArcState:
    """Random normalized flip state (library projection route)."""
    _, component = flip_projection(random_state(g, rng))
    return ArcState(g, component.amplitudes / component.norm())


def flip_projector(g: Graph) -> np.ndarray:
    """Dense flip projector: flip_projection applied to every basis arc state."""
    return np.column_stack(
        [flip_projection(ArcState(g, column))[1].amplitudes.real for column in np.eye(g.arc_count)]
    )


def flip_constraint_matrix(g: Graph) -> np.ndarray:
    """Rows: out-amplitude sum and in-amplitude sum per vertex."""
    constraints = np.zeros((2 * g.n, g.arc_count))
    for a in range(g.arc_count):
        u, v = g.arc_endpoints(a)
        constraints[u, a] += 1.0
        constraints[g.n + v, a] += 1.0
    return constraints


def flip_basis_nullspace(g: Graph) -> np.ndarray:
    """Independent orthonormal flip-subspace basis via scipy's nullspace."""
    return scipy.linalg.null_space(flip_constraint_matrix(g), rcond=1e-10)


def flip_projection_nullspace(g: Graph, state: ArcState) -> float:
    """Independent alpha_sq: squared norm of the nullspace-basis projection."""
    basis = flip_basis_nullspace(g)
    coefficients = basis.T @ state.amplitudes
    return float(np.vdot(coefficients, coefficients).real)
