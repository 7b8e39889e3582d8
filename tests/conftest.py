"""Independent oracles shared by the tests.

The flip-subspace oracle here deliberately avoids the library's
Kirchhoff projection route: it builds the zero-average constraint matrix
explicitly and takes its SVD nullspace through scipy, so projection values
can be cross-checked between two unrelated code paths.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from oscillwalk import ArcState, Graph


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
