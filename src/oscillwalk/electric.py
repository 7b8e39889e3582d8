"""Classical electric networks that certify quantum-walk oscillations.

A starting state turns into a unit-resistor network: arcs with zero amplitude
become resistors, nonzero amplitudes become current injections.  Solving the
Kirchhoff currents (pinned graph-Laplacian systems) yields the power
dissipation P, and Thomson's principle makes the completed current pattern the
closest circulation, so

    alpha_sq >= 1 / (1 + P)            (network on the bipartite double)
    alpha_sq >= 1 / (1 + 2P)           (self-flip state, network on G itself)

with matching lower bounds on the return overlaps.  Effective resistance
below 1/2 between the relevant terminals certifies localization outright.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graphs import Graph, _int64_ids, label_components
from .walk import ArcState, check_tolerance, ensure_normalized, is_flip_state, is_selfflip_state

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "ConvergenceError",
    "ElectricNetwork",
    "FlowSolution",
    "Circulation",
    "network_from_state_double",
    "network_from_selfflip_state",
    "solve_network",
    "circulation_projection",
    "resistance_distance",
    "resistance_distances",
    "flip_to_circulation",
    "circulation_to_flip",
    "completed_circulation",
    "bounds_from_power",
    "parallel_resistance_identity",
    "paths_resistance_bound",
    "localization_verdict",
    "CERTIFIED",
    "NOT_CERTIFIED",
    "ZERO_AMPLITUDE_TOL",
    "FEASIBILITY_TOL",
]

# Amplitudes at or below this are treated as the zero (resistor) case.  It
# can be absolute because the network builders normalize the state first
# (ensure_normalized): amplitudes are measured against a unit norm whatever
# the graph, and a unit state spread evenly over m arcs has amplitudes
# 1/sqrt(m), above this bound for any m below 1e24.
ZERO_AMPLITUDE_TOL = 1e-12
# A component whose net injection exceeds this cannot carry a steady current.
# Absolute for the same reason: the injections are sums of +-amplitudes of a
# unit state, so a balanced component's computed net injection is rounding
# noise on terms of modulus at most 1, far below this bound (3e-15 to 2e-14
# on the 65,536- and 90,000-node components of the Q_16 and torus 2:300
# doubles under random unit states), while an unbalanced one is judged
# against the same unit norm.
FEASIBILITY_TOL = 1e-9
# Laplacian systems of at most this many unknowns are solved densely, larger
# ones by CG; every node is an unknown (see the Kirchhoff solver).  Measured
# with red-black CG (minimum of 30 solves, scipy already imported, one BLAS
# thread, 2-core Xeon VM), dense vs CG in ms.  A pair's L solve on g with its
# assembly: 0.43 vs 0.62 at 200 unknowns (random_regular 200:5:3), 0.64 vs
# 1.09 and 0.65 vs 0.75 at 240 (random_regular 240:3 and 240:4), 0.76 vs
# 0.32 at 256 (Q_8), 0.75 vs 0.55 at 256 (torus 2:16).  solve_network on the
# double's network of an edge state: 0.85 vs 1.04 at 200 nodes (torus 2:10),
# 0.92 vs 1.26 at 200 (random_regular 100:4), 1.02 vs 0.77 at 220
# (random_regular 110:4), 1.25 vs 0.79 at 242 (torus 2:11), 1.57 vs 0.72 at
# 256 (Q_7).  So g's systems cross over between 240 and 256 unknowns and the
# double's between 200 and 220, and no one value is both crossovers; the
# threshold stays at 128, below both, where the tests' CG-sized graphs (torus
# 2:12 and 2:13, 144 and 169 unknowns) take CG.  A block with at least as
# many real right-hand sides as unknowns is solved densely too: the flip
# projector of torus 2:22 (the double's 968 nodes, 1936 columns) takes 0.45 s
# that way against 2.0 s by CG on the red class.  A dense system is assembled
# straight into a numpy array; only the CG branch builds a scipy CSR matrix
# and imports scipy.sparse, so a process whose solves are all dense never
# loads scipy (its import is about half of `import oscillwalk.cli`).
_DENSE_MAX_NODES = 128
# CG stops once the residual is at most this times max(1, |b|); a balanced
# right-hand side already that small is not solved (see _solve).
_CG_TOL = 1e-13

CERTIFIED = "oscillatory localization certified"
NOT_CERTIFIED = "not certified (resistance bound vacuous)"


class ConvergenceError(ArithmeticError):
    """An iterative solve stopped above its residual target."""


@dataclass
class ElectricNetwork:
    """Unit resistors plus per-node current injections (positive = in).

    `resistor_edges` is an (m, 2) int64 array, one row per resistor (any
    sequence of node pairs is accepted and copied); parallel resistors are
    kept as separate rows.  `injections` is complex, shape (node_count,).
    """

    node_count: int
    resistor_edges: np.ndarray
    injections: np.ndarray

    def __post_init__(self):
        edges = np.array(_int64_ids(self.resistor_edges, "node id"))
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"resistor edges need shape (m, 2), got {edges.shape}")
        loops = np.flatnonzero(edges[:, 0] == edges[:, 1])
        if loops.size:
            raise ValueError(f"resistor self-loop at node {edges[loops[0], 0]}")
        outside = np.flatnonzero(((edges < 0) | (edges >= self.node_count)).any(axis=1))
        if outside.size:
            u, v = edges[outside[0]].tolist()
            raise ValueError(f"resistor edge ({u},{v}) out of range")
        self.resistor_edges = edges
        inj = np.asarray(self.injections, dtype=np.complex128)
        if inj.shape != (self.node_count,):
            raise ValueError(
                f"injections need shape ({self.node_count},), got {inj.shape}"
            )
        self.injections = inj


@dataclass
class FlowSolution:
    """Kirchhoff solution of an ElectricNetwork.

    `currents[i]` flows along resistor_edges[i] from its first to its second
    node; `potentials` are pinned at one node per component, whose potential
    is then the component's net injection: ~0, not a literal 0.  They are
    the pinned system's solution whether it was solved densely or by CG,
    which solves the unpinned system and shifts each component by a
    constant to the pin's value (see the Kirchhoff solver's block comment).
    When any
    component's injections do not balance, no steady current exists:
    feasible is False and power is +infinity.
    """

    feasible: bool
    currents: np.ndarray | None
    potentials: np.ndarray | None
    power: float


@dataclass
class Circulation:
    """Flow-conserving current on the bipartite double of `graph`, one value
    per arc of `graph`: flow[a] runs from u_out = u to v_in = n + v along arc
    a = (u, v), the double's edge u_out -- v_in, and -flow[a] back, so skew
    symmetry holds by construction."""

    graph: Graph
    flow: np.ndarray

    def __post_init__(self):
        flow = np.asarray(self.flow, dtype=np.complex128)
        if flow.shape != (self.graph.arc_count,):
            raise ValueError(
                f"circulation needs {self.graph.arc_count} arc values, got {flow.shape}"
            )
        self.flow = flow

    def check(self, tol: float = 1e-9) -> None:
        """Raise ValueError naming the first node of the double (u_out = u,
        then v_in = n + v) whose net outflow exceeds `tol`."""
        g = self.graph
        net = np.concatenate(
            [self.flow[g.out_arcs].sum(axis=1), -self.flow[g.out_arcs ^ 1].sum(axis=1)]
        )
        bad = np.flatnonzero(np.abs(net) > check_tolerance(tol))
        if bad.size:
            raise ValueError(
                f"flow conservation fails at vertex {int(bad[0])}: "
                f"net outflow {net[bad[0]]:.3e}"
            )


# ======================================================================================
# Networks from starting states
# ======================================================================================


def network_from_state_double(
    state: ArcState, zero_tol: float = ZERO_AMPLITUDE_TOL
) -> ElectricNetwork:
    """Network on the bipartite double graph induced by a starting state.

    Nodes are v_out = v and v_in = n + v.  Each arc (u, v) with amplitude
    delta contributes a unit resistor {u_out, v_in} when delta = 0, otherwise
    an injection of delta at v_in balanced by -delta at u_out.
    """
    psi = ensure_normalized(state)
    g = psi.graph
    return _network(2 * g.n, g.arc_tails, g.n + g.arc_heads, psi.amplitudes, zero_tol)


def network_from_selfflip_state(
    state: ArcState,
    zero_tol: float = ZERO_AMPLITUDE_TOL,
    selfflip_tol: float = 1e-9,
) -> ElectricNetwork:
    """Network on the base graph itself, valid only for self-flip states.

    Each undirected edge {u, v} (u < v) is visited once with delta = <uv|psi>:
    a unit resistor when delta = 0, otherwise inject delta at v, extract at u.
    """
    psi = ensure_normalized(state)
    if not is_selfflip_state(psi, selfflip_tol):
        raise ValueError(
            "self-flip network needs a self-flip state "
            "(<uv|psi> = -<vu|psi> on every edge)"
        )
    g = psi.graph
    return _network(g.n, g.edges[:, 0], g.edges[:, 1], psi.amplitudes[0::2], zero_tol)


def _network(
    node_count: int, tails: np.ndarray, heads: np.ndarray, delta: np.ndarray, zero_tol: float
) -> ElectricNetwork:
    """Unit resistor tails[i] -- heads[i] where |delta[i]| <= zero_tol, else
    delta[i] in at heads[i] and out at tails[i].  In the callers' sorted link
    order a node's head links precede its tail links: sums run in link order."""
    is_resistor = np.abs(delta) <= check_tolerance(zero_tol)
    injections = np.zeros(node_count, dtype=np.complex128)
    np.add.at(injections, heads[~is_resistor], delta[~is_resistor])
    np.add.at(injections, tails[~is_resistor], -delta[~is_resistor])
    resistors = np.column_stack([tails[is_resistor], heads[is_resistor]])
    return ElectricNetwork(node_count, resistors, injections)


# ======================================================================================
# Kirchhoff solver
# ======================================================================================
#
# Every system is a Laplacian A on all of its nodes: a network's or a
# projection's on the double, g's L, or g's signless Q solved as S Q S, which
# is L on a bipartite component and positive definite, with no pin, on a
# component with an odd cycle (see the L (+) Q section below).  Every other
# component is singular and has one pin r, and its kernel vector is the
# component's indicator w: w^T A = 0.  A dense system is pinned: 1 is added
# to the diagonal at r, which makes it positive definite.  Pinning is exact:
# the sum of a component's rows of (A + e_r e_r^T) x = b gives
# x_r = s = w^T b, so a balanced b (s = 0) forces x_r = 0 and A x = b, the
# system grounded at r, while a b off by s raises the component's
# potentials by s and leaves every drop as it is.
#
# CG reaches the same pinned solution without the pin.  With
# b' = b - s e_r on each component, so that w^T b' = 0, the singular system
# A y = b' is consistent, and Jacobi-preconditioned CG converges on it
# (Kaasschieter, J. Comput. Appl. Math. 24, 1988): w^T A = 0 keeps every
# residual in A's range, and the rate is set by the smallest nonzero
# eigenvalue, a component's Fiedler value.  y may carry any constant on a
# component; x = y + (s - y_r) w drops it and is the pinned solution,
# x_r = s included.
# The pinned matrix's smallest eigenvalue is near the grounded Laplacian's,
# about 1 / (n times the mean resistance to r), far below the Fiedler value:
# a pair on torus 2:100 takes 248 iterations against 401 pinned.  Adding
# the projector J onto A's null space to A, the regularization of Bochev &
# Lehoucq (SIAM Review 47, 2005), gains nothing: where the diagonal is
# constant, as on g's own systems, the Jacobi directions stay orthogonal to
# w and J p is rounding noise (248 iterations either way), and on a
# network's irregular diagonal J adds iterations (49 against 36 on the
# network of a flip part near one vertex of torus 2:24).
#
# When every link joins a red node to a black one, as on g's L (and S Q S,
# which is L there) when every component of g is bipartite, red being
# g.coloring's +1, and on every network and projection on the bipartite
# double, red being the out-nodes, A = [[D_r, -B], [-B^T, D_b]] in the order
# (red, black), with B the red x black link counts and D the link counts.
# The black rows give y_b = D_b^-1 (b_b + B^T y_r), so CG runs on the red
# class alone: S y_r = b_r + B D_b^-1 b_b, with S = D_r - B D_b^-1 B^T the
# Schur complement, preconditioned by D_r.  That is Reid's reduced system
# (Reid, "The use of conjugate gradients for systems of linear equations
# possessing 'Property A'", SIAM J. Numer. Anal. 9, 1972; Hageman & Young,
# "Applied Iterative Methods", 1981): CG on it takes every other step of
# Jacobi-CG on A started with a zero black residual, on half the unknowns,
# at about the cost of one product with A per step.  A component's
# indicator, cut to its red nodes, is in S's kernel, and a balanced b gives
# a consistent reduced system, so the shift above applies to y unchanged.
# The stop is _pcg's on the reduced system: its residual is A's on the red
# rows (the recovery makes the black rows 0), held to 1e-13 max(1, |b_r +
# B D_b^-1 b_b|), which on a pair (|b| = 1.41, reduced 0.87) is a little
# stricter than CG on A.  A pair takes 125 iterations against 248 on torus
# 2:100, 366 against 727 on torus 2:300 and 6 against 12 on Q_12.
# Jacobi-CG on A from y = 0 need not be two reduced steps apart: on the
# double network of an edge state on torus 2:100, whose injections sit at
# both ends of the removed arc, it takes 251 iterations, the reduced
# system 171, and Jacobi-CG on A from the zero-black-residual start 341.
# D_r rather than S's own diagonal D_r - (B o B) D_b^-1 1 is the
# preconditioner Reid's equivalence needs; the two differ only where the
# degrees do, and there D_r took 17 iterations against 21 on the network of
# an edge state on torus 2:10 (18 on A) and 18 against 16 on the flip-part
# network above (36 on A).  A system with an odd cycle, or whose caller
# offers no colouring, runs CG on A.
#
# Either way a potential means the same: the pinned potential is the
# component's imbalance s, rounding noise rather than a literal 0 for a
# balanced b, and only drops and pair sums are read from the solutions.
# (Doyle & Snell, "Random Walks and Electric Networks", section 1.3, for
# grounding.)


def _pins(roots: np.ndarray, ground: int | None = None) -> np.ndarray:
    """One node per component of the labeling `roots` (see label_components):
    its root, its smallest node, or `ground` in ground's own component."""
    is_pin = roots == np.arange(roots.size)
    if ground is not None:
        is_pin[roots[ground]] = False
        is_pin[ground] = True
    return np.flatnonzero(is_pin)


def _laplacian(
    node_count: int, tails: np.ndarray, heads: np.ndarray, pins: np.ndarray,
    signs: float | np.ndarray = -1.0, *, dense: bool = False,
) -> np.ndarray | sp.csr_matrix:
    """The pinned Laplacian of the links {tails[i], heads[i]} on all
    `node_count` nodes: link i puts signs[i] (a scalar: on every link) at
    both of its off-diagonal entries, -1 for a Laplacian and +1 for g's
    signless Q on a component with an odd cycle (see _g_potentials), and a
    node's diagonal counts its links plus 1 if it is in `pins` (none: the
    Laplacian itself).  A numpy array when `dense`; else a scipy CSR matrix
    from one COO with one diagonal entry per node.  Both hold the same small
    integers, summed exactly, so they are equal entry for entry."""
    off = np.full(tails.shape, signs, dtype=np.float64)
    diagonal = np.bincount(np.concatenate([tails, heads, pins]), minlength=node_count)
    if dense:
        entries = np.concatenate([tails * node_count + heads, heads * node_count + tails])
        matrix = np.bincount(entries, np.concatenate([off, off]), minlength=node_count**2)
        matrix[:: node_count + 1] += diagonal
        return matrix.reshape(node_count, node_count)
    import scipy.sparse as sp  # only CG-sized systems pay for this import

    # Each row lists its links to smaller nodes, itself, then its links to
    # larger ones.  Links sorted by (tail, head) with tail < head, as g's
    # edges are, give every row sorted and free of duplicates, so scipy's
    # COO-to-CSR step keeps them as they are and sorts nothing.  The indices
    # are the int32 that scipy would convert them to.
    nodes = np.arange(node_count)
    rows = np.concatenate([heads, nodes, tails], dtype=np.int32, casting="same_kind")
    cols = np.concatenate([tails, nodes, heads], dtype=np.int32, casting="same_kind")
    values = np.concatenate([off, diagonal, off])
    return sp.csr_matrix((values, (rows, cols)), shape=(node_count, node_count))


def _solve(
    node_count: int, tails: np.ndarray, heads: np.ndarray, roots: np.ndarray, pins: np.ndarray,
    rhs: np.ndarray, signs: float | np.ndarray = -1.0,
    classes: Callable[[], np.ndarray | None] | None = None,
) -> np.ndarray:
    """Solve _laplacian(node_count, tails, heads, pins, signs) x = rhs, with
    `roots` the components (see label_components) and `pins` one node of
    each singular one, for one right-hand side of shape (node_count,) or a
    block of them, (node_count, k), real or complex; x has its shape and
    dtype.  The real and imaginary parts are solved as real columns, and a
    column that is 0 off the pins is not solved at all: its potentials are
    0, as grounding at the pins would give.  The columns left are solved
    densely when there are at most _DENSE_MAX_NODES or at most as many nodes
    as columns (the dense matrix is then no bigger than the right-hand
    sides), otherwise column by column by CG on the unpinned matrix with the
    balanced right-hand side, shifted back to the pinned solution (see the
    block comment above).  A balanced column already within CG's stop is not
    solved: x is s on each pinned component.

    `classes`, for a Laplacian (signs -1), is called when the first column
    reaches CG; it returns None or a boolean mask of the red nodes.  When
    every link joins a red node to a black one, CG runs on the red class
    alone (_RedBlack)."""
    block = rhs.reshape(node_count, -1)
    is_complex = np.iscomplexobj(block)
    columns = np.concatenate([block.real, block.imag], axis=1) if is_complex else block
    pinned_roots = roots[pins]
    nonzero = columns != 0
    nonzero[pins] = False
    solved = np.flatnonzero(nonzero.any(axis=0))
    solution = np.zeros(columns.shape)
    if solved.size and node_count <= max(_DENSE_MAX_NODES, solved.size):
        matrix = _laplacian(node_count, tails, heads, pins, signs, dense=True)
        solution[:, solved] = np.linalg.solve(matrix, columns[:, solved])
    elif solved.size:
        cg = None
        for j in solved:
            b = columns[:, j].copy()
            imbalance = np.bincount(roots, b, minlength=node_count)[pinned_roots]
            b[pins] -= imbalance
            y = np.zeros(node_count)
            if np.linalg.norm(b) > _CG_TOL:  # else _pcg returns y = 0 at once
                if cg is None:
                    cg = _cg_solver(node_count, tails, heads, signs, classes)
                y = cg(b)
                imbalance -= y[pins]
            shift = np.zeros(node_count)
            shift[pinned_roots] = imbalance
            y += shift[roots]
            solution[:, j] = y
    if is_complex:
        k = block.shape[1]
        solution = solution[:, :k] + 1j * solution[:, k:]
    return solution.reshape(rhs.shape)


def _cg_solver(
    node_count: int, tails: np.ndarray, heads: np.ndarray, signs: float | np.ndarray,
    classes: Callable[[], np.ndarray | None] | None,
) -> Callable[[np.ndarray], np.ndarray]:
    """b -> y with A y = b for a balanced b, A the unpinned Laplacian: CG
    on the red class when `classes` gives a mask that every link crosses,
    else CG on A (see _solve)."""
    red = None if classes is None else classes()
    if red is not None and np.all(red[tails] != red[heads]):
        return _RedBlack(tails, heads, red).solve
    unpinned = _laplacian(node_count, tails, heads, tails[:0], signs)  # no pins
    return lambda b: _pcg(unpinned, b)


class _RedBlack:
    """S = D_r - B D_b^-1 B^T, the Laplacian of links that each join a red
    node to a black one reduced to its red class (see the block comment
    above _solve), as an operator for _pcg: `@`, and `diagonal()`, the
    preconditioner _pcg reads, which here gives D_r rather than S's own
    diagonal.  B holds the red x black link counts (parallel links summed)
    and D the link counts; 1 / D of an isolated node is taken as 0."""

    def __init__(self, tails: np.ndarray, heads: np.ndarray, red: np.ndarray):
        import scipy.sparse as sp

        self.red, self.black = np.flatnonzero(red), np.flatnonzero(~red)
        position = np.empty(red.size, dtype=np.int32)
        position[self.red] = np.arange(self.red.size)
        position[self.black] = np.arange(self.black.size)
        shape = (self.red.size, self.black.size)
        tail_red = red[tails]
        r = position[np.where(tail_red, tails, heads)]
        c = position[np.where(tail_red, heads, tails)]
        b = sp.csr_matrix((np.ones(r.size), (r, c)), shape=shape)
        self.bt = b.T.tocsr()
        self.d_red = b @ np.ones(shape[1])
        d_black = self.bt @ np.ones(shape[0])
        self.inv_black = np.divide(1.0, d_black, out=np.zeros(shape[1]), where=d_black > 0)
        b.data *= self.inv_black[b.indices]
        self.scaled = b  # B D_b^-1

    def diagonal(self) -> np.ndarray:
        return self.d_red

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        return self.d_red * p - self.scaled @ (self.bt @ p)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """y with A y = b for a balanced b: S y_r = b_r + B D_b^-1 b_b by
        _pcg, then y_b = D_b^-1 (b_b + B^T y_r)."""
        b_black = b[self.black]
        y_red = _pcg(self, b[self.red] + self.scaled @ b_black)
        y = np.empty(b.size)
        y[self.red] = y_red
        y[self.black] = self.inv_black * (b_black + self.bt @ y_red)
        return y


def _pcg(
    a: sp.csr_matrix, b: np.ndarray, tol: float = _CG_TOL, max_iter: int | None = None,
) -> np.ndarray:
    """Conjugate gradients for a, which must be positive definite, or
    positive semidefinite with b orthogonal to its null space, with
    a.diagonal() as the preconditioner (Jacobi for a matrix; D_r, not S's
    diagonal, for a _RedBlack); raises ConvergenceError if the residual
    stays above tol * max(1, |b|) after `max_iter` iterations (default
    20 n).  The updates run in place; only the product a @ p allocates."""
    n = b.size
    if max_iter is None:
        max_iter = 20 * n
    diag = a.diagonal()
    inv_diag = np.where(diag > 0, 1.0 / np.maximum(diag, 1e-300), 1.0)
    x = np.zeros(n)
    r = b - a @ x
    z = inv_diag * r
    p = z.copy()
    step = np.empty(n)
    rz = float(r @ z)
    stop = tol * max(1.0, float(np.linalg.norm(b)))
    for _ in range(max_iter):
        if np.linalg.norm(r) <= stop:
            return x
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(ap, alpha, out=ap)
        np.multiply(inv_diag, r, out=z)
        rz_next = float(r @ z)
        p *= rz_next / rz
        p += z
        rz = rz_next
    residual = float(np.linalg.norm(r))
    if residual > stop:
        raise ConvergenceError(
            f"conjugate gradients did not converge in {max_iter} iterations "
            f"(residual {residual:.3e}, target {stop:.3e})"
        )
    return x


# ======================================================================================
# The Laplacian and signless Laplacian of g
# ======================================================================================
#
# Every system on the bipartite double is a pair of systems on g.  In the
# node order (out, in) the double's Laplacian is [[D, -A], [-A, D]], with D
# the degree and A the adjacency matrix of g.  The orthogonal change of
# variables (x, y) -> (x + y, x - y) / sqrt(2) turns it into L (+) Q, g's
# Laplacian L = D - A next to its signless Laplacian Q = D + A, and turns
# an injection (o, i) at the out- and in-nodes into (o + i, o - i) / sqrt(2).
# So L p = o + i and Q q = o - i on g's own vertices give the double's
# potentials ((p + q) / 2, (p - q) / 2) and the drop
# (p_u - p_v + q_u + q_v) / 2 along its edge u_out -- v_in.  A unit current
# from a_out to b_in is the injection (e_a, -e_b), so
#
#     omega_double(a, b) = (omega + rho) / 2,  where
#     omega = x_a - x_b with L x = e_a - e_b (g's own resistance distance),
#     rho = y_a + y_b with Q y = e_a + e_b.
#
# L is pinned at each component's root.  Q is solved as S Q S, with S the
# diagonal of the signs in g.coloring: Q y = b is S Q S z = S b with
# y = S z.  Flipping signs is exact in floating point, so this is the same
# arithmetic, and the CG iterates are S times those on Q.  On a
# bipartite component S is its +-1 coloring and S Q S = L, with the same
# integer entries and the pin at the root; on a component with an odd cycle
# S = 1 and Q is positive definite, solved unpinned.  On a bipartite
# component b_in is reachable from a_out only when b has the other color,
# where S (e_a + e_b) = S_a (e_a - e_b), so y = S_a S x and rho = omega
# with no Q solve.  (Doyle & Snell, "Random Walks and Electric
# Networks", section 1.3, for the resistance; Cvetkovic, Rowlinson & Simic,
# "Signless Laplacians of finite graphs", 2007, for Q.)
#
# Two vertices take L, then Q, as two solves (_pair_potentials).  A wider
# state's flip part is projected on the double itself (oscillation._flip_part).


def _g_potentials(
    g: Graph, l_rhs: np.ndarray | None = None, q_rhs: np.ndarray | None = None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(x, None) with L x = l_rhs when q_rhs is None, else (None, y) with
    Q y = q_rhs, on g, from one solve of L or of S Q S; the right-hand side
    is a real or complex (n, k) block.  L is pinned at each component's
    root, S Q S at the roots of the bipartite components, where it is L."""
    n, (tails, heads), roots = g.n, g.edges.T, g.component_roots
    pins, classes = _pins(roots), lambda: _g_classes(g)
    if q_rhs is None:
        return _solve(n, tails, heads, roots, pins, l_rhs, classes=classes), None
    signs, bipartite = g.coloring
    q_pins, q_links, s = pins[bipartite[pins]], signs[tails] * signs[heads], signs[:, None]
    return None, s * _solve(n, tails, heads, roots, q_pins, s * q_rhs, q_links, classes)


def _g_classes(g: Graph) -> np.ndarray | None:
    """The red class of g's L (and of S Q S, which is L here): where
    g.coloring is +1; None when a component of g has an odd cycle.  A
    bipartite component of a regular graph has as many vertices of each
    colour, so an odd n has an odd cycle, found without labeling the
    double."""
    if g.n % 2:
        return None
    signs, bipartite = g.coloring
    if not bipartite.all():
        return None
    return signs > 0


@dataclass(frozen=True)
class _PairPotentials:
    """x = L^+ (e_u - e_v) and y = Q^+ (e_u + e_v) for two vertices u and v
    of one component of g, pinned as in _g_potentials; y is None when it
    was not asked for."""

    u: int
    v: int
    x: np.ndarray
    y: np.ndarray | None

    @property
    def omega(self) -> float:
        return float(self.x[self.u] - self.x[self.v])

    @property
    def rho(self) -> float:
        return float(self.y[self.u] + self.y[self.v])

    @property
    def omega_double(self) -> float:
        return (self.omega + self.rho) / 2


def _pair_potentials(g: Graph, u: int, v: int, signless: bool) -> _PairPotentials:
    """x alone, or with `signless` x and y: L, then Q, as two solves (u = v
    gives x = 0 without one).  Q is solved only on a component with an odd
    cycle; on a bipartite one, where u and v must then have different
    colors, y = S_u S x."""
    rhs = np.zeros((g.n, 1))
    rhs[u] += 1.0
    rhs[v] -= 1.0
    x, y = _g_potentials(g, rhs)[0][:, 0], None
    if signless:
        signs, bipartite = g.coloring
        if bipartite[u]:
            y = signs[u] * signs * x
        else:
            rhs = np.zeros((g.n, 1))
            np.add.at(rhs, ([u, v], 0), 1.0)
            y = _g_potentials(g, q_rhs=rhs)[1][:, 0]
    return _PairPotentials(u, v, x, y)


def _balanced_roots(net: ElectricNetwork) -> np.ndarray | None:
    """Component roots of the network's resistors, or None when some
    component's injections do not sum to ~0, so that no steady current
    exists."""
    tails, heads = net.resistor_edges.T
    roots = label_components(net.node_count, tails, heads)
    component_sums = np.zeros(net.node_count, dtype=np.complex128)
    np.add.at(component_sums, roots, net.injections)
    return None if np.any(np.abs(component_sums) > FEASIBILITY_TOL) else roots


def solve_network(net: ElectricNetwork, *, ground: int | None = None) -> FlowSolution:
    """Kirchhoff currents, node potentials, and power of a network.

    A component whose injections do not sum to ~0 makes the network
    infeasible (power = +infinity); this is a value, not an error.  Currents
    are unique, so the result does not depend on the grounding choice
    (`ground` forces a specific node to be its component's pinned node,
    which is useful for testing exactly that).  CG is offered the first half
    of the nodes as the red class (_first_half).
    """
    roots = _balanced_roots(net)
    if roots is None:
        return FlowSolution(feasible=False, currents=None, potentials=None, power=math.inf)

    tails, heads = net.resistor_edges.T
    potentials = _solve(net.node_count, tails, heads, roots, _pins(roots, ground), net.injections,
                        classes=_first_half(net.node_count))
    currents = potentials[tails] - potentials[heads]
    power = float(np.vdot(currents, currents).real)
    return FlowSolution(feasible=True, currents=currents, potentials=potentials, power=power)


def _first_half(node_count: int) -> Callable[[], np.ndarray]:
    """The red class offered for links on the bipartite double, its out-nodes;
    _cg_solver takes it only when every link joins the two halves."""
    return lambda: np.arange(node_count) < node_count // 2


def circulation_projection(
    node_count: int, tails: np.ndarray, heads: np.ndarray, flow: np.ndarray
) -> np.ndarray:
    """Orthogonal projection of a flow on unit resistors onto the circulations.

    Resistor i runs from tails[i] to heads[i]; `flow` is one flow of shape
    (len(tails),) or a block of k flows, (len(tails), k), projected with one
    labeling and one Laplacian; a real flow gives a real projection.
    Injecting the flow's divergence (+flow at each tail, -flow at each head)
    drives potentials x with L x = B flow; the drops x[tail] - x[head] are
    the gradient part B^T L^+ B flow, and what remains conserves flow at
    every node.
    """
    return _circulation_projection(
        node_count, tails, heads, flow, label_components(node_count, tails, heads)
    )


def _circulation_projection(
    node_count: int, tails: np.ndarray, heads: np.ndarray, flow: np.ndarray, roots: np.ndarray
) -> np.ndarray:
    """circulation_projection, given the links' components `roots` (see
    label_components); CG is offered _first_half as the red class."""
    flow = np.asarray(flow, dtype=np.complex128 if np.iscomplexobj(flow) else np.float64)
    divergence = np.zeros((node_count,) + flow.shape[1:], dtype=flow.dtype)
    np.add.at(divergence, tails, flow)
    np.add.at(divergence, heads, -flow)
    potentials = _solve(node_count, tails, heads, roots, _pins(roots), divergence,
                        classes=_first_half(node_count))
    return flow - (potentials[tails] - potentials[heads])


def resistance_distance(g: Graph, a: int, b: int, *, double: bool = False) -> float:
    """Effective resistance between a and b with every edge a unit resistor;
    with `double`, between a_out = a and b_in = n + b on the bipartite double
    of g (one resistor u_out -- v_in per arc (u, v)), where a = b is allowed.

    The double is never built: omega_double = (omega + rho) / 2, with rho
    from g's signless Laplacian (see the block comment above _g_potentials).
    That costs one Laplacian solve, plus one signless-Laplacian solve when
    a's component is not bipartite.
    """
    _check_terminals(g, a, b, double)
    pot = _pair_potentials(g, a, b, signless=double)
    return pot.omega_double if double else pot.omega


def resistance_distances(g: Graph, a: int, b: int) -> tuple[float, float]:
    """(omega, omega_double): resistance_distance(g, a, b) and
    resistance_distance(g, a, b, double=True) from the same solves."""
    _check_terminals(g, a, b, double=False)
    _check_terminals(g, a, b, double=True)
    pot = _pair_potentials(g, a, b, signless=True)
    return pot.omega, pot.omega_double


def _check_terminals(g: Graph, a: int, b: int, double: bool) -> None:
    if a == b and not double:
        raise ValueError(f"resistance distance needs distinct vertices, got a = b = {a}")
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise ValueError(f"vertex out of range: a={a}, b={b}, n={g.n}")
    roots, b_node = (g.double_roots, g.n + b) if double else (g.component_roots, b)
    if roots[a] != roots[b_node]:
        raise ValueError(f"vertices {a} and {b_node} lie in different components")


# ======================================================================================
# States on one edge: the transfer-current block
# ======================================================================================
#
# Let a state's nonzero amplitudes delta sit on a set S of arcs, and let
# K = B_S^T L_D^+ B_S be the transfer-current matrix of the double on S
# (Burton & Pemantle, Ann. Probab. 21, 1993), B_S the double's incidence
# columns of S.  The flip part is psi - B_D^T L_D^+ B_S delta, so
# alpha_sq = 1 - delta* K delta.  The network takes the arcs of S out of the
# resistors, which lowers L_D by B_S B_S^T, so by Woodbury (Hager, SIAM
# Review 31, 1989) a feasible network dissipates P = delta* K (I - K)^-1 delta.
# For the two arcs (u, v) and (v, u) of one edge, K has the eigenvectors
# (1, -1) and (1, 1) with the eigenvalues omega(u, v) and
# rho = (e_u + e_v)^T Q^+ (e_u + e_v); one arc alone has
# K = omega_double(u, v) = (omega + rho) / 2, so 1 / (1 + P) = 1 - K =
# alpha_sq: an edge state's bound is tight on every graph, and so is a
# self-flip state's on one edge (alpha_sq = 1 - omega in both networks).
# I - K is singular exactly when the arcs hold a cut of the double, so
# feasibility is decided by labeling the network, as solve_network does, and
# K is used only on a feasible one.  Near a cut P keeps a relative accuracy
# of about eps / lambda_min(I - K): 2n eps on the cycle C_n.


def _series(weight: float, k: float) -> float:
    """weight * k / (1 - k), the term of one eigenvalue k of K; a zero weight
    gives 0 (then 1 - k may be 0)."""
    return weight * k / (1.0 - k) if weight else 0.0


def _edge_double_power(pot: _PairPotentials, delta: np.ndarray, zero_tol: float) -> float:
    """P of the feasible double network of a state whose nonzero amplitudes
    are delta = (<uv|psi>, <vu|psi>) on the edge {u, v}; an amplitude at or
    below zero_tol stays a resistor."""
    kept = np.abs(delta) > check_tolerance(zero_tol)
    if kept.all():
        minus, plus = delta[0] - delta[1], delta[0] + delta[1]
        power = _series(abs(minus) ** 2 / 2, pot.omega)
        return power + _series(abs(plus) ** 2 / 2, pot.rho) if plus else power
    if kept.any():
        return _series(abs(delta[kept][0]) ** 2, pot.omega_double)
    return 0.0


def _edge_selfflip_power(pot: _PairPotentials, delta: np.ndarray, zero_tol: float) -> float:
    """P of the feasible self-flip network of the same state: delta[0] enters
    at v and leaves at u of g without the edge, whose resistance between u
    and v is omega / (1 - omega) (a unit resistor in parallel gives omega)."""
    weight = abs(delta[0]) ** 2 if abs(delta[0]) > check_tolerance(zero_tol) else 0.0
    return _series(weight, pot.omega)


# ======================================================================================
# Circulations <-> flip states
# ======================================================================================


def flip_to_circulation(g: Graph, state: ArcState, tol: float = 1e-9) -> Circulation:
    """Image of a flip state on g as a circulation on its bipartite double:
    f(u_out, v_in) = <uv|state>, so the flow is the amplitude array itself."""
    if state.graph is not g:
        raise ValueError("state is not bound to the given graph")
    if not is_flip_state(state, tol):
        raise ValueError("state is not a flip state (nonzero vertex average)")
    return Circulation(g, state.amplitudes)


def circulation_to_flip(g: Graph, circulation: Circulation, tol: float = 1e-9) -> ArcState:
    """Inverse of flip_to_circulation; the result is an unnormalized flip
    state.  The circulation must be on g or on an equal graph, and its
    conservation is checked first."""
    other = circulation.graph
    if other.n != g.n or not np.array_equal(other.edges, g.edges):
        raise ValueError("circulation is not defined on the bipartite double of this graph")
    circulation.check(tol)
    return ArcState(g, circulation.flow)


def completed_circulation(
    g: Graph,
    state: ArcState,
    solution: FlowSolution,
    zero_tol: float = ZERO_AMPLITUDE_TOL,
) -> Circulation:
    """Extend a starting state to a circulation on the bipartite double by
    filling its zero-amplitude arcs with the solved resistor currents.

    `solution` must come from solve_network(network_from_state_double(state)).
    The resulting flip state phi' satisfies <state|phi'> = 1 and
    ||phi'||^2 = 1 + power.
    """
    if not solution.feasible:
        raise ValueError("cannot complete a circulation from an infeasible flow")
    amps = ensure_normalized(state).amplitudes
    drops = solution.potentials[g.arc_tails] - solution.potentials[g.n + g.arc_heads]
    return Circulation(g, np.where(np.abs(amps) <= check_tolerance(zero_tol), drops, amps))


# ======================================================================================
# Bounds
# ======================================================================================


def bounds_from_power(power: float, mode: str) -> tuple[float, float]:
    """(alpha_sq lower bound, return-overlap lower bound) from dissipation.

    mode "double": the network lives on the bipartite double and contributes
    power P once; mode "selfflip": the network lives on G and every resistor
    current counts twice (both arc orientations), so P enters doubled.
    Infinite power gives the vacuous pair (0, -1).
    """
    if mode not in ("double", "selfflip"):
        raise ValueError(f"mode must be 'double' or 'selfflip', got {mode!r}")
    if power < 0:
        raise ValueError(f"power must be nonnegative, got {power}")
    if math.isinf(power):
        return 0.0, -1.0
    effective = power if mode == "double" else 2.0 * power
    return 1.0 / (1.0 + effective), (1.0 - effective) / (1.0 + effective)


def parallel_resistance_identity(resistance: float) -> float:
    """Resistance of a unit resistor in parallel with `resistance`:
    1 - 1/(1 + R)."""
    if resistance < 0:
        raise ValueError(f"resistance must be nonnegative, got {resistance}")
    return 1.0 - 1.0 / (1.0 + resistance)


def paths_resistance_bound(lengths: Sequence[int]) -> float:
    """Harmonic-sum upper bound on resistance from edge-disjoint path lengths."""
    if not lengths:
        raise ValueError("paths bound needs at least one path")
    if any(length < 1 for length in lengths):
        raise ValueError(f"path lengths must be >= 1, got {tuple(lengths)}")
    return 1.0 / sum(1.0 / length for length in lengths)


def localization_verdict(omega: float) -> str:
    """Verdict string for a resistance distance between the relevant
    terminals: below 1/2 certifies (oscillatory) localization."""
    return CERTIFIED if omega < 0.5 else NOT_CERTIFIED
