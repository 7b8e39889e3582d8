"""States on the arc space and the coined quantum walk U = S (I x C).

The coin C is the Grover diffusion on each vertex's outgoing arcs (inversion
about the average outgoing amplitude) and S is the flip-flop shift that swaps
the amplitudes of (u, v) and (v, u).  Both are real orthogonal maps, so the
walk preserves realness and the 2-norm.

`apply_coin`, `apply_shift` and `walk_step` act on one `ArcState` in arc order
and, with `dense_walk_matrix`, are the single-step reference.  Many steps
(`evolve`, and `oscillation.measured_overlaps`) walk the vertex means of the
state instead of its arcs.  Let x_t = U^t psi, and mu_t and iota_t its
out- and in-means (the mean of x_t over each vertex's out- and in-arcs).  As
(C x)_a = 2 mu[tail a] - x_a, x_(t+1)[a] = 2 mu_t[head a] - x_t[rev a], whose
in-means are iota_(t+1) = mu_t.  So, with A the adjacency matrix of g,

    mu_(t+1) = (2/d) A mu_t - mu_(t-1),    mu_-1 = iota_0,

a Chebyshev recurrence in A/d (Szegedy's spectral lemma; Higuchi, Konno,
Sato & Segawa, J. Funct. Anal. 267, 2014).  A step is one product with A on
the vertices, where a step on the arcs reads and writes its d m amplitudes
several times: for each column block of a (d, m) neighbour table, one gather
of the means it names, a sum over its rows, a scale and a subtraction, done
while the block is in cache (_GATHER_BYTES).  Each mean is summed over the
same rows in the same order whatever the blocks.  The walk is real, so a
start whose imaginary part is zero walks in float64, and each part of a
complex start is summed in the order of a real one.

The overlaps and states come from the means.  The flip of a state is its
shift negated, so with E_t = <psi|x_t> and s_out, s_in the out- and in-sums
of psi, at even t

    |<~psi|U^(t+1) psi>| = |<psi|C x_t>| = |2 <s_out, mu_t> - E_t|,
    E_(t+2) = E_t - 2 <s_out, mu_t> + 2 <s_in, mu_(t+1)>,    E_0 = <psi|psi>,

two dots over the vertices per two steps, and x_t is psi - 2 P[tail] +
2 Q[head] at even t and -S psi + 2 P[head] - 2 Q[tail] at odd t, with P and
Q the sums of mu_s over the even and the odd s < t.

The means move one hop per step, so mu_t is exactly 0 off the ball
B(V0, t) around the vertex set V0 (the tails of the start's nonzero arcs),
its light cone, and iota_0 off B(V0, 1).  The stepper walks only that cone,
in *windows*: from step t0 it steps the m vertices of B(V0, t0 + k) for
k = _CONE_BLOCK steps, then grows the ball and carries the means over.  A
neighbour outside the window reads a sink that holds 0, and 0 is what the
full walk reads there, since within the block no mean reaches the window's
edge; the sums run over the same table rows in the same order, so every mean
in the window is the full walk's bit for bit until the full walk first
re-imposes its conserved sums (below).  Once the next window would hold
_CONE_SHARE (half) of g's vertices or more, the walk takes all of g, which is
simply the last window, for the remaining steps; a ball that stops growing
holds whole components and is the last window too.  A start nonzero on half
the arcs or more, such as a random state, takes all of g at once.

At the eigenvalues 1 and -1 of A/d the recurrence is a Jordan block.  Exact
arithmetic keeps the sum of mu_t over each component at that of mu_0, and
the sum of s mu_t over each bipartite one, s its colour signs, at (-1)^t
times that of mu_0.  Rounding breaks both, the break grows linearly in t,
and so the overlap error like t^2 (3e-10 at t = 30,000 on Q_6).  So
a window of whole components (all of g, or a ball that stopped growing)
re-imposes those sums on the means of the last two steps every _CONE_BLOCK
steps, taking its components from g.component_roots and its signs from
g.coloring; a cone window cannot, as the sums run over whole components.
The same parts would make P and Q grow like t and round off, so evolve's
sums leave them out: they cancel in x_t.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _int64_ids

__all__ = [
    "ArcState",
    "VertexAverages",
    "basis_arc_state",
    "uniform_state",
    "vertex_averages",
    "apply_coin",
    "apply_shift",
    "walk_step",
    "evolve",
    "flip_transform",
    "overlap",
    "is_flip_state",
    "is_selfflip_state",
    "check_tolerance",
    "ensure_normalized",
    "dense_walk_matrix",
    "write_state_csv",
    "read_state_csv",
]

NORMALIZATION_TOL = 1e-9
# read_state_csv parses a state file in blocks of about this many characters
# (some 20k rows), which bounds the memory a block's parse takes.
_BLOCK_CHARS = 1 << 20
# One row of a state file.
_STATE_ROW = np.dtype([("arc", np.int64), ("re", np.float64), ("im", np.float64)])
# A norm this close to 1 is 1 up to the rounding of the sum that computed
# it: dividing by it would move the amplitudes by as little and cost a copy.
# That rounding grows with the number of terms.  The sum of a unit state's
# arc_count squared moduli gathers rounding errors of random sign, about
# sqrt(arc_count) eps in all, and how many depends on the BLAS and its
# threads: a complex random state on the 40,000 arcs of torus 2:100 reads
# 1 + 5 eps with one OpenBLAS thread and 1 + eps with two.  So
# ensure_normalized allows max(UNIT_NORM_SLACK, sqrt(arc_count) eps).
UNIT_NORM_SLACK = 4 * np.finfo(np.float64).eps
# The walk steps each window of the light cone this many steps (an even
# number, so every window but the last starts at an even step), and a window
# of whole components re-imposes the conserved sums as often ...
_CONE_BLOCK = 16
# ... and steps all of g once the next window would hold this share of its
# vertices or more.
_CONE_SHARE = 0.5
# A step gathers the means through the neighbour table in column blocks
# whose gathered values take at most this many bytes, and sums, scales and
# subtracts each block while it is still in cache.  A whole (d, m) block
# outgrows an L2 cache of 2 MB per core on large graphs (5.8 MB for a
# complex start on torus 2:300), and each step then writes it out to memory
# and reads it back; a block of this size and its slice of the table (half
# as large again for a complex start, as large for a real one) fit.  Smaller
# blocks only add calls: split in two, the 0.61 MB complex block of K_200
# (d = 199) steps some 10 % slower, so the bound keeps it whole.
_GATHER_BYTES = 5 << 17
# Rows of the stepper's vertex values past the means at even and at odd t:
# the start's out- and in-means mu_0 and mu_-1, then evolve's two sums.
_MU0, _EVEN = 2, 4


@dataclass
class ArcState:
    """One complex amplitude per arc of a bound graph."""

    graph: Graph
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.graph.arc_count,):
            raise ValueError(
                f"state needs {self.graph.arc_count} amplitudes, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("state amplitudes must be finite")
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> ArcState:
        return ArcState(self.graph, self.amplitudes.copy())

    def amplitude(self, u: int, v: int) -> complex:
        """Amplitude on the arc u -> v."""
        return complex(self.amplitudes[self.graph.arc_index(u, v)])


@dataclass(frozen=True)
class VertexAverages:
    """Per-vertex averages of outgoing and incoming arc amplitudes."""

    avg_out: np.ndarray
    avg_in: np.ndarray


def _same_graph(a: ArcState, b: ArcState) -> None:
    if a.graph is not b.graph:
        raise ValueError("states are bound to different graphs")


def check_tolerance(tol: float) -> float:
    """Return `tol` if it is finite and >= 0, else raise ValueError.

    Every comparison with NaN is false and a negative bound admits nothing,
    so either would silently turn a tolerance test into a wrong answer.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    return tol


def ensure_normalized(state: ArcState, tol: float = NORMALIZATION_TOL) -> ArcState:
    """Entry gate for physical operations: return a state whose norm is 1
    up to its rounding (see UNIT_NORM_SLACK) as it is, renormalize one whose
    norm is within `tol` of 1, reject anything farther off."""
    nrm = state.norm()
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"state norm {nrm:.12g} is not within {tol:g} of 1")
    rounding = math.sqrt(state.graph.arc_count) * np.finfo(np.float64).eps
    if abs(nrm - 1.0) <= max(UNIT_NORM_SLACK, rounding):
        return state
    return ArcState(state.graph, state.amplitudes / nrm)


# ======================================================================================
# State constructors
# ======================================================================================


def basis_arc_state(g: Graph, u: int, v: int) -> ArcState:
    """The basis state |uv>: unit amplitude on the arc u -> v."""
    amps = np.zeros(g.arc_count, dtype=np.complex128)
    amps[g.arc_index(u, v)] = 1.0
    return ArcState(g, amps)


def uniform_state(g: Graph, vertices: Iterable[int] | None = None) -> ArcState:
    """Equal superposition over all arcs leaving a vertex set (default: all).

    Amplitude 1/sqrt(d |T|) on every arc (t, v) with t in T; norm 1.  T is
    given by vertex ids; for a boolean mask over the vertices pass
    `np.flatnonzero(mask)` (a boolean array raises GraphError).
    """
    if vertices is None:
        support = np.arange(g.n)
    else:
        listed = vertices if isinstance(vertices, np.ndarray) else list(vertices)
        support = np.unique(_int64_ids(listed, "vertex id"))
        if support.size == 0:
            raise ValueError("uniform state needs a nonempty vertex set")
        if support.min() < 0 or support.max() >= g.n:
            raise ValueError(f"vertex set out of range for n={g.n}")
    amps = np.zeros(g.arc_count, dtype=np.complex128)
    amps[g.out_arcs[support].ravel()] = 1.0 / np.sqrt(g.degree * support.size)
    return ArcState(g, amps)


# ======================================================================================
# Walk operators
# ======================================================================================


def vertex_averages(state: ArcState) -> VertexAverages:
    """Average outgoing/incoming amplitude at every vertex."""
    g = state.graph
    out = state.amplitudes[g.out_arcs].mean(axis=1)
    incoming = state.amplitudes[g.out_arcs ^ 1].mean(axis=1)
    return VertexAverages(avg_out=out, avg_in=incoming)


def apply_coin(state: ArcState) -> ArcState:
    """Grover coin: invert each outgoing amplitude about its vertex average.

    On degree-1 graphs (a single edge) the reflection is the identity.
    """
    g = state.graph
    mean_out = state.amplitudes[g.out_arcs].mean(axis=1)
    return ArcState(g, 2.0 * mean_out[g.arc_tails] - state.amplitudes)


def _reversed_arcs(values: np.ndarray) -> np.ndarray:
    """A copy with the rows of each arc pair swapped: result[a] = values[a ^ 1].

    Arcs 2e and 2e + 1 are the two orientations of edge e, so this swaps
    (u, v) with (v, u) along the first axis of an amplitude vector or matrix.
    """
    pairs = values.reshape(-1, 2, *values.shape[1:])
    return pairs[:, ::-1].copy().reshape(values.shape)


def apply_shift(state: ArcState) -> ArcState:
    """Flip-flop shift: swap the amplitudes of (u, v) and (v, u)."""
    return ArcState(state.graph, _reversed_arcs(state.amplitudes))


def walk_step(state: ArcState) -> ArcState:
    """One application of U = S (I x C)."""
    return apply_shift(apply_coin(state))


def _grow(
    g: Graph, inside: np.ndarray, layer: np.ndarray, layers: int, limit: float
) -> np.ndarray | None:
    """Add up to `layers` layers to the ball `inside` (a vertex mask, grown in
    place) whose last layer is `layer`.  Returns the new last layer, empty
    once the ball holds whole components of g, or None as soon as the ball
    holds `limit` vertices or more."""
    size = np.count_nonzero(inside)
    if size >= limit:
        return None
    stamp = np.empty(g.n, dtype=np.intp)
    for _ in range(layers):
        if not layer.size:
            break
        reached = g.adjacency[layer].ravel()
        reached = reached[~inside[reached]]
        inside[reached] = True
        # reached lists every new vertex, some more than once
        if size + reached.size >= limit and np.count_nonzero(inside) >= limit:
            return None
        # one copy of each vertex: the one whose index its stamp holds
        index = np.arange(reached.size)
        stamp[reached] = index
        layer = reached[stamp[reached] == index]
        size += layer.size
    return layer


def _cone_windows(g: Graph, amps: np.ndarray, steps: int):
    """Yield (inside, stop) for each window of the walk from the start
    `amps`: the mask of the ball B(V0, stop) around the vertices V0 that hold
    the start, or None for all of g, and the step up to which that window
    holds the walk.  The mask is grown in place between windows."""
    limit = _CONE_SHARE * g.n
    nonzero = amps != 0
    # V0 holds at least a d-th as many vertices as the start has nonzero arcs
    if np.count_nonzero(nonzero) >= g.degree * limit:
        del nonzero
        yield None, steps
        return
    layer = g.arc_tails[nonzero]  # V0, a vertex once per arc it holds
    del nonzero
    inside = np.zeros(g.n, dtype=bool)
    inside[layer] = True
    t = 0
    while True:
        stop = min(t + _CONE_BLOCK, steps)
        layer = _grow(g, inside, layer, stop - t, limit)
        if layer is None:
            yield None, steps
            return
        if not layer.size:  # the ball holds whole components of g
            stop = steps
        yield inside, stop
        if stop == steps:
            return
        t = stop


def _window(
    g: Graph, inside: np.ndarray | None, verts: np.ndarray | None, itemsize: int
) -> tuple[list[np.ndarray], list[int], bool]:
    """The neighbour table, in window ids, of the window of the m vertices
    `verts` in the mask `inside` (all of g when None), where the sink m stands
    for a neighbour outside the window, and whether the window holds whole
    components of g (no neighbour lies outside).

    The table comes as its column blocks, with the columns where they start
    and, last, m: C-ordered (d, w) tables whose gathers of values of
    `itemsize` bytes take at most _GATHER_BYTES each, or the whole (d, m)
    table when that fits.  The first block is the widest, and blocks are as
    even as can be and at least two columns wide, so none is a single
    column, which numpy's add.reduce would sum pairwise, in another order
    than a block's rows.
    """
    d = g.degree
    m = g.n if verts is None else verts.size
    count = -(-m // max(3, _GATHER_BYTES // (d * itemsize)))
    cuts = [-(-m * k // count) for k in range(count + 1)]
    tables, whole = [], True
    for lo, hi in zip(cuts, cuts[1:]):
        if verts is None:
            table = np.ascontiguousarray(g.adjacency[lo:hi].T)
        else:
            heads = np.take(g.adjacency, verts[lo:hi], axis=0).T
            table = np.searchsorted(verts, heads)
            outside = ~inside[heads]
            table[outside] = m
            whole = whole and not outside.any()
        tables.append(table)
    return tables, cuts, whole


def _parts(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of the real and imaginary parts of a complex array, or the array."""
    return (x.real, x.imag) if np.iscomplexobj(x) else (x,)


def _drift_terms(g: Graph, verts: np.ndarray | None) -> tuple:
    """For a window of whole components: the component of each of its
    vertices (None when it holds one), the component sizes and each vertex's
    colour sign on a bipartite component, 0 elsewhere (None when no vertex
    lies on one)."""
    labels = g.component_roots if verts is None else g.component_roots[verts]
    if labels.min() == labels.max():
        labels, sizes = None, float(labels.size)
    else:  # 1 for a label no vertex has, which keeps 0 / 0 out
        sizes = np.maximum(np.bincount(labels), 1).astype(np.float64)
    signs, bipartite = g.coloring
    signs = np.where(bipartite, signs, 0.0)
    if verts is not None:
        signs = signs[verts]
    return labels, sizes, signs if signs.any() else None


def _component_means(values: np.ndarray, labels: np.ndarray | None, sizes) -> np.ndarray:
    """The mean of each row of the real (k, m) `values` over each component,
    at each vertex (one column for a window of one component)."""
    if labels is None:
        return values.sum(axis=-1, keepdims=True) / sizes
    return np.stack([(np.bincount(labels, row, sizes.size) / sizes)[labels] for row in values])


def _conserved(x: np.ndarray, terms: tuple, sign=1.0) -> np.ndarray:
    """The part of each row of the (k, m) vertex values x on the eigenvalue 1
    of A/d, plus `sign` times its part on -1: the row's mean on each
    component, and its signed mean on each bipartite one times the signs.
    A complex x takes each of its parts as a real x."""
    labels, sizes, signs = terms
    kept = np.empty_like(x)
    for part, values in zip(_parts(kept), _parts(x)):
        part[...] = _component_means(values, labels, sizes)
        if signs is not None:
            part += sign * _component_means(signs * values, labels, sizes) * signs
    return kept


def _mean_walk(
    psi: ArcState, steps: int, measure: bool = False
) -> tuple[np.ndarray | None, list[np.ndarray], np.ndarray, np.ndarray | None]:
    """Walk the out-means mu_t of `psi` for t < steps (steps >= 0) in the
    windows of its light cone (see the module docstring).

    Each step takes the window's neighbour table block by block (_window):
    each block's gather, row sum, scale and subtraction run before the next
    block's, through one gather buffer of the widest block.

    Returns the last window's vertices (None for all of g), its neighbour
    table's column blocks and its rows of vertex values, each row ending in
    the window's sink, 0: mu_t at the last even and the last odd t < steps
    in rows 0 and 1 (mu_0, and mu_-1 where no odd t is), mu_0 and mu_-1 in
    rows _MU0 and _MU0 + 1 and, without `measure`, P and Q in rows _EVEN and
    _EVEN + 1, both less the same multiple of their parts on the eigenvalues
    1 and -1 of A/d, which cancel in x_t.  With `measure` it also returns the
    overlaps |<psi|U^t psi>| at even t and |<~psi|U^t psi>| at odd t for
    t = 0..steps.
    """
    g = psi.graph
    d = g.degree
    amps = psi.amplitudes
    if not amps.imag.any():
        amps = amps.real  # the walk is real, so a real start stays real
    overlaps = np.empty(steps + 1) if measure else None
    scale = 2.0 / d
    t, verts, rows, even = 0, None, None, None  # even: <psi|U^t psi> at the next even t
    for inside, stop in _cone_windows(g, amps, steps):
        carried, old = verts, rows
        tables = blocks = gather = total = None  # free the last window before this one
        verts = None if inside is None else np.flatnonzero(inside)
        m = g.n if verts is None else verts.size
        rows = np.zeros((4 if measure else 6, m + 1), dtype=amps.dtype)
        if old is None:
            # (d, m) and C-ordered, so that add.reduce sums it row by row, in
            # the order it sums either part of a complex start; indexed, since
            # np.take copies all of a strided real part first
            arcs = (g.out_arcs if verts is None else np.take(g.out_arcs, verts, axis=0)).T.copy()
            held = amps[arcs]  # every arc that holds the start
            even = np.vdot(held, held)
            np.add.reduce(held, axis=0, out=rows[_MU0, :m])
            del held
            arcs ^= 1  # the arcs into the window's vertices
            np.add.reduce(amps[arcs], axis=0, out=rows[_MU0 + 1, :m])
            del arcs
            # a real factor keeps the two parts of a complex start apart
            rows[_MU0 : _MU0 + 2] *= 1.0 / d
            rows[:2] = rows[_MU0 : _MU0 + 2]
        else:  # carry the walk over from the last window
            rows[:, carried if verts is None else np.searchsorted(verts, carried)] = old[:, :-1]
        del old
        tables, cuts, whole = _window(g, inside, verts, amps.itemsize)
        # g.coloring peaks at some 41 B per arc on first use: before the
        # gather block is taken
        terms = _drift_terms(g, verts) if whole and steps > _CONE_BLOCK else None
        means = rows[:2, :m]  # mu_t at even t in row 0, at odd t in row 1
        gather = np.empty(d * cuts[1], dtype=amps.dtype)
        total = np.empty(cuts[1], dtype=amps.dtype)
        # for each row of `means`, what steps the other row's means over it:
        # per column block, its table, gather block, sums and slice of the row
        blocks = [
            [
                (table, gather[: table.size].reshape(table.shape), total[: hi - lo], last[lo:hi])
                for table, lo, hi in zip(tables, cuts, cuts[1:])
            ]
            for last in means
        ]

        def advance(mu, into):  # mu_(t+1) = (2/d) A mu_t - mu_(t-1), over mu_(t-1)
            for table, block, part, last in into:
                mu.take(table, out=block, mode="clip")
                np.add.reduce(block, axis=0, out=part)
                np.multiply(part, scale, out=part)
                np.subtract(part, last, out=last)

        conserved = None
        if terms is not None:
            # what the means keep on the eigenvalues 1 and -1 of A/d, in the
            # rows of `means` (module docstring)
            conserved = _conserved(rows[[_MU0, _MU0], :m], terms, np.array([[1.0], [-1.0]]))
        sums = rows[_EVEN:]  # evolve's P and Q
        for t in range(t, stop, 2):  # every window starts at an even step
            if conserved is not None and t % _CONE_BLOCK == 0 and t:
                # re-impose what rounding drifted off, in place
                means -= _conserved(means, terms)
                means += conserved
            if measure:
                out = d * np.vdot(rows[_MU0], rows[0])
                overlaps[t] = abs(even)
                overlaps[t + 1] = abs(2.0 * out - even)
            if t + 1 == steps:
                if not measure:
                    # P takes mu_t whole, so it leaves out as many conserved
                    # parts as Q: they cancel in U^t psi
                    sums[0] += rows[0]
                break
            advance(rows[0], blocks[1])
            if measure:
                even += 2.0 * (d * np.vdot(rows[_MU0 + 1], rows[1]) - out)
            else:
                sums += rows[:2]
                if conserved is not None:
                    sums[:, :m] -= conserved
            if t + 2 < steps:
                advance(rows[1], blocks[0])
        t = stop
    if measure and steps % 2 == 0:
        overlaps[steps] = abs(even)
    return verts, tables, rows, overlaps


def evolve(state: ArcState, t: int) -> ArcState:
    """Apply the walk t times (t >= 0) to a normalized state.

    The walk steps the vertex means of the state's light cone and builds
    U^t psi from their sums on the arcs of its last window, 0 elsewhere (see
    the module docstring).
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    psi = ensure_normalized(state)
    g = psi.graph
    verts, tables, rows, _ = _mean_walk(psi, t)
    p, q = rows[_EVEN], rows[_EVEN + 1]
    if verts is None:
        arcs, tails, heads = np.arange(g.arc_count), g.arc_tails, g.arc_heads
    else:
        arcs = np.take(g.out_arcs, verts, axis=0).ravel()
        tails = np.repeat(np.arange(verts.size), g.degree)
        heads = np.concatenate([table.T for table in tables]).ravel()
    amps = np.zeros(g.arc_count, dtype=np.complex128)
    if t % 2 == 0:
        amps[arcs] = psi.amplitudes[arcs] - 2.0 * p[tails] + 2.0 * q[heads]
    else:
        amps[arcs] = 2.0 * p[heads] - 2.0 * q[tails] - psi.amplitudes[arcs ^ 1]
    return ArcState(g, amps)


def flip_transform(state: ArcState) -> ArcState:
    """The flipped state: <uv|result> = -<vu|state>.  Unitary involution."""
    return ArcState(state.graph, -_reversed_arcs(state.amplitudes))


def overlap(a: ArcState, b: ArcState) -> complex:
    """Inner product <a|b> (conjugation on the first argument)."""
    _same_graph(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def is_flip_state(state: ArcState, tol: float = 1e-9) -> bool:
    """True iff every vertex's average outgoing and incoming amplitude is
    within `tol` of zero."""
    # The default tol is absolute and assumes a state of norm about 1: its
    # vertex averages are then at most 1/sqrt(d) in modulus, and those of a
    # computed unit flip state are rounding noise (2e-17 to 6e-15 on K_48,
    # Q_14, torus 2:300 and random_regular 20000:5), far below 1e-9.  For a
    # state of norm r (circulation_to_flip's are unnormalized) scale tol by r.
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    averages = vertex_averages(state)
    worst = max(np.max(np.abs(averages.avg_out)), np.max(np.abs(averages.avg_in)))
    return bool(worst <= tol)


def is_selfflip_state(state: ArcState, tol: float = 1e-9) -> bool:
    """True when the state equals its own flipped version within `tol`."""
    check_tolerance(tol)
    return bool(
        np.max(np.abs(flip_transform(state).amplitudes - state.amplitudes)) <= tol
    )


def dense_walk_matrix(g: Graph) -> np.ndarray:
    """The walk operator as a dense real matrix on the arc space."""
    coin = -np.eye(g.arc_count)
    coin[g.out_arcs[:, :, None], g.out_arcs[:, None, :]] += 2.0 / g.degree
    return _reversed_arcs(coin)


# ======================================================================================
# CSV serialization (arc_id, re, im)
# ======================================================================================


def write_state_csv(state: ArcState, path: str) -> None:
    """Write (arc_id, re, im) rows in arc order after an arc_id,re,im header,
    with repr(float) text and the \\r\\n line ends of the csv module."""
    re, im = state.amplitudes.real.tolist(), state.amplitudes.imag.tolist()
    rows = [f"{a},{r!r},{i!r}\r\n" for a, (r, i) in enumerate(zip(re, im))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("arc_id,re,im\r\n" + "".join(rows))


def read_state_csv(g: Graph, path: str) -> ArcState:
    """Read a state of (arc_id, re, im) rows, one per arc in any order.

    A row whose first field is arc_id is a header, one whose first field
    starts with # after leading blanks is a comment; both are skipped, as are
    blank lines.  Every other row must hold an arc id in range and two floats,
    and every arc exactly one row.  Ids and floats are read as int() and
    float() read them, and any fault is worded for the first row that has
    one, in file order.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            amps = _read_state_columns(fh, g.arc_count)
    except UnicodeDecodeError:
        amps = None  # the row reader raises it unless a row before it has a fault
    if amps is None:
        return _read_state_rows(g, path)
    return ArcState(g, amps)


def _read_state_columns(fh, arc_count: int) -> np.ndarray | None:
    """The amplitudes a state file holds, or None where it has a fault or is
    not plain.

    Without quotes csv.reader splits rows at line ends and fields at commas,
    which is what np.loadtxt's C parser does with no quote and no comment
    character, so one loadtxt call reads each block of whole lines.  A plain
    block holds at most an arc_id header on top, no quote, #, _, NUL or
    \\x1c-\\x1f, and no line over the csv field limit.  Any other block
    returns None, and the csv row loop reads or rejects the file.  Only one
    block is alive at a time.
    """
    limit = csv.field_size_limit()
    # a line over the limit holds a stretch of `step` characters with no line
    # end that starts at a multiple of step (and so does a line of step to
    # limit characters at some offsets, which the row loop then reads)
    step = limit // 2 + 1
    amps = np.empty(arc_count, dtype=np.complex128)
    seen = np.zeros(arc_count, dtype=bool)
    rows = 0
    while block := fh.read(_BLOCK_CHARS):
        block += fh.readline()  # the rest of the line the block cut
        header = block.startswith("arc_id") and block[6:7] in ("", ",", "\r", "\n")
        if (
            # numpy's parser strips \x1c-\x1f around a number as blanks, where
            # int() and float() reject them
            any(c in block for c in '"#\0\x1c\x1d\x1e\x1f')
            # a _ past the arc_id on top: in a number, or in a header below
            or block.find("_", 6 if header else 0) >= 0
            or any(
                block.find("\n", i, i + step) < 0 and block.find("\r", i, i + step) < 0
                for i in range(0, len(block) - step + 1, step)
            )
        ):
            return None
        try:
            with warnings.catch_warnings():
                # a block of a header and blank lines holds no rows, and older
                # numpy reads an id such as 1.0 through float(), with a
                # DeprecationWarning, where int() raises
                warnings.simplefilter("ignore", UserWarning)
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(
                    io.StringIO(block, newline=None),  # \r\n and \r read as \n
                    dtype=_STATE_ROW,
                    delimiter=",",
                    comments=None,
                    quotechar=None,
                    skiprows=int(header),
                    ndmin=1,
                )
        except (ValueError, DeprecationWarning):
            return None
        if not len(table):
            continue
        rows += len(table)
        block_ids, re, im = table["arc"], table["re"], table["im"]
        if rows > arc_count or block_ids.min() < 0 or block_ids.max() >= arc_count:
            return None
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            return None  # ArcState rejects them; 1j * inf would warn first
        amps[block_ids] = re + 1j * im  # the row reader's float(re) + 1j * float(im)
        seen[block_ids] = True
    if not seen.all():  # with at most arc_count rows in range, no id repeats
        return None
    return amps


def _read_state_rows(g: Graph, path: str) -> ArcState:
    """The csv.reader row loop: words the first fault of a file in row order,
    and reads the files that are not plain.  A fault
    the csv module raises, such as a field over csv.field_size_limit(),
    becomes a ValueError naming the file."""
    amps = np.zeros(g.arc_count, dtype=np.complex128)
    seen = np.zeros(g.arc_count, dtype=bool)
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for row in csv.reader(fh):
                if not row or row[0].strip().startswith("#") or row[0] == "arc_id":
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}: expected rows of (arc_id, re, im), got {row!r}")
                a = int(row[0])
                if not 0 <= a < g.arc_count:
                    raise ValueError(f"{path}: arc id {a} out of range for {g.arc_count} arcs")
                if seen[a]:
                    raise ValueError(f"{path}: duplicate arc id {a}")
                seen[a] = True
                amps[a] = float(row[1]) + 1j * float(row[2])
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ValueError(f"{path}: no amplitude for arc {missing}")
    return ArcState(g, amps)
