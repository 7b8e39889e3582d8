"""States on the arc space and the coined quantum walk U = S (I x C).

The coin C is the Grover diffusion on each vertex's outgoing arcs (inversion
about the average outgoing amplitude) and S is the flip-flop shift that swaps
the amplitudes of (u, v) and (v, u).  Both are real orthogonal maps, so the
walk preserves realness and the 2-norm.

`apply_coin`, `apply_shift` and `walk_step` act on one `ArcState` in arc order
and are the single-step reference.  Many steps (`evolve`, and
`oscillation.measured_overlaps`) run in a *slot-major* copy of the state
instead: slot j*n + u holds the amplitude of vertex u's j-th out-arc, so the
slot order is `out_arcs.T.ravel()`.  Viewed as d rows of n slots, the vertex
sums of the coin are one contiguous column sum over the rows, and the shift is
one gather with the slot of each slot's reverse arc.  A step coins one buffer
in place and gathers it into the other, and the two buffers swap roles, so a
step reads and writes each slot twice and keeps no third vector.  Both maps
are real, so a start whose imaginary part is zero walks in float64 on its
real part, half the bytes of complex128; `evolve` still returns complex
amplitudes.

The walk moves amplitude one hop per step: the coin mixes the slots of one
vertex, and the shift moves the amplitude of (u, v) to v.  So after t steps a
start held by the vertex set V0 (the tails of its nonzero arcs) is exactly 0
off the ball B(V0, t), its light cone.  The stepper walks only that cone, in
*windows*: from step t0 it steps the slot-major block of the m vertices of
B(V0, t0 + k) for k = _CONE_BLOCK steps (slot j*m + i holds the i-th window
vertex's j-th out-arc), then grows the ball and carries the state over.  A
slot whose reverse arc leaves the window gathers from one extra sink slot
that holds 0, and 0 is what the full walk gathers there, since within the
block no amplitude reaches the window's edge.  The coin sums run over the
same rows in the same order and the gather reads the same values, so every
amplitude in the window is the full walk's bit for bit.  Once the next
window would hold _CONE_SHARE (half) of g's vertices or more, the walk takes
all of g, which is simply the last window, for the remaining steps; a ball
that stops growing holds whole components and is the last window too.  A
start nonzero on half the arcs or more, such as a random state, takes all of
g at once.

The flip of a state is its shift negated, <uv|~psi> = -<vu|psi>, so for any y
the odd overlap <~psi0|S y> equals -<psi0|y>, and |<~psi0|U^(2k+1) psi0>| is
|<psi0|C x>| with x = U^(2k) psi0.  As (C x)_s = 2 m_u - x_s on the slots s
of vertex u, where m_u is u's mean of x, that is |sum_u conj(s_u) 2 m_u -
<psi0|x>| with s_u the sum of psi0 over u's slots: the even overlap <psi0|x>
and the coin's vertex means give the odd overlap with an m-length dot, so
the dot over the window's share of psi0 runs every other step and no flipped
copy is kept.  V0 lies in every window, so the window's share of psi0 is all
of it.
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
# number, so every window but the last starts at an even step) ...
_CONE_BLOCK = 16
# ... and steps all of g once the next window would hold this share of its
# vertices or more.
_CONE_SHARE = 0.5


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


def _window_slots(
    g: Graph, inside: np.ndarray | None
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """The window of the vertices in the mask `inside` (all of g when None):
    its vertices (None for g), the arc held by each of its slots and the slot
    of each slot's reverse arc, or the sink slot d*m where that arc leaves
    the window's m vertices."""
    if inside is None:
        # Inverting the slot order takes arc-length maps, which a window
        # must not build, but over all of g it takes about half the time of
        # the formula below (torus 2:300, Q_14, random_regular 20000:5).
        order = g.out_arcs.T.ravel()
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        return None, order, pos[order ^ 1]
    d = g.degree
    verts = np.flatnonzero(inside)
    m = verts.size
    order = np.take(g.out_arcs, verts, axis=0).T.ravel()
    # Vertex v's arcs to larger heads are the even arcs 2e of consecutive
    # edges (v, w), the last in v's last column, so the reverse 2e of an odd
    # arc 2e + 1 = (u, v), v < u, lies in column d - 1 - (last - e) of v's row;
    # each even slot is the partner of the odd slot it reverses.
    odd = np.flatnonzero(order & 1)
    arcs = order[odd]
    low = g.arc_heads[arcs]
    kept = inside[low]
    odd, arcs, low = odd[kept], arcs[kept], low[kept]
    column = np.empty(g.n, dtype=np.intp)  # each window vertex's slot column
    column[verts] = np.arange(m)
    partner = (d - 1 - (g.out_arcs[:, -1][low] >> 1) + (arcs >> 1)) * m + column[low]
    rev = np.full(d * m, d * m)
    rev[odd] = partner
    rev[partner] = odd
    return verts, order, rev


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


def _step_block(
    x: np.ndarray,
    rev: np.ndarray,
    d: int,
    t: int,
    stop: int,
    start: np.ndarray | None,
    overlaps: np.ndarray | None,
) -> np.ndarray:
    """Walk the slot-major state x[:-1] of a window from step t to `stop`.

    x[-1] is the window's sink, 0, and `rev` the window's reverse slots.  `x`
    is one of the two buffers and is overwritten; returns the slots that hold
    the state at `stop`.  With the window's share `start` of the start, it
    writes the overlaps of steps t..stop-1 to `overlaps`.  The loop body
    takes two steps, so no step tests its parity.
    """
    dm = rev.size
    y = np.empty_like(x)
    y[dm] = 0.0
    xs, ys = x[:dm], y[:dm]
    rows_x, rows_y = xs.reshape(d, -1), ys.reshape(d, -1)
    twice_mean = np.empty(dm // d, dtype=x.dtype)
    scale = 2.0 / d
    if start is not None:
        sums = np.add.reduce(start.reshape(d, -1), axis=0)
    # mode="clip" lets take write straight into its out; "raise" would buffer it
    for t in range(t, stop, 2):
        if start is not None:
            even = np.vdot(start, xs)
            overlaps[t] = abs(even)
        np.add.reduce(rows_x, axis=0, out=twice_mean)
        twice_mean *= scale
        np.subtract(twice_mean, rows_x, out=rows_x)
        np.take(x, rev, out=ys, mode="clip")
        if start is not None:
            overlaps[t + 1] = abs(np.vdot(sums, twice_mean) - even)
        if t + 1 == stop:
            return ys
        np.add.reduce(rows_y, axis=0, out=twice_mean)
        twice_mean *= scale
        np.subtract(twice_mean, rows_y, out=rows_y)
        np.take(y, rev, out=xs, mode="clip")
    return xs


def _slot_steps(
    psi: ArcState, steps: int, measure: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Walk `psi` `steps` steps (>= 0) in the windows of its light cone.

    Returns the arc held by each slot of the last window, U^steps psi on
    those slots (it is 0 on every other arc) and, with `measure`, the
    overlaps |<psi|U^t psi>| at even t and |<~psi|U^t psi>| at odd t for
    t = 0..steps.
    """
    g = psi.graph
    d = g.degree
    amps = psi.amplitudes
    if not amps.imag.any():
        amps = amps.real  # the walk is real, so a real start stays real
    overlaps = np.empty(steps + 1) if measure else None
    t, verts, xs = 0, None, None
    for inside, stop in _cone_windows(g, amps, steps):
        carried, old = verts, xs
        x = xs = order = rev = start = None  # free the last window before this one
        verts, order, rev = _window_slots(g, inside)
        m = g.n if verts is None else verts.size
        x = np.empty(d * m + 1, dtype=amps.dtype)
        x[-1] = 0.0  # the sink
        if measure:
            start = amps[order]
        if old is None:
            x[:-1] = start if measure else amps[order]
        else:  # carry the walk over from the last window
            x[:-1] = 0.0
            columns = carried if verts is None else np.searchsorted(verts, carried)
            x[:-1].reshape(d, m)[:, columns] = old.reshape(d, -1)
        del old
        xs = _step_block(x, rev, d, t, stop, start, overlaps)
        t = stop
    if measure and steps % 2 == 0:
        overlaps[steps] = abs(np.vdot(start, xs))
    return order, xs, overlaps


def evolve(state: ArcState, t: int) -> ArcState:
    """Apply the walk t times (t >= 0) to a normalized state.

    The walk steps only the state's light cone (see the module docstring)
    and scatters its last window into the returned amplitudes, 0 elsewhere.
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    psi = ensure_normalized(state)
    order, x, _ = _slot_steps(psi, t)
    amps = np.zeros(psi.graph.arc_count, dtype=np.complex128)
    amps[order] = x
    return ArcState(psi.graph, amps)


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
