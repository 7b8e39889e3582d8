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

The flip of a state is its shift negated, <uv|~psi> = -<vu|psi>, so for any y
the odd overlap <~psi0|S y> equals -<psi0|y>, and |<~psi0|U^(2k+1) psi0>| is
|<psi0|C x>| with x = U^(2k) psi0.  As (C x)_s = 2 m_u - x_s on the slots s
of vertex u, where m_u is u's mean of x, that is |sum_u conj(s_u) 2 m_u -
<psi0|x>| with s_u the sum of psi0 over u's slots: the even overlap <psi0|x>
and the coin's vertex means give the odd overlap with an n-length dot, so
the full dot over the arcs runs every other step and no flipped copy is
kept.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

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
# read_state_csv splits a state file in blocks of about this many characters
# (some 20k rows), which bounds the memory its field strings take.
_BLOCK_CHARS = 1 << 20
# A norm this close to 1 is 1 up to the rounding of the sum that computed
# it: dividing by it would move the amplitudes by as little and cost a copy.
UNIT_NORM_SLACK = 4 * np.finfo(np.float64).eps


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
    """Entry gate for physical operations: return a state whose norm is
    within UNIT_NORM_SLACK of 1 as it is, renormalize one whose norm is
    within `tol` of 1, reject anything farther off."""
    nrm = state.norm()
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"state norm {nrm:.12g} is not within {tol:g} of 1")
    if abs(nrm - 1.0) <= UNIT_NORM_SLACK:
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

    Amplitude 1/sqrt(d |T|) on every arc (t, v) with t in T; norm 1.
    """
    if vertices is None:
        support = np.arange(g.n)
    else:
        listed = vertices if isinstance(vertices, np.ndarray) else list(vertices)
        support = np.unique(np.asarray(listed, dtype=np.int64))
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


def _slot_order(g: Graph) -> np.ndarray:
    """The arc held by each slot: slot j*n + u holds vertex u's j-th out-arc."""
    return g.out_arcs.T.ravel()


def _slot_start(psi: ArcState, order: np.ndarray) -> np.ndarray:
    """The slot-major amplitudes of `psi`: float64 when its imaginary part is
    zero (the walk is real, so it stays real), else complex128."""
    amps = psi.amplitudes
    if not amps.imag.any():
        amps = amps.real
    return amps[order]


def _slot_steps(
    g: Graph, order: np.ndarray, x: np.ndarray, steps: int, start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Walk the slot-major state `x` (slot order `order`) `steps` steps.

    `x` is one of the two buffers and is overwritten; returns the buffer that
    holds U^steps x and, when the slot-major start `start` (left unchanged) is
    given, the overlaps |<start|U^t x>| at even t and |<~start|U^t x>| at odd
    t for t = 0..steps (x must equal start then).  The loop body takes two
    steps, so no step tests its parity.
    """
    d, n = g.degree, g.n
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    rev = pos[order ^ 1]  # the slot of each slot's reverse arc
    del pos  # free it before the second buffer
    y = np.empty_like(x)
    rows_x, rows_y = x.reshape(d, n), y.reshape(d, n)
    twice_mean = np.empty(n, dtype=x.dtype)
    scale = 2.0 / d
    overlaps = None
    if start is not None:
        sums = np.add.reduce(start.reshape(d, n), axis=0)
        overlaps = np.empty(steps + 1)
    # mode="clip" lets take write straight into its out; "raise" would buffer it
    for t in range(0, steps, 2):
        if start is not None:
            even = np.vdot(start, x)
            overlaps[t] = abs(even)
        np.add.reduce(rows_x, axis=0, out=twice_mean)
        twice_mean *= scale
        np.subtract(twice_mean, rows_x, out=rows_x)
        np.take(x, rev, out=y, mode="clip")
        if start is not None:
            overlaps[t + 1] = abs(np.vdot(sums, twice_mean) - even)
        if t + 1 == steps:
            return y, overlaps
        np.add.reduce(rows_y, axis=0, out=twice_mean)
        twice_mean *= scale
        np.subtract(twice_mean, rows_y, out=rows_y)
        np.take(y, rev, out=x, mode="clip")
    if start is not None:
        overlaps[steps] = abs(np.vdot(start, x))
    return x, overlaps


def evolve(state: ArcState, t: int) -> ArcState:
    """Apply the walk t times (t >= 0) to a normalized state."""
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    psi = ensure_normalized(state)
    g = psi.graph
    order = _slot_order(g)
    x, _ = _slot_steps(g, order, _slot_start(psi, order), t)
    amps = np.empty(g.arc_count, dtype=np.complex128)
    amps[order] = x
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
    and every arc exactly one row.
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
    """The amplitudes a state file holds, or None where it has a fault or
    needs the csv module's parsing (quotes, NUL, huge fields).

    Without quotes csv.reader splits rows at line ends and fields at commas,
    so str methods split the text here and int and float convert whole
    columns.  The file is read in blocks of whole lines, so the strings of
    one block at a time are alive.
    """
    limit = csv.field_size_limit()
    ids = np.empty(arc_count, dtype=np.int64)
    values = np.empty(arc_count, dtype=np.complex128)
    rows = 0
    while block := fh.read(_BLOCK_CHARS):
        block += fh.readline()  # the rest of the line the block cut
        if '"' in block or "\0" in block:
            return None
        # csv.reader ends a row at \r\n, \r and \n alike
        lines = block.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if max(map(len, lines)) > limit:
            return None
        if not lines[-1]:
            lines.pop()  # the end of the block's last line
        if lines and lines[0].partition(",")[0] == "arc_id":
            del lines[0]  # a header on top, the one skipped row of most files
        if "#" in block or block.find("arc_id", 1) >= 0 or "" in lines:
            lines = [
                line
                for line in lines
                if line
                and line.partition(",")[0] != "arc_id"
                and not line.lstrip().startswith("#")
            ]
        if not lines:
            continue
        stop = rows + len(lines)
        if stop > arc_count or set(map(str.count, lines, [","] * len(lines))) != {2}:
            return None
        fields = ",".join(lines).split(",")
        try:
            block_ids = list(map(int, fields[0::3]))
            re = np.array(list(map(float, fields[1::3])))
            im = np.array(list(map(float, fields[2::3])))
        except ValueError:
            return None
        if min(block_ids) < 0 or max(block_ids) >= arc_count:
            return None
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            return None  # ArcState rejects them; 1j * inf would warn first
        ids[rows:stop] = block_ids
        values[rows:stop] = re + 1j * im  # the row reader's float(re) + 1j * float(im)
        rows = stop
    seen = np.zeros(arc_count, dtype=bool)
    seen[ids[:rows]] = True
    if not seen.all():  # with arc_count rows in range, no id repeats
        return None
    amps = np.empty(arc_count, dtype=np.complex128)
    amps[ids] = values
    return amps


def _read_state_rows(g: Graph, path: str) -> ArcState:
    """The csv.reader row loop: words the first fault of a file in row order,
    and reads the files the column reader leaves to the csv module."""
    amps = np.zeros(g.arc_count, dtype=np.complex128)
    seen = np.zeros(g.arc_count, dtype=bool)
    with open(path, newline="", encoding="utf-8") as fh:
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
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ValueError(f"{path}: no amplitude for arc {missing}")
    return ArcState(g, amps)
