"""States on the arc space and the coined quantum walk U = S (I x C).

The coin C is the Grover diffusion on each vertex's outgoing arcs (inversion
about the average outgoing amplitude) and S is the flip-flop shift that swaps
the amplitudes of (u, v) and (v, u).  Both are real orthogonal maps, so the
walk preserves realness and the 2-norm.
"""

from __future__ import annotations

import csv
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
    "ensure_normalized",
    "dense_walk_matrix",
    "write_state_csv",
    "read_state_csv",
]

NORMALIZATION_TOL = 1e-9


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
        if not np.all(np.isfinite(amps.view(np.float64))):
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


def ensure_normalized(state: ArcState, tol: float = NORMALIZATION_TOL) -> ArcState:
    """Entry gate for physical operations: renormalize a state whose norm is
    within `tol` of 1, reject anything farther off."""
    nrm = state.norm()
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"state norm {nrm:.12g} is not within {tol:g} of 1")
    if nrm == 1.0:
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
        support = np.unique(np.fromiter((int(v) for v in vertices), dtype=np.int64))
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


def apply_shift(state: ArcState) -> ArcState:
    """Flip-flop shift: swap the amplitudes of (u, v) and (v, u)."""
    perm = np.arange(state.graph.arc_count) ^ 1
    return ArcState(state.graph, state.amplitudes[perm])


def walk_step(state: ArcState) -> ArcState:
    """One application of U = S (I x C)."""
    return apply_shift(apply_coin(state))


def evolve(state: ArcState, t: int) -> ArcState:
    """Apply the walk t times (t >= 0) to a normalized state."""
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    current = ensure_normalized(state)
    for _ in range(t):
        current = walk_step(current)
    return current


def flip_transform(state: ArcState) -> ArcState:
    """The flipped state: <uv|result> = -<vu|state>.  Unitary involution."""
    perm = np.arange(state.graph.arc_count) ^ 1
    return ArcState(state.graph, -state.amplitudes[perm])


def overlap(a: ArcState, b: ArcState) -> complex:
    """Inner product <a|b> (conjugation on the first argument)."""
    _same_graph(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def is_flip_state(state: ArcState, tol: float = 1e-9) -> bool:
    """True iff every vertex's average outgoing and incoming amplitude is
    within `tol` of zero."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    averages = vertex_averages(state)
    worst = max(np.max(np.abs(averages.avg_out)), np.max(np.abs(averages.avg_in)))
    return bool(worst <= tol)


def is_selfflip_state(state: ArcState, tol: float = 1e-9) -> bool:
    """True when the state equals its own flipped version within `tol`."""
    return bool(
        np.max(np.abs(flip_transform(state).amplitudes - state.amplitudes)) <= tol
    )


def dense_walk_matrix(g: Graph) -> np.ndarray:
    """The walk operator as a dense real matrix on the arc space."""
    coin = -np.eye(g.arc_count)
    bump = 2.0 / g.degree
    for u in range(g.n):
        coin[np.ix_(g.out_arcs[u], g.out_arcs[u])] += bump
    perm = np.arange(g.arc_count) ^ 1
    return coin[perm, :]


# ======================================================================================
# CSV serialization (arc_id, re, im)
# ======================================================================================


def write_state_csv(state: ArcState, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arc_id", "re", "im"])
        for a, amp in enumerate(state.amplitudes):
            writer.writerow([a, repr(float(amp.real)), repr(float(amp.imag))])


def read_state_csv(g: Graph, path: str) -> ArcState:
    """Read a state previously written by write_state_csv (header optional)."""
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
