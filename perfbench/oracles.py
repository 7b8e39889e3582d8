"""Reference answers computed without the code under test, and the checks
that compare program output against them.

Nothing here imports ``oscillwalk``.  The only thing taken from the program
is the instance itself: the vertex count and the arc endpoint arrays
(``arc_tails`` / ``arc_heads``), because the arc numbering is part of the
CSV state format the program reads.  Every number is then derived from the
paper's identities or from scipy:

* K_n return amplitudes: the closed forms of the 7-dimensional model,
  cos(theta) = -1/(n-1).
* Projections: edge states (dn-2n+k)/dn (k = 2 on bipartite graphs, 1
  otherwise), self-flip states (dn-2n+2)/dn, plaquette flip states 1,
  the uniform state 0; any other state by least squares against the 2n
  out/in vertex indicators (scipy ``lsqr``).
* Electric networks: built from the state by the paper's rule and solved by
  a grounded Laplacian solve in scipy.  On edge-transitive graphs Foster's
  theorem gives the edge resistance (n-1)/m directly.
* Edge-disjoint paths: scipy's ``maximum_flow``.
* Walk overlaps beyond closed forms: a sparse reference walk built from the
  arc endpoint arrays.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

# Absolute tolerance on projections, bounds and overlaps.  The program prints
# CSV values with 9 significant digits, so 1e-8 is the finest meaningful check.
TOL = 1e-8
# Arcs whose amplitude is at or below this carry a resistor (the paper's rule).
ZERO_TOL = 1e-12
FEASIBLE_TOL = 1e-9
CERTIFIED = "oscillatory localization certified"
NOT_CERTIFIED = "not certified (resistance bound vacuous)"
EDGE_TRANSITIVE = ("complete", "hypercube", "torus", "cycle", "complete_bipartite_balanced")


class Structure:
    """Arc structure of one graph instance, as plain numpy arrays."""

    def __init__(self, n: int, tails, heads):
        self.n = int(n)
        self.tails = np.asarray(tails, dtype=np.int64).copy()
        self.heads = np.asarray(heads, dtype=np.int64).copy()
        self.arcs = self.tails.size
        counts = np.bincount(self.tails, minlength=self.n)
        if counts.min() != counts.max() or self.arcs != counts[0] * self.n:
            raise RuntimeError("instance is not a regular graph")
        self.d = int(counts[0])
        keys = self.tails * self.n + self.heads
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        self.rev = self.arc_ids(self.heads, self.tails)
        self.neighbors = self.heads[self._order].reshape(self.n, self.d)
        self.edge_mask = self.tails < self.heads
        adjacency = sp.csr_matrix(
            (np.ones(self.arcs), (self.tails, self.heads)), shape=(self.n, self.n)
        )
        dist = csgraph.shortest_path(adjacency, unweighted=True, indices=0)
        if not np.all(np.isfinite(dist)):
            raise RuntimeError("instance is not connected")
        parity = dist.astype(np.int64) % 2
        self.bipartite = bool(np.all(parity[self.tails] != parity[self.heads]))
        self.side = parity if self.bipartite else None

    @property
    def m(self) -> int:
        return self.arcs // 2

    def arc_ids(self, u, v) -> np.ndarray:
        key = np.asarray(u, dtype=np.int64) * self.n + np.asarray(v, dtype=np.int64)
        pos = np.searchsorted(self._keys, key)
        if np.any(pos >= self.arcs) or np.any(self._keys[np.minimum(pos, self.arcs - 1)] != key):
            raise RuntimeError("requested arc is not in the graph")
        return self._order[pos]

    def flipped(self, psi: np.ndarray) -> np.ndarray:
        """<uv|flip(psi)> = -<vu|psi>."""
        return -psi[self.rev]


# ======================================================================================
# States
# ======================================================================================


def edge_state(s: Structure, u: int, v: int) -> np.ndarray:
    psi = np.zeros(s.arcs, dtype=np.complex128)
    psi[s.arc_ids(u, v)] = 1.0
    return psi


def selfflip_state(s: Structure, u: int, v: int) -> np.ndarray:
    psi = np.zeros(s.arcs, dtype=np.complex128)
    psi[s.arc_ids(u, v)] = 1.0 / math.sqrt(2.0)
    psi[s.arc_ids(v, u)] = -1.0 / math.sqrt(2.0)
    return psi


def uniform_state(s: Structure) -> np.ndarray:
    return np.full(s.arcs, 1.0 / math.sqrt(s.arcs), dtype=np.complex128)


def plaquette_state(s: Structure, rng: np.random.Generator, cycles: int, tries: int):
    """Seeded random sum of 4-cycle flip states, or None without 4-cycles.

    A 4-cycle u-v-w-x carries +c on u->v and w->x and -c on w->v and u->x,
    which zeroes every vertex's outgoing and incoming sum.  Cycles are found
    by sampling a vertex u, two of its neighbours v and x, and a neighbour w
    of v, keeping the draws where w is adjacent to x.
    """
    found_u, found_v, found_w, found_x = [], [], [], []
    have = 0
    chunk = 65536
    for _ in range(0, tries, chunk):
        u = rng.integers(s.n, size=chunk)
        i = rng.integers(s.d, size=chunk)
        j = (i + 1 + rng.integers(max(s.d - 1, 1), size=chunk)) % s.d
        v = s.neighbors[u, i]
        x = s.neighbors[u, j]
        w = s.neighbors[v, rng.integers(s.d, size=chunk)]
        key = w * s.n + x
        pos = np.minimum(np.searchsorted(s._keys, key), s.arcs - 1)
        ok = (s._keys[pos] == key) & (w != u) & (v != x)
        found_u.append(u[ok])
        found_v.append(v[ok])
        found_w.append(w[ok])
        found_x.append(x[ok])
        have += int(ok.sum())
        if have >= cycles:
            break
    if have == 0:
        return None
    u, v, w, x = (np.concatenate(a)[:cycles] for a in (found_u, found_v, found_w, found_x))
    c = rng.standard_normal(u.size) + 1j * rng.standard_normal(u.size)
    psi = np.zeros(s.arcs, dtype=np.complex128)
    np.add.at(psi, s.arc_ids(u, v), c)
    np.add.at(psi, s.arc_ids(w, v), -c)
    np.add.at(psi, s.arc_ids(w, x), c)
    np.add.at(psi, s.arc_ids(u, x), -c)
    return psi / np.linalg.norm(psi)


def local_state(s: Structure, rng: np.random.Generator, radius: int) -> np.ndarray:
    """Random complex amplitudes on the arcs leaving a seeded ball."""
    inside = np.zeros(s.n, dtype=bool)
    frontier = np.array([rng.integers(s.n)])
    inside[frontier] = True
    for _ in range(radius):
        nxt = np.unique(s.neighbors[frontier].ravel())
        nxt = nxt[~inside[nxt]]
        inside[nxt] = True
        frontier = nxt
    support = inside[s.tails]
    psi = np.zeros(s.arcs, dtype=np.complex128)
    k = int(support.sum())
    psi[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return psi / np.linalg.norm(psi)


# ======================================================================================
# Projections
# ======================================================================================


def transitive_alpha(s: Structure, kind: str) -> float | None:
    """Closed-form flip projection of an edge or self-flip state on an
    edge-transitive graph."""
    dn, n = s.d * s.n, s.n
    if kind == "edge":
        return (dn - 2 * n + (2 if s.bipartite else 1)) / dn
    if kind == "selfflip":
        return (dn - 2 * n + 2) / dn
    return None


def flip_projection(s: Structure, psi: np.ndarray) -> tuple[float, np.ndarray]:
    """alpha_sq and the flip component: the least-squares residual of psi
    against the 2n out/in vertex indicators."""
    ones = np.ones(s.arcs)
    indicators = sp.csr_matrix(
        (np.concatenate([ones, ones]),
         (np.concatenate([np.arange(s.arcs)] * 2), np.concatenate([s.tails, s.n + s.heads]))),
        shape=(s.arcs, 2 * s.n),
    )
    residual = np.zeros(s.arcs, dtype=np.complex128)
    for part, unit in ((psi.real, 1.0), (psi.imag, 1j)):
        if not np.any(part):
            continue
        coeffs = spla.lsqr(indicators, part, atol=1e-15, btol=1e-15, iter_lim=50 * s.n)[0]
        residual += unit * (part - indicators @ coeffs)
    return float(np.vdot(residual, residual).real), residual


def uniform_projection(s: Structure, psi: np.ndarray) -> tuple[float, np.ndarray]:
    """beta_sq and the uniform component (sigma_V, or sigma_X and sigma_Y)."""
    groups = [s.side[s.tails] == 0, s.side[s.tails] == 1] if s.bipartite else [np.ones(s.arcs, bool)]
    component = np.zeros(s.arcs, dtype=np.complex128)
    beta = 0.0
    for mask in groups:
        sigma = mask / math.sqrt(mask.sum())
        coeff = np.vdot(sigma, psi)
        beta += abs(coeff) ** 2
        component += coeff * sigma
    return float(beta), component


# ======================================================================================
# Electric networks
# ======================================================================================


def double_network(s: Structure, psi: np.ndarray):
    """Network on the bipartite double: resistor u_out - v_in on each
    zero-amplitude arc (u, v), otherwise inject psi at v_in, extract at u_out."""
    zero = np.abs(psi) <= ZERO_TOL
    inj = np.zeros(2 * s.n, dtype=np.complex128)
    np.add.at(inj, s.n + s.heads[~zero], psi[~zero])
    np.add.at(inj, s.tails[~zero], -psi[~zero])
    return 2 * s.n, s.tails[zero], s.n + s.heads[zero], inj


def selfflip_network(s: Structure, psi: np.ndarray):
    """Network on the graph itself, one entry per edge u < v."""
    amp = psi[s.edge_mask]
    u, v = s.tails[s.edge_mask], s.heads[s.edge_mask]
    zero = np.abs(amp) <= ZERO_TOL
    inj = np.zeros(s.n, dtype=np.complex128)
    np.add.at(inj, v[~zero], amp[~zero])
    np.add.at(inj, u[~zero], -amp[~zero])
    return s.n, u[zero], v[zero], inj


def solve_network(nodes: int, eu, ev, inj):
    """(feasible, power, potentials) of a unit-resistor network, by a grounded
    Laplacian solve per connected component."""
    adjacency = sp.csr_matrix((np.ones(eu.size), (eu, ev)), shape=(nodes, nodes))
    count, labels = csgraph.connected_components(adjacency, directed=False)
    sums = np.zeros(count, dtype=np.complex128)
    np.add.at(sums, labels, inj)
    if np.any(np.abs(sums) > FEASIBLE_TOL):
        return False, None, None
    grounded = np.zeros(nodes, dtype=bool)
    grounded[np.unique(labels, return_index=True)[1]] = True
    free = np.flatnonzero(~grounded)
    potentials = np.zeros(nodes, dtype=np.complex128)
    if free.size and eu.size:
        sym = adjacency + adjacency.T
        lap = (sp.diags(np.asarray(sym.sum(axis=1)).ravel()) - sym).tocsr()[free][:, free]
        rhs = np.column_stack([inj.real[free], inj.imag[free]])
        if free.size <= 4000:
            sol = np.linalg.solve(lap.toarray(), rhs)
        else:
            sol = np.column_stack([_cg(lap, rhs[:, 0]), _cg(lap, rhs[:, 1])])
        potentials[free] = sol[:, 0] + 1j * sol[:, 1]
    currents = potentials[eu] - potentials[ev]
    return True, float(np.vdot(currents, currents).real), potentials


def _cg(lap, b):
    if not np.any(b):
        return np.zeros_like(b)
    x, info = spla.cg(lap, b, rtol=1e-13, atol=0.0, maxiter=20 * b.size,
                      M=sp.diags(1.0 / lap.diagonal()))
    if info != 0:
        raise RuntimeError(f"reference CG did not converge (info={info})")
    return x


def resistance(nodes: int, eu, ev, a: int, b: int) -> float:
    inj = np.zeros(nodes, dtype=np.complex128)
    inj[a], inj[b] = 1.0, -1.0
    _, _, phi = solve_network(nodes, eu, ev, inj)
    return float((phi[a] - phi[b]).real)


def edge_connectivity(s: Structure, a: int, b: int) -> int:
    cap = sp.csr_matrix((np.ones(s.arcs, dtype=np.int32), (s.tails, s.heads)), shape=(s.n, s.n))
    return int(csgraph.maximum_flow(cap, a, b).flow_value)


# ======================================================================================
# Walk overlaps
# ======================================================================================


def kn_overlaps(n: int, t_max: int) -> tuple[list[float], list[float]]:
    """|<ab|U^t|ab>| at even t and |<~ab|U^t|ab>| = |<ba|U^t|ab>| at odd t."""
    theta = math.atan2(-math.sqrt(n * (n - 2)) / (n - 1), -1.0 / (n - 1))
    even = [abs((n - 2) / n + (2 / n) * math.cos(theta * t)) for t in range(0, t_max + 1, 2)]
    odd = [(n - 3) / (n - 1) for _ in range(1, t_max + 1, 2)]
    return even, odd


def reference_overlaps(s: Structure, psi: np.ndarray, steps: int):
    """Overlap series of a scipy-sparse reference walk: coin 2/d T T^t - I
    (T the arc-tail incidence), then the swap of each arc with its reverse."""
    tail_incidence = sp.csr_matrix(
        (np.ones(s.arcs), (np.arange(s.arcs), s.tails)), shape=(s.arcs, s.n)
    )
    tilde = s.flipped(psi)
    even, odd = [abs(np.vdot(psi, psi))], []
    cur = psi
    for t in range(1, steps + 1):
        cur = ((2.0 / s.d) * (tail_incidence @ (tail_incidence.T @ cur)) - cur)[s.rev]
        (even if t % 2 == 0 else odd).append(abs(np.vdot(psi if t % 2 == 0 else tilde, cur)))
    return [float(x) for x in even], [float(x) for x in odd]


# ======================================================================================
# Checks
# ======================================================================================


def _close(got, want, tol=TOL) -> bool:
    return got is not None and abs(float(got) - want) <= tol * max(1.0, abs(want))


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


def check(op: dict, exit_code: int, text: str) -> list[str]:
    """Errors of one operation's output against its expectations."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    expect = op["expect"]
    try:
        return _CHECKS[expect["cmd"]](expect, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]


def _check_projection(expect, alpha, beta, gamma, errs):
    if not _close(alpha, expect["alpha"]):
        errs.append(f"alpha_sq {alpha} != {expect['alpha']}")
    if not _close(beta, expect["beta"]):
        errs.append(f"beta_sq {beta} != {expect['beta']}")
    if not _close(gamma, 1.0 - expect["alpha"] - expect["beta"]):
        errs.append(f"gamma_sq {gamma} != 1 - alpha - beta")


def _check_network(block, expect, mode, alpha_sq, errs):
    factor = 1.0 if mode == "double" else 2.0
    if block is None or bool(block["feasible"]) != expect["feasible"]:
        errs.append(f"{mode}: feasibility differs from {expect['feasible']}")
        return
    if not expect["feasible"]:
        if block["power"] is not None or block["alpha_lower"] != 0.0 or block["overlap_lower"] != -1.0:
            errs.append(f"{mode}: infeasible network must give power null and bounds (0, -1)")
        return
    power = expect["power"]
    if not _close(block["power"], power, 1e-7):
        errs.append(f"{mode}: power {block['power']} != {power}")
    lower = 1.0 / (1.0 + factor * power)
    if not _close(block["alpha_lower"], lower):
        errs.append(f"{mode}: alpha_lower {block['alpha_lower']} != 1/(1+{factor:g}P) = {lower}")
    if not _close(block["overlap_lower"], 2.0 * lower - 1.0):
        errs.append(f"{mode}: overlap_lower {block['overlap_lower']} != 2 alpha_lower - 1")
    if block["alpha_lower"] > alpha_sq + TOL:
        errs.append(f"{mode}: bound {block['alpha_lower']} exceeds alpha_sq {alpha_sq}")
    if expect.get("equality") and not _close(block["alpha_lower"], alpha_sq):
        errs.append(f"{mode}: edge-transitive equality 1/(1+P) = alpha_sq fails")


def _check_bounds(expect, text):
    out = json.loads(text)
    errs: list[str] = []
    _check_projection(expect, out["alpha_sq"], out["beta_sq"], out["gamma_sq"], errs)
    a, b = expect["alpha"], expect["beta"]
    if not _close(out["even_bound"], 2 * (a + b) - 1):
        errs.append(f"even_bound {out['even_bound']} != 2(alpha+beta)-1")
    if not _close(out["odd_bound"], 2 * max(a, b) - 1):
        errs.append(f"odd_bound {out['odd_bound']} != 2 max(alpha,beta)-1")
    _check_network(out["double"], expect["double"], "double", a, errs)
    if expect["selfflip"] is None:
        if out["selfflip"] is not None:
            errs.append("selfflip block present for a state that is not self-flip")
    else:
        _check_network(out["selfflip"], expect["selfflip"], "selfflip", a, errs)
    return errs


def _vector(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _check_decompose(expect, text):
    out = json.loads(text)
    errs: list[str] = []
    _check_projection(expect, out["alpha_sq"], out["beta_sq"], out["gamma_sq"], errs)
    flip, uni = _vector(expect["flip"]), _vector(expect["uniform"])
    parts = {
        "flip_component": flip,
        "uniform_component": uni,
        "remainder_component": _vector(expect["psi"]) - flip - uni,
    }
    for key, want in parts.items():
        got = _vector(out[key])
        if got.shape != want.shape or np.max(np.abs(got - want)) > TOL:
            errs.append(f"{key} differs from the reference projection")
    return errs


def _series(rows, width):
    even, odd, extra = [], [], []
    for line in rows:
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"row {line!r} has {len(cells)} cells, expected {width}")
        t = int(cells[0])
        (even if t % 2 == 0 else odd).append(_num(cells[1] if t % 2 == 0 else cells[2]))
        extra.append(cells[3:])
    return even, odd, extra


def _check_overlap_lists(expect, even, odd, errs):
    if len(even) != expect["even_count"] or len(odd) != expect["odd_count"]:
        errs.append(f"series lengths {len(even)}/{len(odd)} != "
                    f"{expect['even_count']}/{expect['odd_count']}")
        return
    for name, got, want in (("even", even, expect["even"]), ("odd", odd, expect["odd"])):
        for t, (g, w) in enumerate(zip(got, want)):
            if not _close(g, w):
                errs.append(f"{name} overlap #{t}: {g} != {w}")
                break
        if max(got, default=0.0) > 1.0 + TOL:
            errs.append(f"{name} overlap exceeds 1")


def _check_simulate(expect, text):
    lines = text.splitlines()
    if lines[0] != "t,overlap_even,overlap_odd,bound_even,bound_odd":
        raise ValueError(f"unexpected header {lines[0]!r}")
    even, odd, extra = _series(lines[1:], 5)
    errs: list[str] = []
    _check_overlap_lists(expect, even, odd, errs)
    a, b = expect["alpha"], expect["beta"]
    for bound_even, bound_odd in extra:
        if not (_close(_num(bound_even), 2 * (a + b) - 1) and _close(_num(bound_odd), 2 * max(a, b) - 1)):
            errs.append("bound columns differ from the reference decomposition")
            break
    return errs


def _check_overlaps(expect, text):
    lines = text.splitlines()
    even, odd, _ = _series(lines[1:], 3)
    errs: list[str] = []
    _check_overlap_lists(expect, even, odd, errs)
    return errs


def _check_resistance(expect, text):
    out = json.loads(text)
    errs: list[str] = []
    for key in ("omega", "omega_double"):
        if not _close(out[key], expect[key], 1e-9):
            errs.append(f"{key} {out[key]} != {expect[key]}")
    if out["k"] != expect["k"] or len(out["path_lengths"]) != expect["k"]:
        errs.append(f"k {out['k']} paths {len(out['path_lengths'])} != max-flow {expect['k']}")
    lengths = out["path_lengths"]
    if lengths and min(lengths) >= 1:
        harmonic = 1.0 / sum(1.0 / x for x in lengths)
        if not _close(out["paths_bound"], harmonic, 1e-12):
            errs.append("paths_bound is not the harmonic bound of path_lengths")
        if out["paths_bound"] < out["omega"] - TOL:
            errs.append("paths_bound is below omega")
    else:
        errs.append(f"bad path lengths {lengths}")
    for key, omega in (("verdict_single_edge", "omega_double"), ("verdict_selfflip", "omega")):
        want = CERTIFIED if out[omega] < 0.5 else NOT_CERTIFIED
        if out[key] != want:
            errs.append(f"{key} {out[key]!r} does not match {omega} = {out[omega]}")
        if abs(expect[omega] - 0.5) > 1e-9 and (expect[omega] < 0.5) != (out[omega] < 0.5):
            errs.append(f"{key} disagrees with the reference {omega}")
    return errs


_CHECKS = {
    "bounds": _check_bounds,
    "decompose": _check_decompose,
    "simulate": _check_simulate,
    "overlaps": _check_overlaps,
    "resistance": _check_resistance,
}

_DECIMAL = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def corrupt(text: str) -> str:
    """The same output with its first decimal number raised by 1e-3."""
    match = _DECIMAL.search(text)
    if match is None:
        return text + "corrupted"
    bumped = repr(float(match.group()) + 1e-3)
    return text[: match.start()] + bumped + text[match.end():]
