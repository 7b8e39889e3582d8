"""Regular graphs with canonical arc indexing, bipartite doubles, and
edge-disjoint path families.

The walk state space is the set of *arcs* (directed edges): every undirected
edge {u, v} contributes the two arcs (u, v) and (v, u).  Arc ids are assigned
as ``2 * edge_id + orientation`` with edges sorted lexicographically, so the
reverse of arc ``a`` is always ``a ^ 1``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "Bipartition",
    "BipartiteDouble",
    "PathFamily",
    "build_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "cycle_graph",
    "hypercube_graph",
    "torus_graph",
    "random_regular_graph",
    "graph_from_edge_list",
    "bipartite_partition",
    "bipartite_double",
    "edge_disjoint_paths",
    "label_components",
    "GRAPH_FAMILIES",
]


class GraphError(ValueError):
    """Raised when a construction request violates a graph constraint."""


# ======================================================================================
# Core container
# ======================================================================================


def label_components(adjacency: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Connected-component label and BFS-depth parity of every vertex.

    Components are numbered in order of their smallest vertex, which is the
    BFS root and has parity 0.  The parity is a proper 2-coloring exactly
    when the graph is bipartite.
    """
    labels = [-1] * len(adjacency)
    parity = [0] * len(adjacency)
    label = 0
    for start in range(len(adjacency)):
        if labels[start] != -1:
            continue
        labels[start] = label
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if labels[v] == -1:
                    labels[v] = label
                    parity[v] = parity[u] ^ 1
                    queue.append(v)
        label += 1
    return np.array(labels, dtype=np.int64), np.array(parity, dtype=np.int64)


class Graph:
    """Undirected d-regular simple graph with a fixed arc numbering.

    Attributes
    ----------
    n : int
        Number of vertices (labeled 0..n-1).
    edges : tuple[tuple[int, int], ...]
        Lexicographically sorted undirected edges, each as (u, v) with u < v.
    degree : int
        Common vertex degree d.
    adjacency : tuple[tuple[int, ...], ...]
        Sorted neighbor list per vertex.
    arc_count : int
        2 * len(edges); arc ids are 0..arc_count-1.
    arc_tails, arc_heads : np.ndarray
        Endpoint arrays: arc a is (arc_tails[a] -> arc_heads[a]).
    out_arcs : np.ndarray, shape (n, degree)
        Arc ids leaving each vertex, in sorted-neighbor order.  Arcs entering
        vertex u are ``out_arcs[u] ^ 1``.
    component_labels : np.ndarray, shape (n,)
        Connected-component label per vertex (0-based, by smallest vertex).

    Instances are immutable after construction and safe to share across
    threads.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        *,
        require_connected: bool = True,
        name: str = "graph",
    ):
        if n < 1:
            raise GraphError(f"{name}: need at least one vertex, got n={n}")
        canonical = []
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"{name}: edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"{name}: self-loop at vertex {u} is not allowed")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphError(f"{name}: parallel edge {e} is not allowed")
            seen.add(e)
            canonical.append(e)
        if not canonical:
            raise GraphError(f"{name}: graph has no edges")
        canonical.sort()

        self.name = name
        self.n = n
        self.edges = tuple(canonical)
        self._edge_ids = {e: i for i, e in enumerate(self.edges)}

        deg = np.zeros(n, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        if deg.min() != deg.max():
            lo, hi = int(deg.argmin()), int(deg.argmax())
            raise GraphError(
                f"{name}: not regular (vertex {lo} has degree {deg[lo]}, "
                f"vertex {hi} has degree {deg[hi]})"
            )
        self.degree = int(deg[0])

        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)

        m = len(self.edges)
        self.arc_count = 2 * m
        tails = np.empty(self.arc_count, dtype=np.int64)
        heads = np.empty(self.arc_count, dtype=np.int64)
        for i, (u, v) in enumerate(self.edges):
            tails[2 * i], heads[2 * i] = u, v
            tails[2 * i + 1], heads[2 * i + 1] = v, u
        self.arc_tails = tails
        self.arc_heads = heads
        self.out_arcs = np.array(
            [[self.arc_index(u, v) for v in self.adjacency[u]] for u in range(n)],
            dtype=np.int64,
        )

        self.component_labels, self._bfs_parity = label_components(self.adjacency)
        self.num_components = int(self.component_labels.max()) + 1
        if require_connected and self.num_components > 1:
            raise GraphError(f"{name}: graph is disconnected ({self.num_components} components)")

    # ---- arc helpers ---------------------------------------------------------------

    def edge_id(self, u: int, v: int) -> int:
        e = (u, v) if u < v else (v, u)
        try:
            return self._edge_ids[e]
        except KeyError:
            raise GraphError(f"{self.name}: ({u},{v}) is not an edge") from None

    def arc_index(self, u: int, v: int) -> int:
        """Arc id of the directed edge u -> v."""
        return 2 * self.edge_id(u, v) + (0 if u < v else 1)

    def arc_endpoints(self, a: int) -> tuple[int, int]:
        return int(self.arc_tails[a]), int(self.arc_heads[a])

    @staticmethod
    def reverse_arc(a: int) -> int:
        return a ^ 1

    def is_edge(self, u: int, v: int) -> bool:
        e = (u, v) if u < v else (v, u)
        return e in self._edge_ids

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adjacency[u]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph({self.name!r}, n={self.n}, m={len(self.edges)}, "
            f"d={self.degree})"
        )


@dataclass(frozen=True)
class Bipartition:
    """Partite sets of a 2-colorable graph; partite_x holds vertex 0."""

    partite_x: frozenset[int]
    partite_y: frozenset[int]


@dataclass(frozen=True)
class BipartiteDouble:
    """Bipartite double of a graph plus the vertex maps into it.

    Vertex v of the base graph becomes ``out_vertex[v]`` (= v) and
    ``in_vertex[v]`` (= n + v) in the double; each base edge {u, v} becomes
    the pair of edges {u_out, v_in}, {v_out, u_in}.
    """

    graph: Graph
    out_vertex: np.ndarray
    in_vertex: np.ndarray


@dataclass(frozen=True)
class PathFamily:
    """Edge-disjoint paths between two fixed endpoints."""

    source: int
    target: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(p) - 1 for p in self.paths)

    def __len__(self) -> int:
        return len(self.paths)


# ======================================================================================
# Graph families
# ======================================================================================


def complete_graph(n: int) -> Graph:
    """Complete graph K_n (n >= 2)."""
    if n < 2:
        raise GraphError(f"complete graph needs n >= 2, got {n}")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, edges, name=f"complete:{n}")


def complete_bipartite_graph(half: int) -> Graph:
    """Balanced complete bipartite graph K_{half,half}.

    Only the balanced form is offered: unbalanced complete bipartite graphs
    are irregular.
    """
    if half < 1:
        raise GraphError(f"complete bipartite graph needs half >= 1, got {half}")
    edges = [(u, half + v) for u in range(half) for v in range(half)]
    return Graph(2 * half, edges, name=f"complete_bipartite_balanced:{half}")


def cycle_graph(n: int) -> Graph:
    """Cycle C_n (n >= 3; n = 2 would create a parallel edge)."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges, name=f"cycle:{n}")


def hypercube_graph(dim: int) -> Graph:
    """Hypercube Q_dim on 2**dim vertices; neighbors differ in one bit."""
    if dim < 1:
        raise GraphError(f"hypercube needs dim >= 1, got {dim}")
    n = 1 << dim
    edges = [(i, i ^ (1 << b)) for i in range(n) for b in range(dim) if i < i ^ (1 << b)]
    return Graph(n, edges, name=f"hypercube:{dim}")


def torus_graph(dim: int, side: int) -> Graph:
    """Periodic square lattice with `dim` axes of length `side` (2*dim-regular).

    side >= 3 is required: side = 2 would wrap into parallel edges.
    """
    if dim < 1:
        raise GraphError(f"torus needs dim >= 1, got {dim}")
    if side < 3:
        raise GraphError(f"torus needs side >= 3 (side={side} creates parallel edges)")
    n = side**dim
    strides = [side**k for k in range(dim)]

    def vertex(coords: Sequence[int]) -> int:
        return sum(c * s for c, s in zip(coords, strides))

    edges = []
    for v in range(n):
        coords = [(v // s) % side for s in strides]
        for axis in range(dim):
            nxt = list(coords)
            nxt[axis] = (nxt[axis] + 1) % side
            edges.append((v, vertex(nxt)))
    return Graph(n, edges, name=f"torus:{dim}:{side}")


def random_regular_graph(
    n: int, d: int, seed: int | None = None, *, max_restarts: int = 1000
) -> Graph:
    """Random simple connected d-regular graph via stub pairing.

    Stubs (d per vertex) are shuffled and paired greedily, rejecting
    self-loops and repeated edges; leftovers are re-shuffled until matched.
    A round that can make no legal progress restarts from scratch, as does a
    disconnected result.  Same (n, d, seed) always yields the same graph.
    """
    if d < 3:
        raise GraphError(f"random regular graph needs d >= 3, got {d}")
    if d >= n:
        raise GraphError(f"random regular graph needs d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise GraphError(f"n*d must be even for a d-regular graph, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    name = f"random_regular:{n}:{d}" + (f":{seed}" if seed is not None else "")
    for _ in range(max_restarts):
        edges = _pair_stubs(rng, n, d)
        if edges is None:
            continue
        g = Graph(n, edges, require_connected=False, name=name)
        if g.num_components == 1:
            return g
    raise GraphError(
        f"failed to sample a connected simple {d}-regular graph on {n} vertices "
        f"within {max_restarts} restarts"
    )


def _pair_stubs(rng: np.random.Generator, n: int, d: int) -> set[tuple[int, int]] | None:
    """One pairing attempt; returns None on a dead end."""
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(n), d)
    while stubs.size:
        stubs = rng.permutation(stubs)
        leftover = []
        progress = False
        for i in range(0, stubs.size, 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                leftover.extend((u, v))
            else:
                edges.add(e)
                progress = True
        stubs = np.asarray(leftover, dtype=np.int64)
        if not progress and not _has_suitable_pair(stubs, edges):
            return None
    return edges


def _has_suitable_pair(stubs: np.ndarray, edges: set[tuple[int, int]]) -> bool:
    uniq = np.unique(stubs)
    for i, u in enumerate(uniq):
        for v in uniq[i + 1 :]:
            if (int(u), int(v)) not in edges:
                return True
    return False


def graph_from_edge_list(path: str) -> Graph:
    """Load a graph from an edge-list text file.

    One edge per line as two 0-based decimal vertex ids separated by
    whitespace; blank lines and lines starting with '#' are ignored.  The
    result must be simple, regular, and connected.
    """
    edges = []
    max_vertex = -1
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected two vertex ids, got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(f"{path}:{lineno}: non-integer vertex id in {line!r}") from None
            if u < 0 or v < 0:
                raise GraphError(f"{path}:{lineno}: negative vertex id in {line!r}")
            edges.append((u, v))
            max_vertex = max(max_vertex, u, v)
    if not edges:
        raise GraphError(f"{path}: no edges found")
    return Graph(max_vertex + 1, edges, name=f"edge_list:{path}")


GRAPH_FAMILIES = (
    "complete",
    "complete_bipartite_balanced",
    "hypercube",
    "torus",
    "cycle",
    "random_regular",
    "edge_list",
)


def build_graph(family: str, params: Sequence[int | str] = (), seed: int | None = None) -> Graph:
    """Construct a graph by family name; see GRAPH_FAMILIES.

    `params` holds the family-specific integers (`random_regular` accepts an
    optional trailing seed that overrides the `seed` argument; `edge_list`
    takes a file path instead).
    """

    def ints(k: int) -> list[int]:
        if len(params) != k:
            raise GraphError(f"{family} expects {k} parameter(s), got {len(params)}")
        try:
            return [int(p) for p in params]
        except (TypeError, ValueError):
            raise GraphError(f"{family}: non-integer parameter in {params!r}") from None

    if family == "complete":
        return complete_graph(*ints(1))
    if family == "complete_bipartite_balanced":
        return complete_bipartite_graph(*ints(1))
    if family == "hypercube":
        return hypercube_graph(*ints(1))
    if family == "torus":
        return torus_graph(*ints(2))
    if family == "cycle":
        return cycle_graph(*ints(1))
    if family == "random_regular":
        if len(params) == 3:
            n, d, seed = (int(p) for p in params)
        else:
            n, d = ints(2)
        return random_regular_graph(n, d, seed=seed)
    if family == "edge_list":
        if len(params) != 1:
            raise GraphError("edge_list expects exactly one path parameter")
        return graph_from_edge_list(str(params[0]))
    raise GraphError(f"unknown graph family {family!r} (choose from {', '.join(GRAPH_FAMILIES)})")


# ======================================================================================
# Bipartite structure
# ======================================================================================


def bipartite_partition(g: Graph) -> Bipartition | None:
    """2-color `g` by BFS depth parity; returns None when an odd cycle exists.

    The smallest vertex of every component lands in partite_x, so vertex 0
    is always in partite_x.
    """
    color = g._bfs_parity
    if np.any(color[g.arc_tails] == color[g.arc_heads]):
        return None
    return Bipartition(
        partite_x=frozenset(np.flatnonzero(color == 0).tolist()),
        partite_y=frozenset(np.flatnonzero(color == 1).tolist()),
    )


def bipartite_double(g: Graph) -> BipartiteDouble:
    """Bipartite double graph: vertices v_out = v and v_in = n + v.

    Each base edge {u, v} becomes {u_out, v_in} and {v_out, u_in}.  The double
    of a bipartite graph is two disjoint copies of it; the disconnected graph
    is returned as-is (its component labels distinguish the copies).
    """
    n = g.n
    edges = []
    for u, v in g.edges:
        edges.append((u, n + v))
        edges.append((v, n + u))
    double = Graph(2 * n, edges, require_connected=False, name=f"double({g.name})")
    return BipartiteDouble(
        graph=double,
        out_vertex=np.arange(n, dtype=np.int64),
        in_vertex=np.arange(n, 2 * n, dtype=np.int64),
    )


# ======================================================================================
# Edge-disjoint paths via unit-capacity max-flow
# ======================================================================================


def edge_disjoint_paths(g: Graph, s: int, t: int) -> PathFamily:
    """Maximum family of pairwise edge-disjoint s-t paths.

    Runs BFS augmenting paths (unit capacity per direction, antiparallel flow
    cancels) and decomposes the resulting net flow into paths, erasing any
    incidental cycles.  The family size equals the s-t edge connectivity.
    """
    if s == t:
        raise GraphError(f"edge-disjoint paths need distinct endpoints, got s = t = {s}")
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise GraphError(f"endpoint out of range: s={s}, t={t}, n={g.n}")

    # Net flow per arc, flow[a] == -flow[a ^ 1]; |flow| <= 1 keeps each
    # undirected edge on at most one path.
    flow = np.zeros(g.arc_count, dtype=np.int64)
    while True:
        parent_arc = _bfs_augment(g, flow, s, t)
        if parent_arc is None:
            break
        v = t
        while v != s:
            a = parent_arc[v]
            flow[a] += 1
            flow[a ^ 1] -= 1
            v = int(g.arc_tails[a])

    k = int(flow[g.out_arcs[s]].sum())
    pos_out: list[list[int]] = [[] for _ in range(g.n)]
    for a in np.flatnonzero(flow == 1):
        pos_out[g.arc_tails[a]].append(int(a))
    for stack in pos_out:
        stack.reverse()  # pop() then yields ascending-head order

    paths = []
    for _ in range(k):
        path = [s]
        position = {s: 0}
        while path[-1] != t:
            a = pos_out[path[-1]].pop()
            v = int(g.arc_heads[a])
            if v in position:
                # Erase the cycle; its arcs stay consumed.
                for w in path[position[v] + 1 :]:
                    del position[w]
                del path[position[v] + 1 :]
            else:
                position[v] = len(path)
                path.append(v)
        paths.append(tuple(path))
    return PathFamily(source=s, target=t, paths=tuple(paths))


def _bfs_augment(g: Graph, flow: np.ndarray, s: int, t: int) -> dict[int, int] | None:
    """Shortest residual path from s to t; returns {vertex: incoming arc}."""
    parent_arc: dict[int, int] = {}
    visited = np.zeros(g.n, dtype=bool)
    visited[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for a in g.out_arcs[u]:
            if flow[a] >= 1:
                continue
            v = int(g.arc_heads[a])
            if visited[v]:
                continue
            visited[v] = True
            parent_arc[v] = int(a)
            if v == t:
                return parent_arc
            queue.append(v)
    return None
