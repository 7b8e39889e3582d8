"""Regular graphs with canonical arc indexing, bipartite doubles, and
edge-disjoint path families.

The walk state space is the set of *arcs* (directed edges): every undirected
edge {u, v} contributes the two arcs (u, v) and (v, u).  Arc ids are assigned
as ``2 * edge_id + orientation`` with edges sorted lexicographically, so the
reverse of arc ``a`` is always ``a ^ 1``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "Bipartition",
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
    "RANDOM_REGULAR_RESTARTS",
]


class GraphError(ValueError):
    """Raised when a construction request violates a graph constraint."""


# ======================================================================================
# Core container
# ======================================================================================


def label_components(node_count: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Smallest node of the component of every node of the undirected graph
    with edges {tails[i], heads[i]}.

    Hook-and-jump (Shiloach & Vishkin 1982): every edge between two trees
    hooks the larger root under the smaller one, then pointer jumping flattens
    the trees; edges inside one tree are dropped for good.  A root only ever
    hooks under a smaller node, so the final root of each tree is its
    component's smallest node.
    """
    parent = np.arange(node_count)
    while tails.size:
        root_t, root_h = parent[tails], parent[heads]
        np.minimum.at(parent, np.maximum(root_t, root_h), np.minimum(root_t, root_h))
        crossing = root_t != root_h
        tails, heads = tails[crossing], heads[crossing]
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand
    return parent


def _int64_ids(values, what: str) -> np.ndarray:
    """`values` as an int64 array.  A float or complex value that the
    conversion would change (1.5, nan, inf), which numpy truncates or wraps
    silently, raises GraphError naming the first one as `what`.  A boolean
    array, which numpy would read as the ids 0 and 1 rather than as a mask,
    raises GraphError too."""
    raw = np.asarray(values)
    if raw.dtype.kind == "b":
        raise GraphError(f"{what}s must be integers, not booleans")
    if raw.dtype.kind not in "fc":
        return np.asarray(raw, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        ids = raw.real.astype(np.int64)
    changed = np.flatnonzero(ids != raw)
    if changed.size:
        raise GraphError(f"{what} {raw.flat[changed[0]].item()} is not an integer")
    return ids


class Graph:
    """Undirected d-regular simple graph with a fixed arc numbering.

    Attributes
    ----------
    n : int
        Number of vertices (labeled 0..n-1).
    edges : np.ndarray, shape (m, 2), int64
        Lexicographically sorted undirected edges, each row (u, v) with u < v.
    degree : int
        Common vertex degree d.
    adjacency : np.ndarray, shape (n, degree), int64
        Sorted neighbors of each vertex (``arc_heads[out_arcs]``).
    arc_count : int
        2 * m; arc ids are 0..arc_count-1.
    arc_tails, arc_heads : np.ndarray, shape (arc_count,), int64
        Endpoint arrays: arc a is (arc_tails[a] -> arc_heads[a]).
    out_arcs : np.ndarray, shape (n, degree), int64
        Arc ids leaving each vertex, in sorted-neighbor order.  Arcs entering
        vertex u are ``out_arcs[u] ^ 1``.
    component_roots, double_roots : np.ndarray, int64
        Smallest node of each node's component in g (shape (n,)) and in its
        bipartite double (shape (2n,), on first use).
    coloring : (signs, bipartite), np.ndarray float64 and bool, shape (n,)
        On first use: S, the +-1 coloring of each bipartite component (+1
        at its root), +1 on a component with an odd cycle; and which
        vertices lie on a bipartite component.

    The bipartite double needs no second graph: its nodes are v_out = v and
    v_in = n + v, and its edge u_out -- v_in is g's arc a = (u, v), so
    ``(arc_tails, n + arc_heads)`` lists its edges by arc id.

    `edges` accepts any iterable of vertex pairs.  The arrays are read-only,
    so instances are immutable after construction and safe to share across
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
        pairs = _int64_ids(edges if isinstance(edges, np.ndarray) else list(edges),
                           f"{name}: vertex id")
        if pairs.size == 0:
            raise GraphError(f"{name}: graph has no edges")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphError(f"{name}: edges must be vertex pairs, got shape {pairs.shape}")
        low, high = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        outside = np.flatnonzero((low < 0) | (high >= n))
        if outside.size:
            u, v = pairs[outside[0]].tolist()
            raise GraphError(f"{name}: edge ({u},{v}) out of range for n={n}")
        loops = np.flatnonzero(low == high)
        if loops.size:
            raise GraphError(f"{name}: self-loop at vertex {low[loops[0]]} is not allowed")
        keys = low * n + high
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeats = order[1:][keys[1:] == keys[:-1]]  # later copies, by input position
        if repeats.size:
            i = repeats.min()
            raise GraphError(f"{name}: parallel edge {(int(low[i]), int(high[i]))} is not allowed")

        self.name = name
        self.n = n
        self.edges = np.column_stack([low[order], high[order]])
        self._edge_keys = keys

        deg = np.bincount(self.edges.ravel(), minlength=n)
        if deg.min() != deg.max():
            lo, hi = int(deg.argmin()), int(deg.argmax())
            raise GraphError(
                f"{name}: not regular (vertex {lo} has degree {deg[lo]}, "
                f"vertex {hi} has degree {deg[hi]})"
            )
        self.degree = int(deg[0])

        self.arc_count = 2 * len(self.edges)
        self.arc_tails = self.edges.ravel()
        self.arc_heads = self.edges[:, ::-1].ravel()
        # Sorted by tail, then head: a tail u's arcs to smaller heads are the odd
        # arcs of earlier edges (v, u), those to larger heads the even arcs of
        # later edges (u, w), each group in increasing head order.
        self.out_arcs = np.argsort(self.arc_tails, kind="stable").reshape(n, self.degree)
        self.adjacency = self.arc_heads[self.out_arcs]
        self.component_roots = label_components(n, *self.edges.T)
        for array in (self.edges, self._edge_keys, self.arc_tails, self.arc_heads,
                      self.out_arcs, self.adjacency, self.component_roots):
            array.flags.writeable = False
        self.num_components = int(np.count_nonzero(self.component_roots == np.arange(n)))
        if require_connected and self.num_components > 1:
            raise GraphError(f"{name}: graph is disconnected ({self.num_components} components)")

    @cached_property
    def double_roots(self) -> np.ndarray:
        # u_out and w_out share a component of the double exactly when a chain
        # of common in-neighbors links them: label the out-nodes (all smaller
        # than the in-nodes) by linking consecutive neighbors; v_in joins adj[v, 0].
        adj = self.adjacency
        out_roots = label_components(self.n, adj[:, :-1].ravel(), adj[:, 1:].ravel())
        roots = np.concatenate([out_roots, out_roots[adj[:, 0]]])
        roots.flags.writeable = False
        return roots

    @cached_property
    def coloring(self) -> tuple[np.ndarray, np.ndarray]:
        # u_out and u_in share a component of the double exactly when u lies
        # on an odd closed walk.  Otherwise one of the two holds the smallest
        # vertex r of u's component as r_out, and u has r's color exactly
        # when u_out is in it: when u_out's root is the smaller one.
        out_roots, in_roots = self.double_roots[: self.n], self.double_roots[self.n :]
        signs = np.where(out_roots > in_roots, -1.0, 1.0)
        bipartite = out_roots != in_roots
        signs.flags.writeable = bipartite.flags.writeable = False
        return signs, bipartite

    # ---- arc helpers ---------------------------------------------------------------

    def edge_id(self, u: int, v: int) -> int:
        low, high = (u, v) if u < v else (v, u)
        if 0 <= low and high < self.n:
            key = low * self.n + high
            i = int(np.searchsorted(self._edge_keys, key))
            if i < self._edge_keys.size and self._edge_keys[i] == key:
                return i
        raise GraphError(f"{self.name}: ({u},{v}) is not an edge")

    def arc_index(self, u: int, v: int) -> int:
        """Arc id of the directed edge u -> v."""
        return 2 * self.edge_id(u, v) + (0 if u < v else 1)

    def arc_endpoints(self, a: int) -> tuple[int, int]:
        return int(self.arc_tails[a]), int(self.arc_heads[a])

    @staticmethod
    def reverse_arc(a: int) -> int:
        return a ^ 1

    def is_edge(self, u: int, v: int) -> bool:
        try:
            self.edge_id(u, v)
        except GraphError:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph({self.name!r}, n={self.n}, m={len(self.edges)}, "
            f"d={self.degree})"
        )


@dataclass(frozen=True, eq=False)
class Bipartition:
    """Partite sets of a 2-colorable graph as sorted, read-only int64 vertex
    arrays; partite_x holds vertex 0."""

    partite_x: np.ndarray
    partite_y: np.ndarray


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
    return Graph(n, np.column_stack(np.triu_indices(n, 1)), name=f"complete:{n}")


def complete_bipartite_graph(half: int) -> Graph:
    """Balanced complete bipartite graph K_{half,half}.

    Only the balanced form is offered: unbalanced complete bipartite graphs
    are irregular.
    """
    if half < 1:
        raise GraphError(f"complete bipartite graph needs half >= 1, got {half}")
    side = np.arange(half)
    edges = np.column_stack([np.repeat(side, half), half + np.tile(side, half)])
    return Graph(2 * half, edges, name=f"complete_bipartite_balanced:{half}")


def cycle_graph(n: int) -> Graph:
    """Cycle C_n (n >= 3; n = 2 would create a parallel edge)."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    i = np.arange(n)
    return Graph(n, np.column_stack([i, (i + 1) % n]), name=f"cycle:{n}")


def hypercube_graph(dim: int) -> Graph:
    """Hypercube Q_dim on 2**dim vertices; neighbors differ in one bit."""
    if dim < 1:
        raise GraphError(f"hypercube needs dim >= 1, got {dim}")
    n = 1 << dim
    vertices = np.arange(n)[:, None]
    edges = np.column_stack([np.repeat(vertices, dim), (vertices ^ (1 << np.arange(dim))).ravel()])
    return Graph(n, edges[edges[:, 0] < edges[:, 1]], name=f"hypercube:{dim}")


def torus_graph(dim: int, side: int) -> Graph:
    """Periodic square lattice with `dim` axes of length `side` (2*dim-regular).

    side >= 3 is required: side = 2 would wrap into parallel edges.
    """
    if dim < 1:
        raise GraphError(f"torus needs dim >= 1, got {dim}")
    if side < 3:
        raise GraphError(f"torus needs side >= 3 (side={side} creates parallel edges)")
    n = side**dim
    vertices = np.arange(n)[:, None]
    strides = side ** np.arange(dim)
    coords = (vertices // strides) % side
    # One step up each axis, wrapping from side - 1 back to 0.
    steps = vertices + ((coords + 1) % side - coords) * strides
    edges = np.column_stack([np.repeat(vertices, dim), steps.ravel()])
    return Graph(n, edges, name=f"torus:{dim}:{side}")


# Pairing attempts random_regular_graph makes before it gives up.
RANDOM_REGULAR_RESTARTS = 1000


def random_regular_graph(n: int, d: int, seed: int | None = None) -> Graph:
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
    for _ in range(RANDOM_REGULAR_RESTARTS):
        edges = _pair_stubs(rng, n, d)
        if edges is None:
            continue
        g = Graph(n, edges, require_connected=False, name=name)
        if g.num_components == 1:
            return g
    raise GraphError(
        f"failed to sample a connected simple {d}-regular graph on {n} vertices "
        f"within {RANDOM_REGULAR_RESTARTS} restarts"
    )


def _pair_stubs(rng: np.random.Generator, n: int, d: int) -> np.ndarray | None:
    """One pairing attempt; returns None on a dead end.

    Each pass shuffles the open stubs into consecutive pairs.  A pair becomes
    an edge unless it is a self-loop, an earlier pass's edge or a repeat within
    this pass; the rejected pairs stay open in pass order.
    """
    # Sorted edge keys u * n + v (u < v), closed by a sentinel above every key.
    keys = np.array([n * n])
    stubs = np.repeat(np.arange(n), d)
    while stubs.size:
        pairs = rng.permutation(stubs).reshape(-1, 2)
        low, high = pairs.min(axis=1), pairs.max(axis=1)
        pass_keys = low * n + high
        fresh = np.flatnonzero((low != high) & ~_has_key(keys, pass_keys))
        firsts = fresh[np.unique(pass_keys[fresh], return_index=True)[1]]
        keys = np.sort(np.concatenate([keys, pass_keys[firsts]]))
        stubs = np.delete(pairs, firsts, axis=0).ravel()
        if not firsts.size:
            # A dead end unless two distinct open vertices are not yet adjacent.
            uniq = np.unique(stubs)
            i, j = np.triu_indices(uniq.size, 1)
            if _has_key(keys, uniq[i] * n + uniq[j]).all():
                return None
    return np.column_stack(np.divmod(keys[:-1], n))


def _has_key(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    return keys[np.searchsorted(keys, query)] == query


def graph_from_edge_list(path: str) -> Graph:
    """Load a graph from an edge-list text file.

    One edge per line as two 0-based decimal vertex ids separated by
    whitespace; blank lines and lines starting with '#' are ignored.  The
    result must be simple, regular, and connected.
    """
    edges = []
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
    if not edges:
        raise GraphError(f"{path}: no edges found")
    pairs = np.array(edges, dtype=np.int64)
    return Graph(int(pairs.max()) + 1, pairs, name=f"edge_list:{path}")


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
    """The color classes of `g.coloring`, or None when an odd cycle exists.
    The smallest vertex of every component lands in partite_x, and vertex 0
    always does."""
    signs, bipartite = g.coloring
    if not bipartite.all():
        return None
    partite_x = np.flatnonzero(signs > 0)
    partite_y = np.flatnonzero(signs < 0)
    partite_x.flags.writeable = partite_y.flags.writeable = False
    return Bipartition(partite_x, partite_y)


def bipartite_double(g: Graph) -> Graph:
    """Bipartite double graph: vertices v_out = v and v_in = n + v.

    Each base edge {u, v} becomes {u_out, v_in} and {v_out, u_in}.  The double
    of a bipartite graph is two disjoint copies of it; the disconnected graph
    is returned as-is (its component roots distinguish the copies).  The
    library reaches the double through g's arc arrays and `g.double_roots`;
    this builder is the reference that checks them.
    """
    edges = np.column_stack([g.arc_tails, g.n + g.arc_heads])
    return Graph(2 * g.n, edges, require_connected=False, name=f"double({g.name})")


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
    while (parent_arc := _bfs_augment(g, flow, s, t)) is not None:
        v = t
        while v != s:
            a = int(parent_arc[v])
            flow[a] += 1
            flow[a ^ 1] -= 1
            v = int(g.arc_tails[a])

    k = int(flow[g.out_arcs[s]].sum())
    # Descending arc ids per tail, so pop() yields ascending-head order.
    pos_out: dict[int, list[int]] = {}
    for a in np.flatnonzero(flow == 1)[::-1].tolist():
        pos_out.setdefault(int(g.arc_tails[a]), []).append(a)

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


def _bfs_augment(g: Graph, flow: np.ndarray, s: int, t: int) -> np.ndarray | None:
    """Shortest residual path from s to t as the incoming arc of every vertex
    reached (-1 elsewhere), or None.  Each level expands the whole frontier,
    arcs in (frontier, slot) order, and a new vertex keeps the first arc that
    reaches it: the parents a FIFO breadth-first search finds."""
    parent_arc = np.full(g.n, -1)
    parent_arc[s] = g.arc_count  # reached, with no incoming arc
    first = np.empty(g.n, dtype=np.int64)
    frontier = np.array([s])
    while frontier.size:
        arcs = g.out_arcs[frontier].ravel()
        heads = g.arc_heads[arcs]
        keep = (flow[arcs] < 1) & (parent_arc[heads] < 0)
        arcs, heads = arcs[keep], heads[keep]
        # Position of the first arc reaching each head.
        order = np.arange(heads.size)
        first[heads] = heads.size
        np.minimum.at(first, heads, order)
        is_first = first[heads] == order
        frontier = heads[is_first]
        parent_arc[frontier] = arcs[is_first]
        if parent_arc[t] >= 0:
            return parent_arc
    return None
