"""Spans around the program's public functions, installed from outside.

The tracer replaces functions under their public names in the
``oscillwalk.cli`` and ``oscillwalk`` namespaces with wrappers that record
a span (name, start, end, parent, operation id).  Calls the library makes
internally go through its own module namespaces and are not wrapped, so the
spans are the layer boundaries as the CLI and API callers see them.  Spans
stay in memory; ``layer_metrics`` turns them into per-layer numbers when the
run ends.  A wrapped name that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc

# (public function name, span name); the same names are wrapped in both namespaces.
WRAPPED = (
    ("build_graph", "graphs.build_graph"),
    ("bipartite_double", "graphs.bipartite_double"),
    ("edge_disjoint_paths", "graphs.edge_disjoint_paths"),
    ("decompose", "oscillation.decompose"),
    ("measured_overlaps", "oscillation.measured_overlaps"),
    ("network_from_state_double", "electric.network_from_state_double"),
    ("network_from_selfflip_state", "electric.network_from_selfflip_state"),
    ("solve_network", "electric.solve_network"),
    ("resistance_distance", "electric.resistance_distance"),
)
# Layers whose allocation peak is taken with tracemalloc in a separate call.
MEMORY_SPANS = ("oscillation.decompose", "electric.solve_network")
# The closed-loop client's operation; its self time is the CLI's own work.
OP = "op"
# Bytes one walk step must touch per arc: read and write a complex128 state
# and read it once more for the overlap.  Computed from sizes, not measured.
STEP_BYTES_PER_ARC = 48

TIME_LAYERS = (
    "oscillation.decompose",
    "electric.network_from_state_double",
    "electric.network_from_selfflip_state",
    "electric.solve_network",
    "electric.resistance_distance.base",
    "electric.resistance_distance.double",
    "graphs.build_graph",
    "graphs.bipartite_double",
    "graphs.edge_disjoint_paths",
    "oscillation.measured_overlaps",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op_id: str | None = None
        self.enabled = False
        self.memory = False
        self.missing: list[str] = []
        self.peaks: dict[str, list[int]] = {name: [] for name in MEMORY_SPANS}
        self.facts: dict[str, list[float]] = {}
        self._pending: list[tuple[str, object]] = []
        self._resistance_calls = 0

    # ---- installation ------------------------------------------------------------------

    def install(self, *namespaces) -> None:
        for ns in namespaces:
            for attr, span in WRAPPED:
                fn = getattr(ns, attr, None)
                if fn is None:
                    self.missing.append(f"{ns.__name__}.{attr}")
                    continue
                setattr(ns, attr, self._wrap(fn, span))

    def _wrap(self, fn, span):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.memory and span in MEMORY_SPANS:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peaks[span].append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if not self.enabled:
                return fn(*args, **kwargs)
            name = span
            if span == "electric.resistance_distance":
                # The CLI asks for the base resistance first, then the double's.
                name += ".base" if self._resistance_calls == 0 else ".double"
                self._resistance_calls += 1
            with self.span(name):
                result = fn(*args, **kwargs)
            self._pending.append((span, (result, args, kwargs)))
            return result

        return wrapper

    # ---- spans -------------------------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def begin_op(self, op_id: str) -> None:
        self.op_id = op_id
        self._resistance_calls = 0

    def end_op(self) -> None:
        """Derive counts from the results the spans returned, outside timing."""
        for span, (result, args, kwargs) in self._pending:
            try:
                self._facts(span, result, args, kwargs)
            except (AttributeError, TypeError, ValueError, IndexError):
                self.facts.setdefault("unreadable", []).append(1.0)
        self._pending.clear()

    def _note(self, key: str, value) -> None:
        self.facts.setdefault(key, []).append(float(value))

    def _facts(self, span, result, args, kwargs) -> None:
        if span == "graphs.build_graph":
            self._note("graphs.arcs", result.arc_count)
            self._note("graphs.nodes", result.n)
        elif span == "graphs.edge_disjoint_paths":
            self._note("graphs.paths_k", len(result))
        elif span.startswith("electric.network_from"):
            self._note("electric.resistors", len(result.resistor_edges))
            self._note("electric.components", _components(result))
        elif span == "electric.solve_network":
            self._note("electric.feasible", bool(result.feasible))
        elif span == "oscillation.measured_overlaps":
            state = args[0] if args else kwargs["state"]
            steps = args[1] if len(args) > 1 else kwargs["t_max"]
            self._note("walk.arcs", state.graph.arc_count)
            self._note("walk.steps", steps)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1] if t.stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent, t.op_id])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


def _components(net) -> int:
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    edges = np.asarray(net.resistor_edges, dtype=np.int64).reshape(-1, 2)
    nodes = int(net.node_count)
    adjacency = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(nodes, nodes))
    return csgraph.connected_components(adjacency, directed=False)[0]


# ======================================================================================
# Per-layer metrics
# ======================================================================================


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, traced_op_s, untraced_op_s) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; layers not called read 0."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, list[float]] = {}
    in_ops: dict[str, float] = {}
    op_total = 0.0
    for i, (name, start, end, parent, op_id) in enumerate(spans):
        own = end - start - child_time[i]
        self_time.setdefault(name, []).append(own)
        if name == OP:
            op_total += end - start
        elif parent >= 0:
            in_ops[name] = in_ops.get(name, 0.0) + own
    overlaps = self_time.get("oscillation.measured_overlaps", [])
    steps = tracer.facts.get("walk.steps", [])
    arcs = tracer.facts.get("walk.arcs", [])
    walk_per_step = [t / s for t, s in zip(overlaps, steps) if s]

    out: dict[str, tuple[float, str]] = {}
    for layer in TIME_LAYERS + ("cli.rest",):
        key = OP if layer == "cli.rest" else layer
        out[f"{layer}.s"] = (_median(self_time.get(key, [])), "s")
        share = sum(self_time.get(OP, [])) if layer == "cli.rest" else in_ops.get(layer, 0.0)
        out[f"{layer}.share"] = (share / op_total if op_total else 0.0, "fraction")
    for span in MEMORY_SPANS:
        peaks = tracer.peaks[span]
        out[f"{span}.peak_mb"] = (max(peaks) / 2**20 if peaks else 0.0, "MB")
    facts = tracer.facts
    for key, unit in (("electric.resistors", "count"), ("electric.components", "count"),
                      ("graphs.arcs", "count"), ("graphs.nodes", "count"),
                      ("graphs.paths_k", "count")):
        out[key] = (_median(facts.get(key, [])), unit)
    feasible = facts.get("electric.feasible", [])
    out["electric.feasible_ratio"] = (sum(feasible) / len(feasible) if feasible else 0.0, "fraction")
    out["walk.step_s"] = (_median(walk_per_step), "s")
    work = sum(a * s for a, s in zip(arcs, steps))
    out["walk.arc_updates_per_s"] = (work / sum(overlaps) if overlaps else 0.0, "arcs/s")
    out["walk.bytes_per_step_computed"] = (_median([STEP_BYTES_PER_ARC * a for a in arcs]), "B")
    ratio = _median(traced_op_s) / _median(untraced_op_s) if untraced_op_s else 0.0
    out["trace.overhead_ratio"] = (ratio, "ratio")
    out["trace.missing_spans"] = (float(len(tracer.missing)), "count")
    return out
