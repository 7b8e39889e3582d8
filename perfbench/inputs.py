"""Seeded inputs and reference answers for each workload.

``plan(workload, seed, workdir)`` returns the operation list the worker
runs, writes the CSV / .npy state files it refers to, and attaches to every
operation the answer the oracles expect.  The program only ever receives
graph specs, state specs and these files.  Graph instances are built with
``oscillwalk.build_graph`` here only to learn their arc numbering (and, for
``random_regular``, their edges); no other program function is called.
"""

from __future__ import annotations

import hashlib
import os
import zlib

import numpy as np

import oracles

class Instance:
    """One graph spec with its arc structure."""

    def __init__(self, spec: str):
        import oscillwalk

        family, _, rest = spec.partition(":")
        g = oscillwalk.build_graph(family, rest.split(":") if rest else [])
        self.spec = spec
        self.family = family
        self.edge_transitive = family in oracles.EDGE_TRANSITIVE
        self.s = oracles.Structure(g.n, g.arc_tails, g.arc_heads)

    def random_arc(self, rng) -> tuple[int, int]:
        a = int(rng.integers(self.s.arcs))
        return int(self.s.tails[a]), int(self.s.heads[a])


class Planner:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
        self.workdir = workdir
        self.files: dict[str, str] = {}
        self.ops: list[dict] = []
        self.sizes: dict[str, int] = {}

    def instance(self, spec: str) -> Instance:
        inst = Instance(spec)
        self.sizes[spec] = inst.s.n * inst.s.arcs
        return inst

    def rr_seed(self) -> int:
        return int(self.rng.integers(1, 1_000_000))

    # ---- states ------------------------------------------------------------------------

    def state(self, inst: Instance, kind: str, *, radius: int = 2):
        """(psi, CLI state spec or None, label) of one seeded state, or None
        when the graph has no state of this kind (no 4-cycle found)."""
        s = inst.s
        if kind in ("edge", "selfflip"):
            u, v = inst.random_arc(self.rng)
            psi = oracles.edge_state(s, u, v) if kind == "edge" else oracles.selfflip_state(s, u, v)
            return psi, f"{kind}:{u}:{v}", (u, v)
        if kind == "uniform":
            return oracles.uniform_state(s), "uniform", None
        if kind == "plaquette":
            psi = oracles.plaquette_state(s, self.rng, s.arcs // 4, tries=1 << 20)
            return (psi, None, None) if psi is not None else None
        if kind == "local":
            return oracles.local_state(s, self.rng, radius), None, None
        raise ValueError(kind)

    def write_csv(self, name: str, psi: np.ndarray) -> str:
        path = os.path.join(self.workdir, name + ".csv")
        rows = "".join(f"{a},{z.real!r},{z.imag!r}\n" for a, z in enumerate(psi.tolist()))
        self._write(path, ("arc_id,re,im\n" + rows).encode())
        return "csv:" + path

    def write_npy(self, name: str, psi: np.ndarray) -> str:
        path = os.path.join(self.workdir, name + ".npy")
        with open(path, "wb") as fh:
            np.save(fh, psi)
        with open(path, "rb") as fh:
            self.files[path] = hashlib.sha256(fh.read()).hexdigest()
        return path

    def _write(self, path: str, data: bytes) -> None:
        with open(path, "wb") as fh:
            fh.write(data)
        self.files[path] = hashlib.sha256(data).hexdigest()

    def cli_state(self, inst: Instance, kind: str, tag: str, **kw):
        got = self.state(inst, kind, **kw)
        if got is None:
            return None
        psi, spec, pair = got
        return psi, spec or self.write_csv(tag, psi), pair

    # ---- expectations ------------------------------------------------------------------

    def projection(self, inst: Instance, kind: str, psi: np.ndarray) -> dict:
        s = inst.s
        alpha, flip = oracles.flip_projection(s, psi)
        closed = {"plaquette": 1.0, "uniform": 0.0}.get(kind)
        if closed is None and inst.edge_transitive:
            closed = oracles.transitive_alpha(s, kind)
        if closed is not None:
            if abs(closed - alpha) > oracles.TOL:
                raise RuntimeError(f"{inst.spec} {kind}: closed form {closed} vs lsqr {alpha}")
            alpha = closed
        beta, uniform = oracles.uniform_projection(s, psi)
        if kind == "uniform" and abs(beta - 1.0) > oracles.TOL:
            raise RuntimeError(f"{inst.spec}: uniform state has beta_sq {beta}")
        return {"alpha": alpha, "beta": beta, "_flip": flip, "_uniform": uniform}

    def bounds_expect(self, inst: Instance, kind: str, psi: np.ndarray) -> dict:
        s = inst.s
        proj = self.projection(inst, kind, psi)
        feasible, power, _ = oracles.solve_network(*oracles.double_network(s, psi))
        if kind == "uniform" and feasible:
            raise RuntimeError(f"{inst.spec}: uniform network should be infeasible")
        if kind == "plaquette" and power > 1e-12:
            raise RuntimeError(f"{inst.spec}: plaquette network dissipates {power}")
        double = {"feasible": feasible, "power": power,
                  "equality": kind == "plaquette" or (kind == "edge" and inst.edge_transitive)}
        selfflip = None
        if kind == "selfflip":
            feasible, power, _ = oracles.solve_network(*oracles.selfflip_network(s, psi))
            selfflip = {"feasible": feasible, "power": power, "equality": inst.edge_transitive}
        return {"cmd": "bounds", "alpha": proj["alpha"], "beta": proj["beta"],
                "double": double, "selfflip": selfflip}

    def overlaps_expect(self, inst: Instance, kind: str, psi, pair, t_max, steps) -> dict:
        if kind == "plaquette":
            even, odd = [1.0] * (t_max // 2 + 1), [1.0] * ((t_max + 1) // 2)
        elif kind == "edge" and inst.family == "complete":
            even, odd = oracles.kn_overlaps(inst.s.n, t_max)
        else:
            even, odd = oracles.reference_overlaps(inst.s, psi, min(steps, t_max))
        return {"even": even, "odd": odd,
                "even_count": t_max // 2 + 1, "odd_count": (t_max + 1) // 2}

    def resistance_expect(self, inst: Instance, u: int, v: int) -> dict:
        s = inst.s
        if inst.edge_transitive:
            # Foster: every edge of an edge-transitive graph has resistance
            # (n-1)/m; the double of a non-bipartite one is connected and
            # edge-transitive with 2n vertices and 2m edges.
            omega = (s.n - 1) / s.m
            omega_double = omega if s.bipartite else (2 * s.n - 1) / (2 * s.m)
        else:
            omega = oracles.resistance(s.n, s.tails[s.edge_mask], s.heads[s.edge_mask], u, v)
            omega_double = oracles.resistance(2 * s.n, s.tails, s.n + s.heads, u, s.n + v)
        return {"cmd": "resistance", "omega": omega, "omega_double": omega_double,
                "k": oracles.edge_connectivity(s, u, v)}

    def add_simulate(self, inst: Instance, kind: str, got, steps: int) -> None:
        psi, state, pair = got
        proj = self.projection(inst, kind, psi)
        expect = self.overlaps_expect(inst, kind, psi, pair, steps, steps)
        self.add(inst.spec, {"cmd": "simulate", "alpha": proj["alpha"], "beta": proj["beta"], **expect},
                 argv=["simulate", "--graph", inst.spec, "--state", state, "--t-max", str(steps)])

    def add(self, graph: str, expect: dict, *, argv=None, state=None, t_max=None):
        op = {"id": f"op{len(self.ops):03d}", "graph": graph, "expect": expect}
        if argv is not None:
            op["argv"] = argv
        else:
            op["state"], op["t_max"] = state, t_max
        self.ops.append(op)


def _pairs(vec: np.ndarray) -> list:
    return np.column_stack([vec.real, vec.imag]).tolist()


STATE_KINDS = ("edge", "selfflip", "uniform", "plaquette", "local")


def _certify(p: Planner) -> dict:
    """Five graphs by five state kinds.  A pass runs one operation per graph
    and the kinds rotate from pass to pass (a Latin square), so every pass
    costs about the same and five passes run all 25 pairs."""
    specs = ["complete:48", "hypercube:8", f"random_regular:512:4:{p.rr_seed()}",
             "torus:2:24", "torus:2:25"]
    grid: dict[tuple[int, int], int] = {}
    for gi, spec in enumerate(specs):
        inst = p.instance(spec)
        for ki, kind in enumerate(STATE_KINDS):
            got = p.cli_state(inst, kind, f"g{gi}_{kind}")
            if got is None:
                continue
            psi, state, _ = got
            grid[gi, ki] = len(p.ops)
            p.add(spec, p.bounds_expect(inst, kind, psi),
                  argv=["bounds", "--graph", spec, "--state", state])
    offset = int(p.rng.integers(len(STATE_KINDS)))
    passes = []
    for r in range(len(STATE_KINDS)):
        graphs = p.rng.permutation(len(specs))
        cell = ((int(g), (offset + r + int(g)) % len(STATE_KINDS)) for g in graphs)
        passes.append([grid[c] for c in cell if c in grid])
    return {"passes": passes}


EVOLVE_STEPS = {"complete": 200, "hypercube": 100, "random_regular": 100, "torus": 100}
REFERENCE_STEPS = 16


def _evolve(p: Planner) -> dict:
    specs = ["complete:200", "hypercube:14", f"random_regular:20000:5:{p.rr_seed()}", "torus:2:300"]
    for gi, spec in enumerate(specs):
        inst = p.instance(spec)
        t_max = EVOLVE_STEPS[inst.family]
        for kind in ("edge", "plaquette", "local"):
            got = p.state(inst, kind, radius=3)
            if got is None:
                continue
            psi, _, pair = got
            state = {"edge": list(pair)} if kind == "edge" else {"npy": p.write_npy(f"g{gi}_{kind}", psi)}
            expect = p.overlaps_expect(inst, kind, psi, pair, t_max, REFERENCE_STEPS)
            p.add(spec, {"cmd": "overlaps", **expect}, state=state, t_max=t_max)
    return {"graphs": specs}


def _resist(p: Planner) -> dict:
    specs = ["hypercube:11", "hypercube:12", "torus:2:100", "torus:2:101", "torus:3:20",
             f"random_regular:10000:4:{p.rr_seed()}"]
    for spec in specs:
        inst = p.instance(spec)
        for _ in range(2):
            u, v = inst.random_arc(p.rng)
            p.add(spec, p.resistance_expect(inst, u, v),
                  argv=["resistance", "--graph", spec, "--pair", f"{u}:{v}"])
    return {}


ZOO_SIMULATE_STEPS = 40
# Two long simulations per pass give the zoo's tail a class of operations
# made by the program.  Without them the tail, 10 samples from the top,
# measures host scheduling stalls on 3 ms operations instead of the program
# (a shared 2-core Xeon VM stalls a process for 10-20 ms about once a second).
ZOO_LONG_SIMULATE = ("complete:12", "torus:2:5")
ZOO_LONG_STEPS = 1000


def _zoo(p: Planner) -> dict:
    specs = ([f"complete:{n}" for n in range(5, 13)] + [f"cycle:{n}" for n in range(5, 10)]
             + ["hypercube:3", "hypercube:4", "complete_bipartite_balanced:3", "torus:2:5",
                f"random_regular:12:4:{p.rr_seed()}"])
    for gi, spec in enumerate(specs):
        inst = p.instance(spec)
        for kind in STATE_KINDS:
            got = p.cli_state(inst, kind, f"g{gi}_{kind}", radius=1)
            if got is None:
                continue
            psi, state, _ = got
            p.add(spec, p.bounds_expect(inst, kind, psi),
                  argv=["bounds", "--graph", spec, "--state", state])
            proj = p.projection(inst, kind, psi)
            p.add(spec, {"cmd": "decompose", "alpha": proj["alpha"], "beta": proj["beta"],
                         "flip": _pairs(proj["_flip"]), "uniform": _pairs(proj["_uniform"]),
                         "psi": _pairs(psi)},
                  argv=["decompose", "--graph", spec, "--state", state])
            if kind in ("edge", "plaquette", "local"):
                p.add_simulate(inst, kind, got, ZOO_SIMULATE_STEPS)
        u, v = inst.random_arc(p.rng)
        p.add(spec, p.resistance_expect(inst, u, v),
              argv=["resistance", "--graph", spec, "--pair", f"{u}:{v}"])
        if spec in ZOO_LONG_SIMULATE:
            p.add_simulate(inst, "edge", p.cli_state(inst, "edge", ""), ZOO_LONG_STEPS)
    return {}


_BUILDERS = {"certify": _certify, "evolve": _evolve, "resist": _resist, "zoo": _zoo}


def plan(workload: str, seed: int, workdir: str) -> dict:
    """Operations, setup and state-file digests of one workload and seed.

    ``passes`` lists the operations of each pass in their seeded order; the
    loop runs them in turn.  ``warmup`` is an operation on the largest
    graph, run once untimed.
    """
    p = Planner(workload, seed, workdir)
    extra = _BUILDERS[workload](p)
    passes = extra.pop("passes", None) or [[int(i) for i in p.rng.permutation(len(p.ops))]]
    largest = max(p.sizes, key=p.sizes.get)
    warmup = next(i for i in passes[0] if p.ops[i]["graph"] == largest)
    return {"workload": workload, "seed": seed, "ops": p.ops, "passes": passes,
            "warmup": warmup, "files": p.files, **extra}

