"""Command-line front end: experiments as subcommands with CSV/JSON output.

Exit codes: 0 success, 1 configuration error (single-line diagnostic on
stderr), 2 capacity error (dense-oracle ceiling), 3 failed verification
checks, 4 a linear solve that did not converge (single-line diagnostic).
All numeric CSV output uses 9 significant digits, so identical
configurations produce byte-identical files.  `decompose`, `resistance`
and `bounds` build one record each: their JSON is that record, and their
single-row CSV is its scalar fields in record order (`bounds` flattens its
`double` and `selfflip` blocks into `power_`, `alpha_lower_` and
`overlap_lower_<mode>` columns).  Each subcommand returns its text and exit
status, and `main` writes the text to stdout or --output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .complete import (
    REFERENCE_TABLE_CAPTION_N,
    REFERENCE_TABLE_MATCHES_N,
    reference_table_note,
    table_rows,
)
from .electric import (
    ZERO_AMPLITUDE_TOL,
    ConvergenceError,
    ElectricNetwork,
    bounds_from_power,
    localization_verdict,
    network_from_selfflip_state,  # noqa: F401 - unused here; perfbench's tracer wraps it in this namespace
    network_from_state_double,
    paths_resistance_bound,
    resistance_distance,  # noqa: F401 - unused here; perfbench's tracer wraps it in this namespace
    resistance_distances,
    solve_network,  # noqa: F401 - unused here; perfbench's tracer wraps it in this namespace
)
from .graphs import (
    GRAPH_FAMILIES,
    Graph,
    GraphError,
    bipartite_double,  # noqa: F401 - unused here; perfbench's tracer wraps it in this namespace
    build_graph,
    edge_disjoint_paths,
)
from .oscillation import (
    CapacityError,
    _certify,
    decompose,
    measured_overlaps,
    oscillation_bounds,
)
from .walk import (
    ArcState,
    basis_arc_state,
    check_tolerance,
    read_state_csv,
    uniform_state,
)

__all__ = ["main"]


class CLIError(Exception):
    """Configuration problem reported as a one-line diagnostic, exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from exiting with its own code
        raise CLIError(message)


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.9g}"


def _tolerance(text: str) -> float:
    """argparse type for --zero-tol and --flip-tol: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        return check_tolerance(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_graph(spec: str, seed: int) -> Graph:
    family, _, rest = spec.partition(":")
    params: list[str] = rest.split(":") if rest else []
    if family == "edge_list":
        # the remainder is a path and may itself contain colons
        params = [rest]
    return build_graph(family, params, seed=seed)


def _parse_pair(spec: str) -> tuple[int, int]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise CLIError(f"expected a pair 'u:v', got {spec!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise CLIError(f"pair {spec!r} must hold two integers") from None


def _parse_state(g: Graph, spec: str) -> ArcState:
    kind, _, rest = spec.partition(":")
    if kind == "edge":
        u, v = _parse_pair(rest)
        return basis_arc_state(g, u, v)
    if kind == "selfflip":
        u, v = _parse_pair(rest)
        amps = basis_arc_state(g, u, v).amplitudes - basis_arc_state(g, v, u).amplitudes
        return ArcState(g, amps / np.sqrt(2.0))
    if kind == "uniform":
        if rest:
            raise CLIError("state 'uniform' takes no parameters")
        return uniform_state(g)
    if kind == "csv":
        if not rest:
            raise CLIError("state 'csv' needs a file path, e.g. csv:state.csv")
        return read_state_csv(g, rest)
    raise CLIError(
        f"unknown state spec {spec!r} (use edge:u:v, selfflip:u:v, uniform, or csv:path)"
    )


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)  # repr(np.float64) would be 'np.float64(...)'


def _json_chunks(obj, nl: str, out: list[str]) -> None:
    """Append the JSON text of `obj` to `out`; `nl` is a newline followed by
    the indentation of the line `obj` starts on.  The type tests run in
    json's order, so a bool is never written as an int."""
    if isinstance(obj, str):
        out.append(json.encoder.encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_json_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            sep = "," + inner
            _json_chunks(item, inner, out)
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep + json.encoder.encode_basestring_ascii(key) + ": ")
            sep = "," + inner
            _json_chunks(value, inner, out)
        out.append(nl + "}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "c":
        _complex_pairs(obj, nl, out)
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _complex_pairs(values: np.ndarray, nl: str, out: list[str]) -> None:
    """A complex vector as the list of its [re, im] pairs, one f-string per pair."""
    re, im = values.real.tolist(), values.imag.tolist()
    if not values.size or not np.isfinite(values).all():
        # empty, or NaN and the infinities, which take json's spellings
        _json_chunks([[r, i] for r, i in zip(re, im)], nl, out)
        return
    i1 = nl + "  "
    i2 = i1 + "  "
    out.append("[" + i1)
    out.append(f",{i1}".join([f"[{i2}{r!r},{i2}{i!r}{i1}]" for r, i in zip(re, im)]))
    out.append(nl + "]")


def _json_document(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` and a newline, byte for byte.

    Python's json module runs its pure-Python encoder whenever `indent` is
    set; this one appends strings to one list and joins it once.  It also
    takes a 1-D complex numpy array, written as the list of its [re, im]
    pairs; any other value json.dumps rejects raises the same TypeError.
    A dict key must be a str (every payload's is): any other raises
    TypeError, where json.dumps would write an int, float, bool or None
    key as a string.
    """
    out: list[str] = []
    _json_chunks(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _dump_network(net: ElectricNetwork, path: str) -> None:
    payload = {
        "node_count": net.node_count,
        "resistor_edges": net.resistor_edges.tolist(),
        "injections": {
            str(i): [float(net.injections[i].real), float(net.injections[i].imag)]
            for i in np.flatnonzero(np.abs(net.injections) > 0)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_document(payload))


# ======================================================================================
# Subcommands
# ======================================================================================


def _read_state(args) -> tuple[ArcState, ElectricNetwork | None]:
    """The --state on the --graph, and the double network written to
    --dump-network (None without it), so that `bounds` builds it once.
    `simulate` checks --t-max before the dump: a run it rejects writes no file."""
    psi0 = _parse_state(_parse_graph(args.graph, args.seed), args.state)
    if args.command == "simulate" and args.t_max < 1:
        raise CLIError(f"--t-max must be >= 1, got {args.t_max}")
    network = None
    if args.dump_network:
        network = network_from_state_double(psi0, args.zero_tol)
        _dump_network(network, args.dump_network)
    return psi0, network


def _csv_row(fields: dict) -> str:
    """A header and one row: the fields in order, arrays left out, floats
    by `_fmt` (an infeasible power stays inf), lists joined with ';' and
    anything else by `str`."""
    cells = {}
    for name, value in fields.items():
        if isinstance(value, float):
            cells[name] = _fmt(value)
        elif isinstance(value, list):
            cells[name] = ";".join(map(str, value))
        elif not isinstance(value, np.ndarray):
            cells[name] = str(value)
    return ",".join(cells) + "\n" + ",".join(cells.values()) + "\n"


def _cmd_simulate(args) -> tuple[str, int]:
    psi0, _ = _read_state(args)
    report = oscillation_bounds(decompose(psi0))
    series = measured_overlaps(psi0, args.t_max)
    if args.format == "json":
        payload = {
            "even_overlaps": series.even_overlaps.tolist(),
            "odd_overlaps": series.odd_overlaps.tolist(),
            "even_bound": report.even_bound,
            "odd_bound": report.odd_bound,
        }
        return _json_document(payload), 0
    # overlaps are finite moduli, so .9g prints them as _fmt does
    bounds = f",{_fmt(report.even_bound)},{_fmt(report.odd_bound)}\n"
    even = series.even_overlaps.tolist()
    odd = series.odd_overlaps.tolist()
    rows = [""] * (args.t_max + 1)
    rows[0::2] = [f"{2 * k},{x:.9g},{bounds}" for k, x in enumerate(even)]
    rows[1::2] = [f"{2 * k + 1},,{x:.9g}{bounds}" for k, x in enumerate(odd)]
    return "t,overlap_even,overlap_odd,bound_even,bound_odd\n" + "".join(rows), 0


def _cmd_decompose(args) -> tuple[str, int]:
    dec = decompose(_read_state(args)[0])
    record = {
        "alpha_sq": dec.alpha_sq,
        "beta_sq": dec.beta_sq,
        "gamma_sq": dec.gamma_sq,
        "flip_component": dec.flip_component.amplitudes,
        "uniform_component": dec.uniform_component.amplitudes,
        "remainder_component": dec.remainder_component.amplitudes,
    }
    return (_csv_row(record) if args.format == "csv" else _json_document(record)), 0


def _cmd_resistance(args) -> tuple[str, int]:
    g = _parse_graph(args.graph, args.seed)
    u, v = _parse_pair(args.pair)
    omega, omega_double = resistance_distances(g, u, v)
    family = edge_disjoint_paths(g, u, v)
    record = {
        "omega": omega,
        "omega_double": omega_double,
        "k": len(family),
        "path_lengths": sorted(family.lengths),
        "paths_bound": paths_resistance_bound(family.lengths),
        "verdict_single_edge": localization_verdict(omega_double),
        "verdict_selfflip": localization_verdict(omega),
    }
    return (_csv_row(record) if args.format == "csv" else _json_document(record)), 0


def _cmd_bounds(args) -> tuple[str, int]:
    psi0, network = _read_state(args)
    cert = _certify(psi0, args.zero_tol, args.flip_tol, network)
    dec = cert.decomposition
    report = oscillation_bounds(dec)
    record = {
        "alpha_sq": dec.alpha_sq,
        "beta_sq": dec.beta_sq,
        "gamma_sq": dec.gamma_sq,
        "even_bound": report.even_bound,
        "odd_bound": report.odd_bound,
    }
    row = dict(record)  # the CSV flattens each network's block into its columns
    for mode, power in (("double", cert.power_double), ("selfflip", cert.power_selfflip)):
        record[mode] = None
        if power is not None:
            alpha_lower, overlap_lower = bounds_from_power(power, mode)
            feasible = not math.isinf(power)
            record[mode] = {
                "feasible": feasible,
                "power": power if feasible else None,
                "alpha_lower": alpha_lower,
                "overlap_lower": overlap_lower,
            }
            row[f"power_{mode}"] = power
            row[f"alpha_lower_{mode}"] = alpha_lower
            row[f"overlap_lower_{mode}"] = overlap_lower
    return (_csv_row(row) if args.format == "csv" else _json_document(record)), 0


def _cmd_table1(args) -> tuple[str, int]:
    if args.n < 4:
        raise CLIError(f"--n must be >= 4, got {args.n}")
    if args.t_max < 0:
        raise CLIError(f"--t-max must be >= 0, got {args.t_max}")
    rows = table_rows(args.n, args.t_max)
    metadata = {
        "n": args.n,
        "t_max": args.t_max,
        "reference_caption_n": REFERENCE_TABLE_CAPTION_N,
        "reference_matches_n": REFERENCE_TABLE_MATCHES_N,
        "reference_note": reference_table_note(),
    }
    if args.format == "json":
        payload = {
            "metadata": metadata,
            "rows": [
                {
                    "t": r.t,
                    "amp_ab": r.amp_ab,
                    "amp_ba": r.amp_ba,
                    "prob_ab": r.prob_ab,
                    "prob_ba": r.prob_ba,
                }
                for r in rows
            ],
        }
        return _json_document(payload), 0
    lines = [
        f"# table1 n={args.n} t_max={args.t_max}",
        f"# reference_caption_n={REFERENCE_TABLE_CAPTION_N} "
        f"reference_matches_n={REFERENCE_TABLE_MATCHES_N}",
        f"# {reference_table_note()}",
        "t,amp_ab,amp_ba,prob_ab,prob_ba",
    ]
    for r in rows:
        lines.append(
            f"{r.t},{_fmt(r.amp_ab)},{_fmt(r.amp_ba)},{_fmt(r.prob_ab)},{_fmt(r.prob_ba)}"
        )
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args) -> tuple[str, int]:
    from .verify import run_checks  # only `verify` needs the check registry

    extra = _parse_graph(args.graph, args.seed) if args.graph else None
    results = run_checks(extra_graph=extra)
    lines = []
    failed = 0
    for result in results:
        if result.passed:
            lines.append(f"PASS {result.name}")
        else:
            failed += 1
            lines.append(f"FAIL {result.name}: {result.detail}")
    passed = len(results) - failed
    lines.append(f"verify: {passed} passed, {failed} failed")
    return "\n".join(lines) + "\n", 3 if failed else 0


# ======================================================================================
# Parser
# ======================================================================================


def _add_common(sub: argparse.ArgumentParser, *, graph_required: bool = True) -> None:
    sub.add_argument(
        "--graph",
        required=graph_required,
        help="graph spec 'family:param[:param...]' "
        f"(families: {', '.join(GRAPH_FAMILIES)}); edge_list:PATH loads a file",
    )
    sub.add_argument("--seed", type=int, default=0, help="seed for random_regular (default 0)")
    sub.add_argument("--output", "-o", default=None, help="output path (default stdout)")


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_state(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--state",
        required=True,
        help="state spec: edge:u:v | selfflip:u:v | uniform | csv:PATH",
    )
    sub.add_argument(
        "--dump-network",
        default=None,
        metavar="PATH",
        help="also write the state's double-graph electric network as JSON",
    )
    sub.add_argument(
        "--zero-tol",
        type=_tolerance,
        default=ZERO_AMPLITUDE_TOL,
        help="amplitudes at or below this count as zero when building networks",
    )
    sub.add_argument(
        "--flip-tol",
        type=_tolerance,
        default=1e-9,
        help="tolerance for the self-flip test on the input state",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oscillwalk", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="measured return overlaps vs. bounds")
    _add_common(sim)
    _add_format(sim)
    _add_state(sim)
    sim.add_argument("--t-max", type=int, default=20)
    sim.set_defaults(handler=_cmd_simulate)

    dec = commands.add_parser("decompose", help="flip/uniform/remainder decomposition")
    _add_common(dec)
    _add_format(dec)
    _add_state(dec)
    dec.set_defaults(handler=_cmd_decompose, format="json")

    res = commands.add_parser("resistance", help="resistance distance and path bounds")
    _add_common(res)
    _add_format(res)
    res.add_argument("--pair", required=True, help="vertex pair 'u:v'")
    res.set_defaults(handler=_cmd_resistance, format="json")

    bnd = commands.add_parser("bounds", help="electric-network bounds vs exact projection")
    _add_common(bnd)
    _add_format(bnd)
    _add_state(bnd)
    bnd.set_defaults(handler=_cmd_bounds, format="json")

    tab = commands.add_parser("table1", help="closed-form oscillation table for K_n")
    tab.add_argument("--n", type=int, required=True)
    tab.add_argument("--t-max", type=int, default=20)
    tab.add_argument("--output", "-o", default=None)
    _add_format(tab)
    tab.set_defaults(handler=_cmd_table1)

    ver = commands.add_parser("verify", help="run the built-in property suite")
    _add_common(ver, graph_required=False)
    ver.set_defaults(handler=_cmd_verify)

    return parser


# Built once: parse_args fills a fresh namespace on every call, so no state
# carries over from one call of main to the next.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        text, code = args.handler(args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return code
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
