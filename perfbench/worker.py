"""One workload process: set up, warm up, run the closed loop, check answers.

Run by ``run.py`` in a fresh interpreter with the BLAS thread count fixed:

    python3 perfbench/worker.py PLAN.json RESULT.json SECONDS TRACE [--setup-only]

The set-up time covers importing ``oscillwalk`` and ``oscillwalk.cli`` and
the program calls a workload makes once before its loop (graph builds and
state construction for ``evolve``).  Only stdlib modules are imported before
that clock stops, so the import of numpy and scipy is charged to the
program, as its users pay it.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# A pass that would run past this is cut short, so a run always ends in time.
HARD_LIMIT_S = 120.0


def _setup(plan: dict, tracer):
    """Import the program and make the workload's one-time calls.

    Returns (setup seconds, the oscillwalk module, states by operation id)."""
    import oscillwalk
    import oscillwalk.cli

    spent = time.perf_counter() - _T0
    if tracer is not None:
        tracer.install(oscillwalk.cli, oscillwalk)
    states = {}
    if plan["workload"] == "evolve":
        t = time.perf_counter()
        graphs = {}
        if tracer is not None:
            tracer.begin_op("setup")
            tracer.enabled = True
        for spec in plan["graphs"]:
            family, _, rest = spec.partition(":")
            graphs[spec] = oscillwalk.build_graph(family, rest.split(":"))
        spent += time.perf_counter() - t
        if tracer is not None:
            tracer.enabled = False
            tracer.end_op()
        import numpy as np

        for op in plan["ops"]:
            g = graphs[op["graph"]]
            if "edge" in op["state"]:
                t = time.perf_counter()
                states[op["id"]] = oscillwalk.basis_arc_state(g, *op["state"]["edge"])
            else:
                amps = np.load(op["state"]["npy"])
                t = time.perf_counter()
                states[op["id"]] = oscillwalk.ArcState(g, amps)
            spent += time.perf_counter() - t
    return spent, oscillwalk, states


def _series_text(series) -> str:
    """The overlap series as CSV with the CLI's 9 significant digits."""
    lines = ["t,overlap_even,overlap_odd"]
    for k, value in enumerate(series.even_overlaps):
        lines.append(f"{2 * k},{float(value):.9g},")
    for k, value in enumerate(series.odd_overlaps):
        lines.append(f"{2 * k + 1},,{float(value):.9g}")
    lines[1:] = sorted(lines[1:], key=lambda row: int(row.split(",")[0]))
    return "\n".join(lines) + "\n"


class Runner:
    def __init__(self, program, states, tracer):
        self.ow = program
        self.states = states
        self.tracer = tracer

    def run(self, op: dict, traced: bool = False):
        """(seconds, exit code, output text); an exception is exit code -1
        with the exception as its text, and stderr joins the text of a
        non-zero exit."""
        tracer = self.tracer
        if traced:
            tracer.begin_op(op["id"])
            tracer.enabled = True
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t = time.perf_counter()
                with tracer.span("op") if traced else contextlib.nullcontext():
                    if "argv" in op:
                        code = self.ow.cli.main(op["argv"])
                    else:
                        series = self.ow.measured_overlaps(self.states[op["id"]], op["t_max"])
                        code = 0
                dt = time.perf_counter() - t
        except Exception as exc:  # an operation that raises is a failed operation
            return time.perf_counter() - t, -1, f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.enabled = False
                tracer.end_op()
        text = out.getvalue() if "argv" in op else _series_text(series)
        return dt, code, text if code == 0 else text + err.getvalue()


def _thread_count() -> int | None:
    """Operating-system threads of this process (BLAS workers included)."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration, ValueError):
        return None


def main(argv) -> int:
    plan_path, result_path, seconds, trace = argv[:4]
    setup_only = "--setup-only" in argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if trace == "1" and not setup_only:
        import tracing

        tracer = tracing.Tracer()
    setup_s, program, states = _setup(plan, tracer)
    result = {"setup_s": setup_s}
    if not setup_only:
        result.update(_loop(plan, Runner(program, states, tracer), float(seconds), tracer))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["threads"] = _thread_count()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _loop(plan, runner: Runner, seconds: float, tracer) -> dict:
    import oracles
    import tracing

    ops = plan["ops"]
    attempted = failed = 0
    failures: list[str] = []
    digests: dict[str, str] = {}

    def judge(op, code, text) -> None:
        nonlocal attempted, failed
        attempted += 1
        errs = oracles.check(op, code, text)
        if code == -1:
            errs = [text]
        if errs:
            failed += 1
            if len(failures) < 20:
                failures.append(f"{op['id']} {op['graph']}: {'; '.join(errs[:3])}")
        if op["id"] not in digests:
            digests[op["id"]] = hashlib.sha256(text.encode()).hexdigest()

    warm = ops[plan["warmup"]]
    _, code, text = runner.run(warm)
    judge(warm, code, text)
    # Oracle self-test: the warm-up answer with one number changed must fail.
    self_test_failed = bool(oracles.check(warm, code, oracles.corrupt(text))) if code == 0 else False

    times: list[float] = []
    op_times: dict[str, list[float]] = {}
    traced_times: list[float] = []
    memory_done: set[str] = set()
    passes = 0
    truncated = False
    start = time.perf_counter()
    while not truncated:
        for position, index in enumerate(plan["passes"][passes % len(plan["passes"])]):
            op = ops[index]
            if tracer is None:
                dt, code, text = runner.run(op)
                times.append(dt)
                op_times.setdefault(op["id"], []).append(dt)
                judge(op, code, text)
            else:
                # Pair every traced call with an untraced one, alternating
                # which goes first, for the tracing overhead ratio.
                for traced in ((False, True) if position % 2 == 0 else (True, False)):
                    spans_before = len(tracer.spans)
                    dt, code, text = runner.run(op, traced=traced)
                    (traced_times if traced else times).append(dt)
                    judge(op, code, text)
                    if traced and op["graph"] not in memory_done and any(
                        span[0] in tracing.MEMORY_SPANS for span in tracer.spans[spans_before:]
                    ):
                        memory_done.add(op["graph"])
                        tracer.memory = True
                        runner.run(op)
                        tracer.memory = False
            if time.perf_counter() - start > HARD_LIMIT_S:
                truncated = True
                break
        passes += 1
        if time.perf_counter() - start >= seconds:
            break

    out = {
        "times": times,
        "op_times": op_times,
        "loop_s": time.perf_counter() - start,
        "passes": passes,
        "truncated": truncated,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "self_test": {"op": warm["id"], "corrupted_answer_failed": self_test_failed},
        "output_digests": digests,
    }
    if tracer is not None:
        out["layers"] = {k: list(v) for k, v in
                         tracing.layer_metrics(tracer, traced_times, times).items()}
        out["missing_spans"] = tracer.missing
        out["unreadable_results"] = len(tracer.facts.get("unreadable", []))
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
