"""Check that the CLI gives exactly what a parent commit gave.

    python tools/equivalence.py PARENT [--classes]

PARENT is a commit of this repository (a hash, a branch, ``HEAD~1``).  The
script extracts its tree with ``git archive`` into a temporary directory, so
no worktree is registered and nothing leaves the machine.  It then runs one
list of invocations through ``oscillwalk.cli.main`` twice, in a fresh
interpreter with PARENT's ``src/`` and in one with this checkout's (its
working tree, uncommitted edits included).

The invocations are every operation of the zoo, certify and resist plans of
seeds 1-3 (``perfbench/inputs.plan``), each in its default format, with
``--format json`` and with ``--format csv``, and once more with ``--output``
and, where the subcommand takes a state, ``--dump-network``; then ``table1``
at n = 4, 5, 8 and 12 in both formats, ``simulate --graph torus:2:200`` from
``edge:0:1`` to t = 150 and from ``uniform`` to t = 40 in CSV and in JSON
(walks of a whole-graph window of 40,000 vertices, which the walk steps in
several column blocks; every plan's walk takes one), ``verify``, ``bounds
--graph complete:4 --state csv:F`` on every file F of the state-file corpus
``tests/state_corpus.py`` (valid and malformed), and invocations that must
fail (a bad graph, state, pair, tolerance and state file, and ``simulate
--t-max 0 --dump-network F``, which writes no file).

Stdout, stderr, exit codes and the files each invocation writes must be
identical byte for byte.  The script prints the number of invocations and,
for the first one that differs, its name, its arguments, what differs and
the first differing byte.  Exit status: 0 identical, 1 a difference, 2 a
run that could not be made.

With ``--classes``, exit codes and stderr must still be identical, and a
file must be written on both sides or on neither, but a number in stdout or
in a written file may differ by one of three classes of rounding, each
counted and printed:

- zero noise: both values are at most 1e-12 in modulus (the rounding noise
  of a quantity that is 0 in exact arithmetic);
- JSON float: in a JSON document, the values are within
  1e-12 * max(1, |parent's value|);
- 9-digit tie: in CSV, the two 9-significant-digit values are one unit of
  the last digit apart and their midpoint is, within 1e-12 relative, a
  number of the parent's JSON output of the same operation (the exact
  value sits on the rounding boundary).

Anything else fails, named by its invocation and field: another number,
text, a JSON key or its order, a CSV column or its order, a line count.
"""

from __future__ import annotations

import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
WORKLOADS = ("zoo", "certify", "resist")
TAKES_STATE = ("simulate", "decompose", "bounds")

# Runs in a fresh interpreter whose PYTHONPATH is one tree's src/:
# argv[1] the invocations (JSON), argv[2] the result file (pickle).  Each
# invocation runs in an empty working directory; the files it leaves there
# are its written files, read and removed before the next one runs.
RUNNER = """
import contextlib, io, json, os, pickle, sys, traceback
import oscillwalk.cli
with open(sys.argv[1], encoding="utf-8") as fh:
    runs = json.load(fh)
results = []
for name, argv in runs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = oscillwalk.cli.main(argv)
        except Exception:
            code = "raised: " + traceback.format_exc().splitlines()[-1]
    files = {}
    for entry in sorted(os.listdir(".")):
        with open(entry, "rb") as fh:
            files[entry] = fh.read()
        os.remove(entry)
    results.append((code, out.getvalue(), err.getvalue(), files))
with open(sys.argv[2], "wb") as fh:
    pickle.dump((oscillwalk.cli.__file__, results), fh)
"""


def invocations(workdir: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every invocation; state files are written to workdir."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import inputs
    import state_corpus

    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            plan_dir = os.path.join(workdir, f"{workload}{seed}")
            os.mkdir(plan_dir)
            for op in inputs.plan(workload, seed, plan_dir)["ops"]:
                name, argv = f"{workload}:{seed}:{op['id']}", op["argv"]
                files = ["--output", "out.txt"]
                if argv[0] in TAKES_STATE:
                    files += ["--dump-network", "network.json"]
                runs += [(name, argv), (f"{name} json", argv + ["--format", "json"]),
                         (f"{name} csv", argv + ["--format", "csv"]),
                         (f"{name} files", argv + files)]
    for n in ("4", "5", "8", "12"):
        runs += [(f"table1:{n}", ["table1", "--n", n]),
                 (f"table1:{n} json", ["table1", "--n", n, "--t-max", "30", "--format", "json"])]
    for state, t_max in (("edge:0:1", "150"), ("uniform", "40")):
        argv = ["simulate", "--graph", "torus:2:200", "--state", state, "--t-max", t_max]
        runs += [(f"simulate torus:2:200 {state} {form}", argv + ["--format", form])
                 for form in ("csv", "json")]
    corpus = {name: text.encode() for name, text in state_corpus.STATE_FILES.items()}
    corpus.update(state_corpus.STATE_BYTES)
    for name, data in sorted(corpus.items()):
        path = os.path.join(workdir, f"{name}.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        runs.append((f"state file {name}",
                     ["bounds", "--graph", "complete:4", "--state", f"csv:{path}"]))
    state = ["--graph", "complete:4", "--state", "edge:0:1"]
    runs += [
        ("verify", ["verify"]),
        ("verify cycle:5", ["verify", "--graph", "cycle:5", "--output", "out.txt"]),
        ("no subcommand", []),
        ("bad graph", ["bounds", "--graph", "mystery:4", "--state", "edge:0:1"]),
        ("bad state", ["decompose", "--graph", "complete:4", "--state", "nonsense"]),
        ("non-arc state", ["bounds", "--graph", "complete:4", "--state", "edge:0:0"]),
        ("bad pair", ["resistance", "--graph", "complete:4", "--pair", "0"]),
        ("bad tolerance", ["bounds", *state, "--zero-tol", "nan"]),
        ("missing state file", ["decompose", "--graph", "complete:4", "--state", "csv:missing.csv"]),
        ("t-max 0 with dump", ["simulate", *state, "--t-max", "0", "--dump-network", "network.json"]),
        ("output in a missing folder", ["resistance", "--graph", "cycle:5", "--pair", "0:1",
                                        "--output", os.path.join("missing", "out.txt")]),
        ("table1 n 3", ["table1", "--n", "3"]),
        ("verify with a format", ["verify", "--format", "json"]),
    ]
    return runs


def start(src: Path, runs_path: str, result_path: str, cwd: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return subprocess.Popen([sys.executable, "-c", RUNNER, runs_path, result_path],
                            cwd=cwd, env=env)


def differences(old, new) -> list[tuple[str, object, object]]:
    """(what, parent's, change's) of each part of one outcome that differs."""
    parts = list(zip(("exit code", "stdout", "stderr"), old[:3], new[:3]))
    for path in sorted(set(old[3]) | set(new[3])):
        parts.append((f"file {path}", old[3].get(path), new[3].get(path)))
    return [part for part in parts if part[1] != part[2]]


def first_byte(a, b) -> str:
    if not isinstance(a, (str, bytes)) or not isinstance(b, type(a)):
        return f"{a!r:.80} against {b!r:.80}"  # an exit code, or a file only one side wrote
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"first differing byte at {at}: {a[at:at + 60]!r} against {b[at:at + 60]!r}"


# --classes: the rounding classes a number may differ by, in the order tried.
ZERO, JSON_FLOAT, TIE = "zero noise", "JSON float", "9-digit tie"
CLASS_TOL = 1e-12
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def json_numbers(text: str) -> list[float]:
    """Every number of a JSON document, or [] if the text is not one."""
    try:
        document = json.loads(text)
    except ValueError:
        return []
    found, stack = [], [document]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            found.append(float(item))
    return found


def near(a: float, b: float) -> bool:
    return abs(a - b) <= CLASS_TOL * max(1.0, abs(a))


def number_class(old: str | float, new: str | float, json_values: list[float]) -> str | None:
    """The class by which two differing numbers differ, or None.  Strings
    are CSV cells; floats are JSON values."""
    a, b = float(old), float(new)
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    if abs(a) <= CLASS_TOL and abs(b) <= CLASS_TOL:
        return ZERO
    if not isinstance(old, str):
        return JSON_FLOAT if near(a, b) else None
    digits = f"{max(abs(a), abs(b)):.8e}"
    unit = 10.0 ** (int(digits.split("e")[1]) - 8)
    if abs(abs(a - b) - unit) <= 1e-6 * unit:
        midpoint = (a + b) / 2
        if any(near(midpoint, v) for v in json_values):
            return TIE
    return None


def tally(found: dict, kind: str, a: float, b: float) -> None:
    """Count one number of class `kind` and keep the largest relative
    difference, |a - b| / max(1, |a|), of each class."""
    count, largest = found.get(kind, (0, 0.0))
    found[kind] = count + 1, max(largest, abs(a - b) / max(1.0, abs(a)))


def json_classes(old, new, field: str, json_values, found: dict) -> str | None:
    """Walk two JSON documents side by side, counting number classes into
    `found`; returns the first field that differs otherwise."""
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return f"{field or '<document>'} (length {len(old)} against {len(new)})"
        pairs = [(f"{field}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
    elif isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            return f"{field or '<document>'} (keys {list(old)} against {list(new)})"
        pairs = [(f"{field}.{key}" if field else key, old[key], new[key]) for key in old]
    elif type(old) is type(new) and (old == new or repr(old) == repr(new)):  # nan too
        return None
    elif (isinstance(old, float) and isinstance(new, float)
          and (kind := number_class(old, new, json_values))):
        tally(found, kind, old, new)
        return None
    else:
        return f"{field or '<document>'} ({old!r} against {new!r})"
    for name, a, b in pairs:
        if (bad := json_classes(a, b, name, json_values, found)) is not None:
            return bad
    return None


def text_classes(old: str, new: str, json_values, found: dict) -> str | None:
    """Compare two outputs, JSON or CSV/plain text, counting number classes
    into `found`; returns the first field that differs otherwise."""
    try:
        old_doc, new_doc = json.loads(old), json.loads(new)
    except ValueError:
        pass
    else:
        return json_classes(old_doc, new_doc, "", json_values, found)
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return f"line count ({len(old_lines)} against {len(new_lines)})"
    header = None
    for row, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a.startswith("#") or header is None:
            if a != b:
                return f"line {row} ({a!r} against {b!r})"
            header = None if a.startswith("#") else a.split(",")
            continue
        cells_a, cells_b = a.split(","), b.split(",")
        if len(cells_a) != len(cells_b):
            return f"line {row} (cell count {len(cells_a)} against {len(cells_b)})"
        for column, (x, y) in enumerate(zip(cells_a, cells_b)):
            name = header[column] if column < len(header) else f"column {column + 1}"
            parts_x, parts_y = x.split(";"), y.split(";")
            if len(parts_x) != len(parts_y):
                return f"line {row} field {name} ({x!r} against {y!r})"
            for p, q in zip(parts_x, parts_y):
                if p == q:
                    continue
                numbers = NUMBER.fullmatch(p) and NUMBER.fullmatch(q)
                kind = numbers and number_class(p, q, json_values)
                if not kind:
                    return f"line {row} field {name} ({p!r} against {q!r})"
                tally(found, kind, float(p), float(q))
    return None


def classify(runs, parent, change) -> tuple[dict, dict, list[str]]:
    """({class: (numbers, largest relative difference)}, {class:
    invocations}, failures)."""
    json_values: dict[str, list[float]] = {}
    for (name, _), old in zip(runs, parent):
        json_values.setdefault(name.split(" ")[0], []).extend(json_numbers(old[1]))
    counts, ops, failures = {}, {}, []
    for (name, _), old, new in zip(runs, parent, change):
        values = json_values.get(name.split(" ")[0], [])
        found: dict = {}
        bad = None
        if old[0] != new[0]:
            bad = f"exit code ({old[0]!r} against {new[0]!r})"
        elif old[2] != new[2]:
            bad = f"stderr: {first_byte(old[2], new[2])}"
        elif set(old[3]) != set(new[3]):
            bad = f"written files ({sorted(old[3])} against {sorted(new[3])})"
        else:
            texts = [("stdout", old[1], new[1])] + [
                (f"file {path}", old[3][path].decode(), new[3][path].decode())
                for path in sorted(old[3])]
            for what, a, b in texts:
                if a != b and (field := text_classes(a, b, values, found)) is not None:
                    bad = f"{what}: {field}"
                    break
        if bad is not None:
            failures.append(f"{name}: {bad}")
            continue
        for kind, (count, largest) in found.items():
            total, most = counts.get(kind, (0, 0.0))
            counts[kind] = total + count, max(most, largest)
            ops[kind] = ops.get(kind, 0) + 1
    return counts, ops, failures


def main(argv: list[str]) -> int:
    classes = "--classes" in argv
    argv = [arg for arg in argv if arg != "--classes"]
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                             capture_output=True)
        if tar.returncode:
            print(f"git archive {argv[0]}: {tar.stderr.decode().strip()}", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
            archive.extractall(os.path.join(tmp, "parent"))
        work = os.path.join(tmp, "inputs")
        os.mkdir(work)
        runs = invocations(work)
        runs_path = os.path.join(tmp, "runs.json")
        with open(runs_path, "w", encoding="utf-8") as fh:
            json.dump(runs, fh)
        trees = {"parent": Path(tmp, "parent", "src"), "change": ROOT / "src"}
        procs = {}
        for side, src in trees.items():
            cwd = os.path.join(tmp, f"cwd-{side}")
            os.mkdir(cwd)
            procs[side] = start(src, runs_path, os.path.join(tmp, f"{side}.pickle"), cwd)
        results = {}
        for side, proc in procs.items():
            if proc.wait():
                print(f"the {side} run exited {proc.returncode}", file=sys.stderr)
                return 2
            with open(os.path.join(tmp, f"{side}.pickle"), "rb") as fh:
                module, results[side] = pickle.load(fh)
            if not Path(module).resolve().is_relative_to(trees[side].resolve()):
                print(f"the {side} run imported {module}", file=sys.stderr)
                return 2
    differing = [(name, args, found) for (name, args), old, new
                 in zip(runs, results["parent"], results["change"])
                 if (found := differences(old, new))]
    print(f"{len(runs)} invocations against {argv[0]}: {len(differing)} differ")
    if classes:
        counts, ops, failures = classify(runs, results["parent"], results["change"])
        for kind in (ZERO, JSON_FLOAT, TIE):
            count, largest = counts.get(kind, (0, 0.0))
            print(f"{kind}: {count} numbers in {ops.get(kind, 0)} invocations"
                  f" (largest difference {largest:.2g} relative)")
        print(f"unclassified: {len(failures)} invocations")
        for failure in failures:
            print(f"unclassified: {failure}")
        return 1 if failures else 0
    if differing:
        name, args, found = differing[0]
        what, old, new = found[0]
        print(f"first difference: {name}: oscillwalk {' '.join(args)}")
        print(f"  {what}: {first_byte(old, new)}")
        for name, _, found in differing:
            print(f"differs: {name} ({', '.join(what for what, _, _ in found)})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
