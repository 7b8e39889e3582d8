"""Check that the CLI gives exactly what a parent commit gave.

    python tools/equivalence.py PARENT

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
at n = 4, 5, 8 and 12 in both formats, ``verify``, and invocations that must
fail (a bad graph, state, pair, tolerance and state file, and ``simulate
--t-max 0 --dump-network F``, which writes no file).

Stdout, stderr, exit codes and the files each invocation writes must be
identical byte for byte.  The script prints the number of invocations and,
for the first one that differs, its name, its arguments, what differs and
the first differing byte.  Exit status: 0 identical, 1 a difference, 2 a
run that could not be made.
"""

from __future__ import annotations

import io
import json
import os
import pickle
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
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import inputs

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
    malformed = os.path.join(workdir, "malformed.csv")
    with open(malformed, "w", encoding="utf-8") as fh:
        fh.write("arc_id,re,im\n0,1,0\n0,0,0\n")
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
        ("malformed state file", ["bounds", "--graph", "complete:4", "--state", f"csv:{malformed}"]),
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


def main(argv: list[str]) -> int:
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
