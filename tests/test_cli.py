"""End-to-end CLI behavior: formats, determinism, and exit codes."""

import csv
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oscillwalk import basis_arc_state, hypercube_graph, torus_graph, write_state_csv
from oscillwalk import cli
from oscillwalk.cli import main
from oscillwalk.electric import CERTIFIED


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args):
    """Run a fresh interpreter that imports oscillwalk from this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def read_csv_rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


# ---- table1 ---------------------------------------------------------------------------


def test_table1_values_and_metadata(capsys):
    code, out, _ = run_cli(["table1", "--n", "100", "--t-max", "20"], capsys)
    assert code == 0
    assert "reference_caption_n=16" in out
    assert "reference_matches_n=100" in out
    rows = read_csv_rows(out)
    assert len(rows) == 21
    assert float(rows[1]["amp_ba"]) == pytest.approx(-0.979798, abs=5e-7)
    assert float(rows[4]["prob_ab"]) == pytest.approx(0.999967, abs=5e-7)


def test_table1_json_metadata(capsys):
    code, out, _ = run_cli(["table1", "--n", "16", "--t-max", "3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["reference_caption_n"] == 16
    assert payload["metadata"]["reference_matches_n"] == 100
    assert payload["rows"][1]["amp_ba"] == pytest.approx(-13 / 15)


def test_table1_rejects_tiny_n(capsys):
    code, _, err = run_cli(["table1", "--n", "3"], capsys)
    assert code == 1
    assert err.strip().count("\n") == 0  # single-line diagnostic


# ---- decompose ------------------------------------------------------------------------


def test_decompose_json_fields(capsys):
    code, out, _ = run_cli(
        ["decompose", "--graph", "complete:4", "--state", "edge:0:1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "alpha_sq",
        "beta_sq",
        "gamma_sq",
        "flip_component",
        "uniform_component",
        "remainder_component",
    }
    assert payload["alpha_sq"] == pytest.approx(5 / 12, abs=1e-9)
    assert payload["beta_sq"] == pytest.approx(1 / 12, abs=1e-9)
    assert len(payload["flip_component"]) == 12  # [re, im] per arc of K_4
    total = np.array(payload["flip_component"]) + np.array(payload["uniform_component"])
    total += np.array(payload["remainder_component"])
    # components add back up to the starting basis state
    expected = np.zeros((12, 2))
    from oscillwalk import complete_graph

    expected[complete_graph(4).arc_index(0, 1), 0] = 1.0
    assert np.max(np.abs(total - expected)) <= 1e-9


def test_decompose_csv_row(capsys):
    code, out, _ = run_cli(
        ["decompose", "--graph", "complete:4", "--state", "edge:0:1", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = read_csv_rows(out)
    assert float(rows[0]["alpha_sq"]) == pytest.approx(0.416666667)
    assert float(rows[0]["gamma_sq"]) == pytest.approx(0.5)


# ---- simulate ---------------------------------------------------------------------------


def test_simulate_rows_respect_bounds(capsys):
    code, out, _ = run_cli(
        ["simulate", "--graph", "complete:100", "--state", "edge:0:1", "--t-max", "20"],
        capsys,
    )
    assert code == 0
    rows = read_csv_rows(out)
    assert len(rows) == 21
    for row in rows:
        if row["overlap_even"]:
            assert float(row["overlap_even"]) >= float(row["bound_even"]) - 1e-9
        else:
            value = float(row["overlap_odd"])
            assert value >= float(row["bound_odd"]) - 1e-9
            assert value == pytest.approx(0.979798, abs=1e-6)


def test_simulate_json_uses_series_field_names(capsys):
    code, out, _ = run_cli(
        [
            "simulate",
            "--graph",
            "cycle:6",
            "--state",
            "uniform",
            "--t-max",
            "4",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"even_overlaps", "odd_overlaps", "even_bound", "odd_bound"}
    assert len(payload["even_overlaps"]) == 3
    assert len(payload["odd_overlaps"]) == 2


def test_simulate_deterministic_output(tmp_path, capsys):
    args = [
        "simulate",
        "--graph",
        "random_regular:10:4",
        "--seed",
        "5",
        "--state",
        "uniform",
        "--t-max",
        "12",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(first)]) == 0
    assert main(args + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_simulate_accepts_custom_csv_state(tmp_path, capsys):
    g = hypercube_graph(3)
    path = tmp_path / "state.csv"
    write_state_csv(basis_arc_state(g, 0, 1), str(path))
    code, out, _ = run_cli(
        ["simulate", "--graph", "hypercube:3", "--state", f"csv:{path}", "--t-max", "4"],
        capsys,
    )
    assert code == 0
    assert read_csv_rows(out)[0]["overlap_even"] == "1"


# ---- resistance ---------------------------------------------------------------------------


def test_resistance_on_hypercube(capsys):
    code, out, _ = run_cli(
        ["resistance", "--graph", "hypercube:3", "--pair", "0:1"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["omega"] == pytest.approx(0.583333333, abs=1e-9)
    assert record["k"] == 3
    assert record["paths_bound"] == pytest.approx(0.6, abs=1e-12)
    assert record["path_lengths"] == [1, 3, 3]


@pytest.mark.parametrize("spec,pair", [("torus:2:10", "0:1"), ("complete:7", "2:5"), ("torus:2:9", "0:12")])
def test_resistance_labels_twice_and_builds_no_double(spec, pair, capsys, monkeypatch):
    from oscillwalk import cli, electric, graphs

    expected = run_cli(["resistance", "--graph", spec, "--pair", pair], capsys)
    labelings = []

    def counting(*args):
        labelings.append(args[0])
        return label_components(*args)

    def no_double(g):
        raise AssertionError("resistance built a bipartite double")

    label_components = graphs.label_components
    for module in (graphs, electric):
        monkeypatch.setattr(module, "label_components", counting)
    for module in (graphs, cli):
        monkeypatch.setattr(module, "bipartite_double", no_double)
    assert run_cli(["resistance", "--graph", spec, "--pair", pair], capsys) == expected
    assert expected[0] == 0
    # The graph when it is built, and its double on first use.
    assert len(labelings) <= 2


@pytest.mark.parametrize(
    "spec,pair,n,odd",
    [("hypercube:8", "0:1", 256, False), ("torus:2:12", "5:17", 144, False),
     ("torus:2:13", "0:14", 169, True), ("complete:7", "2:5", 7, True)],
)
def test_resistance_assembles_one_laplacian_and_a_signless_one_if_odd(spec, pair, n, odd, capsys,
                                                                      monkeypatch):
    from oscillwalk import electric
    from oscillwalk.graphs import build_graph

    expected = run_cli(["resistance", "--graph", spec, "--pair", pair], capsys)
    assembled = []

    def recording(node_count, tails, heads, pins, signs=-1.0, *, dense=False):
        assembled.append((node_count, tails.size, pins.size, np.unique(signs).tolist()))
        return laplacian(node_count, tails, heads, pins, signs, dense=dense)

    def reducing(tails, heads, red):
        reduced = red_black(tails, heads, red)
        assembled.append((red.size, tails.size, reduced.red.size, reduced.bt.nnz))
        return reduced

    laplacian, red_black = electric._laplacian, electric._RedBlack
    monkeypatch.setattr(electric, "_laplacian", recording)
    monkeypatch.setattr(electric, "_RedBlack", reducing)
    assert run_cli(["resistance", "--graph", spec, "--pair", pair], capsys) == expected
    # Each system is g's own, on all of its n vertices and m edges (a
    # network would lack some links): L, then Q, unpinned, when a's
    # component has an odd cycle, where Q's links carry S_u S_v = +1 (see
    # electric._g_potentials).  A dense L is pinned at one vertex.  CG
    # solves L unpinned and shifts its solution to the pin's value instead;
    # on a bipartite g it runs on the n / 2 red vertices, whose m links to
    # the black ones are each one entry of B, and assembles no Laplacian.
    family, *params = spec.split(":")
    m = len(build_graph(family, params).edges)
    if n <= electric._DENSE_MAX_NODES:
        l_system = (n, m, 1, [-1.0])
    else:
        l_system = (n, m, 0, [-1.0]) if odd else (n, m, n // 2, m)
    assert assembled == [l_system] + ([(n, m, 0, [1.0])] if odd else [])


def test_resistance_pair_in_different_copies_of_the_double_exits_one(capsys):
    # 0 and 3 share a color of Q_3: omega is defined, omega_double is not.
    code, out, err = run_cli(["resistance", "--graph", "hypercube:3", "--pair", "0:3"], capsys)
    assert (code, out, err) == (1, "", "error: vertices 0 and 11 lie in different components\n")


def test_unconverged_solve_exits_four(capsys, monkeypatch):
    from oscillwalk import electric

    monkeypatch.setattr(electric, "_pcg", functools.partial(electric._pcg, max_iter=1))
    code, out, err = run_cli(["resistance", "--graph", "hypercube:8", "--pair", "0:1"], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "did not converge" in err


def test_resistance_verdict_on_complete_graph(capsys):
    code, out, _ = run_cli(
        ["resistance", "--graph", "complete:8", "--pair", "0:1"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["omega"] == pytest.approx(0.25, abs=1e-9)
    assert record["k"] == 7
    assert record["verdict_selfflip"] == CERTIFIED
    assert record["verdict_single_edge"] == CERTIFIED


# ---- bounds ---------------------------------------------------------------------------------


def test_bounds_reports_equality_on_edge_transitive(capsys):
    code, out, _ = run_cli(
        ["bounds", "--graph", "complete:4", "--state", "edge:0:1"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["double"]["feasible"] is True
    assert record["double"]["alpha_lower"] == pytest.approx(record["alpha_sq"], abs=1e-9)
    assert record["selfflip"] is None


def test_bounds_selfflip_block(capsys):
    code, out, _ = run_cli(
        ["bounds", "--graph", "complete:6", "--state", "selfflip:0:1"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["selfflip"] is not None
    assert record["selfflip"]["alpha_lower"] == pytest.approx(record["alpha_sq"], abs=1e-9)


# The zoo graphs, then two CG-sized graphs with odd cycles, whose single-edge
# states take L, then Q, as two conjugate-gradient solves.
PAIR_GRAPHS = [
    "complete:5", "complete:12", "cycle:5", "cycle:9", "hypercube:3", "hypercube:4",
    "complete_bipartite_balanced:3", "torus:2:5", "random_regular:12:4:7",
    "torus:2:13", "random_regular:200:5:3",
]


@pytest.mark.parametrize("spec", PAIR_GRAPHS)
def test_single_edge_bounds_are_the_resistance_commands_distances(spec, capsys):
    # An edge state's bound is 1 - omega_double and a self-flip state's
    # 1 - omega, both tight (electric's transfer-current block); the overlap
    # bound (1 - P') / (1 + P') is positive exactly when that distance is
    # below 1/2, the resistance verdict's test.
    g = cli._parse_graph(spec, None)
    rng = np.random.default_rng(g.n)
    for edge in sorted({0, int(rng.integers(len(g.edges)))}):
        u, v = g.edges[edge].tolist()
        code, out, _ = run_cli(["resistance", "--graph", spec, "--pair", f"{u}:{v}"], capsys)
        assert code == 0
        resistance = json.loads(out)
        for kind, network, omega, verdict in (
            ("edge", "double", resistance["omega_double"], resistance["verdict_single_edge"]),
            ("selfflip", "selfflip", resistance["omega"], resistance["verdict_selfflip"]),
        ):
            code, out, _ = run_cli(["bounds", "--graph", spec, "--state", f"{kind}:{u}:{v}"],
                                   capsys)
            assert code == 0
            record = json.loads(out)[network]
            assert abs(record["alpha_lower"] - (1.0 - omega)) <= 1e-12, (kind, u, v)
            assert (record["overlap_lower"] > 0) == (verdict == CERTIFIED), (kind, u, v)


def test_bounds_zero_tol_override_changes_the_network(capsys):
    # an absurdly large cut turns every arc into a resistor: trivial network
    code, out, _ = run_cli(
        [
            "bounds",
            "--graph",
            "complete:4",
            "--state",
            "edge:0:1",
            "--zero-tol",
            "2.0",
        ],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["double"]["power"] == 0.0
    assert record["double"]["alpha_lower"] == 1.0
    # the exact projection is untouched by the override
    assert record["alpha_sq"] == pytest.approx(5 / 12, abs=1e-9)


def test_dump_network(tmp_path, capsys):
    dump = tmp_path / "net.json"
    code, _, _ = run_cli(
        [
            "bounds",
            "--graph",
            "complete:3",
            "--state",
            "edge:0:1",
            "--dump-network",
            str(dump),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(dump.read_text())
    assert payload["node_count"] == 6
    assert len(payload["resistor_edges"]) == 5
    assert payload["injections"]["4"] == [1.0, 0.0]
    assert payload["injections"]["0"] == [-1.0, 0.0]


@pytest.mark.parametrize("state", ["edge:0:1", "selfflip:3:8", "csv"])
def test_bounds_builds_the_dumped_double_network_once(state, tmp_path, capsys, monkeypatch):
    # The network written to --dump-network is the one certify labels and
    # solves: one build, and the file is the dump of that network.
    from oscillwalk import electric, oscillation
    from oscillwalk.verify import random_state

    g = torus_graph(2, 5)
    if state == "csv":
        state = f"csv:{tmp_path / 'state.csv'}"
        write_state_csv(random_state(g, np.random.default_rng(3)), state[4:])
    expected = run_cli(["bounds", "--graph", "torus:2:5", "--state", state], capsys)
    psi = cli._parse_state(g, state)
    cli._dump_network(electric.network_from_state_double(psi), str(tmp_path / "expected.json"))
    built = []

    def counting(*args, **kw):
        built.append(args[0])
        return electric.network_from_state_double(*args, **kw)

    for module in (cli, oscillation):
        monkeypatch.setattr(module, "network_from_state_double", counting)
    dump = tmp_path / "net.json"
    argv = ["bounds", "--graph", "torus:2:5", "--state", state, "--dump-network", str(dump)]
    assert run_cli(argv, capsys) == expected
    assert len(built) == 1
    assert dump.read_bytes() == (tmp_path / "expected.json").read_bytes()


# ---- verify ---------------------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert ", 0 failed" in out
    assert all(line.startswith(("PASS", "verify:")) for line in out.strip().splitlines())


def test_verify_with_target_graph(capsys):
    code, out, _ = run_cli(["verify", "--graph", "cycle:5"], capsys)
    assert code == 0
    assert "PASS target_graph:oscillatory_subspace" in out


def test_cli_import_leaves_csgraph_and_sparse_linalg_unloaded():
    code = (
        "import sys, oscillwalk.cli; "
        "print([m for m in sys.modules "
        "if m.startswith(('scipy.sparse.csgraph', 'scipy.sparse.linalg'))])"
    )
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_leaves_the_verify_registry_unloaded():
    # Only the `verify` subcommand imports it, so no other command compiles
    # or runs it.
    code = "import sys, oscillwalk.cli; print('oscillwalk.verify' in sys.modules)"
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# Runs cli.main on each argument list of argv[1] (JSON) with stdout captured,
# then prints the exit codes and every loaded scipy module.
RUN_MAINS = (
    "import contextlib, io, json, sys\n"
    "from oscillwalk.cli import main\n"
    "codes = []\n"
    "for args in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        codes.append(main(args))\n"
    "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
)


def test_package_and_cli_import_load_no_scipy():
    result = run_python(["-c", RUN_MAINS, "[]"])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[] []\n"


def test_dense_only_commands_load_no_scipy(tmp_path):
    # Every Laplacian system below has at most 128 unknowns.
    path = tmp_path / "state.csv"
    write_state_csv(basis_arc_state(torus_graph(2, 5), 0, 1), str(path))
    commands = [["resistance", "--graph", "torus:2:5", "--pair", "0:1"],
                ["bounds", "--graph", "torus:2:5", "--state", f"csv:{path}"],
                ["decompose", "--graph", "torus:2:5", "--state", f"csv:{path}"]]
    for spec in ("hypercube:3", "complete:5"):
        commands += [["bounds", "--graph", spec, "--state", "selfflip:0:1"],
                     ["decompose", "--graph", spec, "--state", "edge:0:1"],
                     ["simulate", "--graph", spec, "--state", "edge:0:1", "--t-max", "6"],
                     ["resistance", "--graph", spec, "--pair", "0:1"]]
    result = run_python(["-c", RUN_MAINS, json.dumps(commands)])
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{[0] * len(commands)} []\n"


def test_cg_sized_resistance_imports_scipy_sparse_and_keeps_its_output():
    # torus 2:12 has 144 nodes, all of them unknowns: solved by CG.
    script = (
        "import sys\n"
        "from oscillwalk.cli import main\n"
        "code = main(['resistance', '--graph', 'torus:2:12', '--pair', '0:1', '--format', 'csv'])\n"
        "print(code, 'scipy.sparse' in sys.modules)\n"
    )
    result = run_python(["-c", script])
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        "omega,omega_double,k,path_lengths,paths_bound,verdict_single_edge,verdict_selfflip\n"
        "0.496527778,0.496527778,4,1;3;5;7,0.596590909,"
        "oscillatory localization certified,oscillatory localization certified\n"
        "0 True\n"
    )


def test_verify_rejects_format(capsys):
    code, out, err = run_cli(["verify", "--format", "json"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: unrecognized arguments") and err.count("\n") == 1


def test_verify_capacity_exit_code(capsys):
    # K_50 has 2450 arcs, above the dense-oracle ceiling
    code, _, err = run_cli(["verify", "--graph", "complete:50"], capsys)
    assert code == 2
    assert "capacity" in err


# ---- one parser for every call ----------------------------------------------------------------


def test_defaults_do_not_leak_between_calls(capsys):
    bounds = ["bounds", "--graph", "complete:4", "--state", "edge:0:1"]
    code, out, _ = run_cli(bounds + ["--format", "csv"], capsys)
    assert code == 0 and out.startswith("alpha_sq,")
    code, out, _ = run_cli(bounds, capsys)
    assert code == 0 and json.loads(out)["double"]["feasible"] is True
    code, out, _ = run_cli(["simulate"] + bounds[1:] + ["--t-max", "2"], capsys)
    assert code == 0 and out.startswith("t,overlap_even,")


# ---- config errors ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--graph", "mystery:4", "--state", "edge:0:1"],
        ["simulate", "--graph", "complete:4", "--state", "edge:0:0"],
        ["simulate", "--graph", "complete:4", "--state", "nonsense"],
        ["resistance", "--graph", "complete:4", "--pair", "0"],
        ["simulate", "--graph", "cycle:2", "--state", "edge:0:1"],
        ["decompose", "--graph", "complete:4", "--state", "csv:/no/such/file.csv"],
    ],
)
def test_config_errors_exit_one(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 1
    assert err.startswith("error:")
    assert err.strip().count("\n") == 0


@pytest.mark.parametrize("command", ["bounds", "simulate", "decompose"])
@pytest.mark.parametrize("flag", ["--zero-tol", "--flip-tol"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_tolerances_exit_one(command, flag, value, capsys):
    # a NaN or negative cut once gave power inf / dropped the self-flip block, exit 0
    args = [command, "--graph", "complete:5", "--state", "selfflip:0:1", f"{flag}={value}"]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: argument {flag}: tolerance must be finite and >= 0")
    assert err.strip().count("\n") == 0


def test_zero_tolerances_are_accepted(capsys):
    args = ["bounds", "--graph", "complete:5", "--state", "selfflip:0:1", "--format", "csv"]
    code, out, _ = run_cli(args + ["--zero-tol", "0", "--flip-tol", "0"], capsys)
    assert code == 0
    assert "power_selfflip" in out


def test_edge_list_graph_via_cli(tmp_path, capsys):
    g = hypercube_graph(2)
    path = tmp_path / "c4.edges"
    path.write_text("\n".join(f"{u} {v}" for u, v in g.edges) + "\n")
    code, out, _ = run_cli(
        ["resistance", "--graph", f"edge_list:{path}", "--pair", "0:1"], capsys
    )
    assert code == 0
    assert json.loads(out)["omega"] == pytest.approx(0.75, abs=1e-9)


def test_module_entry_point_runs():
    result = run_python(["-m", "oscillwalk.cli", "table1", "--n", "100", "--t-max", "2"])
    assert result.returncode == 0
    assert "reference_caption_n=16" in result.stdout
