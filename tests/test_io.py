"""CLI input and output byte for byte.

The CLI's JSON writer is checked against `json.dumps(indent=2,
sort_keys=True)`, and the state CSV reader and writer against the csv-module
row loops they replaced, kept here as the references.
"""

import csv
import json
import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oscillwalk import (
    ArcState,
    build_graph,
    complete_graph,
    decompose,
    measured_overlaps,
    oscillation_bounds,
    read_state_csv,
    torus_graph,
    write_state_csv,
)
from oscillwalk import cli, walk
from oscillwalk.cli import main
from state_corpus import GOOD, HEADER, STATE_BYTES, STATE_FILES
from state_corpus import rows as _rows

# Floats whose repr switches notation or digit count, the signed zeros and
# the subnormal and normal extremes.
BOUNDARY_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-5, 1e-4, 0.0001234, 1e15, 1e16, -1e16, 1e22, 1e23, 0.1, 1 / 3, 123456789012345680.0,
]


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def plain(obj):
    """`obj` with each complex numpy array as the list of its [re, im] pairs."""
    if isinstance(obj, np.ndarray):
        return [[float(z.real), float(z.imag)] for z in obj]
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(value) for value in obj]
    return obj


def outcome(fn, *args):
    """fn's return value, or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


# ---- the JSON writer ------------------------------------------------------------------


@pytest.mark.parametrize("value", BOUNDARY_FLOATS + [math.nan, math.inf, -math.inf])
def test_writer_floats_match_json_dumps(value):
    for obj in (value, np.float64(value), [value, np.float64(value)], {"x": value}):
        assert cli._json_document(obj) == dumps(obj)
    assert "np.float64" not in cli._json_document([np.float64(value)])


@pytest.mark.parametrize(
    "text", ["", "plain", "é", "日本語", "\x00\x01\x1f\x7f", '"\\/\b\f\n\r\t', "  ", "😀", "\ud800"]
)
def test_writer_strings_match_json_dumps(text):
    for obj in (text, [text], {text: text}):
        assert cli._json_document(obj) == dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [
        [], {}, (), [[]], [{}], {"a": {}, "b": [], "c": [[], {}]}, [[[]]],
        None, True, False, 0, -1, 2**70, [None, True, False, 0, 1.5],
        # the keys json.dumps writes for 1, 2.5, -0.0, True, False and None
        {"1": "int key", "2.5": "float key", "-0.0": "zero key"}, {"true": 1, "false": 0},
        {"null": 1}, {"b": 1, "a": {"d": [1, 2, (3, 4)], "c": None}},
    ],
)
def test_writer_containers_and_scalars_match_json_dumps(obj):
    assert cli._json_document(obj) == dumps(obj)


@pytest.mark.parametrize(
    "obj",
    [{1: "int key", 2.5: "float key", -0.0: "zero key"}, {True: 1, False: 0}, {None: 1},
     {(1, 2): 0}, [{"a": {"b": [{2: 0}]}}]],
    ids=["int-and-float", "bool", "none", "tuple", "nested"],
)
def test_writer_rejects_keys_that_are_not_str(obj):
    # json.dumps writes these keys as strings; no payload of the CLI has one.
    with pytest.raises(TypeError):
        cli._json_document(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {1, 2}, 1j, b"bytes", object(), np.int64(3), np.float32(0.5), np.bool_(True),
        np.arange(3.0), np.zeros((2, 2), dtype=np.complex128), [1, {"x": np.int64(2)}],
        {"a": (1, {2, 3})}, {1: 0, "a": 0},
    ],
)
def test_writer_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        cli._json_document(obj)
    assert str(got.value) == str(expected.value)


def test_writer_complex_arrays_match_their_pair_lists():
    rng = np.random.default_rng(1)
    values = np.array(BOUNDARY_FLOATS)
    arrays = [
        np.zeros(0, dtype=np.complex128),
        values + 1j * values[::-1],
        -values + 1j * values,
        (rng.standard_normal(9) + 1j * rng.standard_normal(9))[::2],  # strided
        np.array([complex(math.nan, 1.0), complex(0.0, math.inf), complex(-math.inf, -0.0)]),
    ]
    for arr in arrays:
        for obj in (arr, [arr], {"k": arr, "nested": {"deeper": [1, arr]}}):
            assert cli._json_document(obj) == dumps(plain(obj))


scalars = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats() | st.floats().map(np.float64)
)
complex_arrays = st.lists(st.complex_numbers(), max_size=5).map(
    lambda values: np.array(values, dtype=np.complex128)
)
json_values = st.recursive(
    scalars | complex_arrays,
    lambda children: (
        st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=3), children, max_size=4)
    ),
    max_leaves=24,
)
non_str_keys = st.integers(-5, 5) | st.floats() | st.booleans() | st.none()


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_writer_matches_json_dumps_on_drawn_values(obj):
    expected = outcome(dumps, plain(obj))
    assert outcome(cli._json_document, obj) == expected


@given(st.dictionaries(non_str_keys, json_values, min_size=1, max_size=3),
       st.dictionaries(st.text(max_size=3), json_values, max_size=3))
@settings(max_examples=100, deadline=None)
def test_writer_rejects_drawn_keys_that_are_not_str(bad, good):
    with pytest.raises(TypeError):
        cli._json_document({**good, "nested": [bad]})


ZOO = [
    "complete:5", "complete:12", "cycle:5", "cycle:9", "hypercube:3", "hypercube:4",
    "complete_bipartite_balanced:3", "torus:2:5", "random_regular:12:4:7",
]


@pytest.fixture
def documents(monkeypatch):
    """Every (payload, text) the CLI's JSON writer returns."""
    written = []
    writer = cli._json_document

    def spy(obj):
        text = writer(obj)
        written.append((obj, text))
        return text

    monkeypatch.setattr(cli, "_json_document", spy)
    return written


def random_state(g, rng) -> ArcState:
    amps = rng.standard_normal(g.arc_count) + 1j * rng.standard_normal(g.arc_count)
    return ArcState(g, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("spec", ZOO)
def test_every_subcommand_writes_what_json_dumps_writes(spec, tmp_path, documents, capsys):
    family, _, rest = spec.partition(":")
    g = build_graph(family, rest.split(":"))
    csv_path = tmp_path / "state.csv"
    write_state_csv(random_state(g, np.random.default_rng(len(spec))), str(csv_path))
    state = f"csv:{csv_path}"
    u, v = g.arc_endpoints(g.arc_count - 1)
    network = tmp_path / "network.json"
    commands = [
        ["simulate", "--graph", spec, "--state", state, "--t-max", "9", "--format", "json"],
        ["decompose", "--graph", spec, "--state", state],
        ["decompose", "--graph", spec, "--state", "uniform"],
        ["bounds", "--graph", spec, "--state", state, "--dump-network", str(network)],
        ["bounds", "--graph", spec, "--state", f"selfflip:{u}:{v}"],
        ["bounds", "--graph", spec, "--state", f"edge:{v}:{u}"],
        ["resistance", "--graph", spec, "--pair", f"{u}:{v}"],
        ["table1", "--n", str(g.n + 4), "--t-max", "5", "--format", "json"],
    ]
    for argv in commands:
        documents.clear()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert documents and out == documents[-1][1]
        for payload, text in documents:
            assert text == dumps(plain(payload))
        assert out == dumps(json.loads(out))
    text = network.read_text()
    assert text == dumps(json.loads(text))


SCALARS = {
    "decompose": ["alpha_sq", "beta_sq", "gamma_sq"],
    "resistance": ["omega", "omega_double", "k", "path_lengths", "paths_bound",
                   "verdict_single_edge", "verdict_selfflip"],
    "bounds": ["alpha_sq", "beta_sq", "gamma_sq", "even_bound", "odd_bound"],
}


def csv_cell(value) -> str:
    if isinstance(value, float):
        return cli._fmt(value)
    if isinstance(value, list):
        return ";".join(map(str, value))
    return str(value)


def csv_of_the_record(command, record) -> tuple[list[str], list[str]]:
    """The columns and the row the CSV of `record` (the JSON output) holds."""
    fields = {name: record[name] for name in SCALARS[command]}
    for mode in ("double", "selfflip"):
        block = record.get(mode)
        if block is not None:
            # JSON writes an infeasible network's power as null; its CSV as inf
            fields[f"power_{mode}"] = math.inf if block["power"] is None else block["power"]
            fields[f"alpha_lower_{mode}"] = block["alpha_lower"]
            fields[f"overlap_lower_{mode}"] = block["overlap_lower"]
    return list(fields), [csv_cell(value) for value in fields.values()]


@pytest.mark.parametrize("spec", ZOO)
def test_each_csv_row_is_its_json_record_at_9_digits(spec, capsys):
    family, _, rest = spec.partition(":")
    g = build_graph(family, rest.split(":"))
    u, v = g.arc_endpoints(g.arc_count - 1)
    commands = [["resistance", "--graph", spec, "--pair", f"{u}:{v}"]]
    for state in (f"edge:{u}:{v}", f"selfflip:{u}:{v}", "uniform"):
        commands += [[command, "--graph", spec, "--state", state]
                     for command in ("decompose", "bounds")]
    widths = set()
    for argv in commands:
        assert main(argv + ["--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert (header.split(","), row.split(",")) == csv_of_the_record(argv[0], record), argv
        widths.add((argv[0], argv[-1].partition(":")[0], len(header.split(","))))
        if argv[-1] == "uniform" and argv[0] == "bounds":
            assert row.split(",")[5] == "inf"  # no steady current: P is infinite
    assert ("bounds", "selfflip", 11) in widths and ("bounds", "edge", 8) in widths


@pytest.mark.parametrize("spec,state,t_max", [
    ("complete:7", "edge:0:1", 1), ("torus:2:5", "selfflip:0:1", 40), ("cycle:6", "uniform", 7),
])
def test_simulate_csv_matches_the_row_loop(spec, state, t_max, capsys):
    assert main(["simulate", "--graph", spec, "--state", state, "--t-max", str(t_max)]) == 0
    out = capsys.readouterr().out
    family, _, rest = spec.partition(":")
    psi = cli._parse_state(build_graph(family, rest.split(":")), state)
    report = oscillation_bounds(decompose(psi))
    series = measured_overlaps(psi, t_max)
    lines = ["t,overlap_even,overlap_odd,bound_even,bound_odd"]
    for t in range(t_max + 1):
        if t % 2 == 0:
            even, odd = cli._fmt(series.even_overlaps[t // 2]), ""
        else:
            even, odd = "", cli._fmt(series.odd_overlaps[t // 2])
        bounds = f"{cli._fmt(report.even_bound)},{cli._fmt(report.odd_bound)}"
        lines.append(f"{t},{even},{odd},{bounds}")
    assert out == "\n".join(lines) + "\n"


# ---- the state CSV reader -------------------------------------------------------------


def reference_read(g, path):
    """read_state_csv as the csv.reader row loop it replaced, with the csv
    module's own errors worded as ValueErrors naming the file."""
    amps = np.zeros(g.arc_count, dtype=np.complex128)
    seen = np.zeros(g.arc_count, dtype=bool)
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for row in csv.reader(fh):
                if not row or row[0].strip().startswith("#") or row[0] == "arc_id":
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}: expected rows of (arc_id, re, im), got {row!r}")
                a = int(row[0])
                if not 0 <= a < g.arc_count:
                    raise ValueError(f"{path}: arc id {a} out of range for {g.arc_count} arcs")
                if seen[a]:
                    raise ValueError(f"{path}: duplicate arc id {a}")
                seen[a] = True
                amps[a] = float(row[1]) + 1j * float(row[2])
        except csv.Error as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise ValueError(f"{path}: no amplitude for arc {missing}")
    return ArcState(g, amps)


def read_outcomes(g, path):
    """(reference, read_state_csv) outcomes: amplitude bytes or the raised error."""

    def amplitude_bytes(reader):
        return lambda: reader(g, path).amplitudes.tobytes()

    return outcome(amplitude_bytes(reference_read)), outcome(amplitude_bytes(read_state_csv))


K4 = complete_graph(4)  # 12 arcs


@pytest.mark.filterwarnings("error")  # stderr too stays as it was
@pytest.mark.parametrize("block", [1 << 20, 40, 1])
@pytest.mark.parametrize("name", sorted(STATE_FILES) + sorted(STATE_BYTES))
def test_reader_matches_the_row_loop(name, block, tmp_path, monkeypatch):
    monkeypatch.setattr(walk, "_BLOCK_CHARS", block)
    path = tmp_path / f"{name}.csv"
    path.write_bytes(STATE_BYTES[name] if name in STATE_BYTES else STATE_FILES[name].encode())
    reference, got = read_outcomes(K4, str(path))
    assert got == reference


def test_a_field_over_the_csv_limit_exits_one_with_a_one_line_diagnostic(tmp_path, capsys):
    path = tmp_path / "long_field.csv"
    path.write_text(_rows(*GOOD[:6], "6,0." + "1" * 139_998 + ",0", *GOOD[7:]))
    code = main(["bounds", "--graph", "complete:4", "--state", f"csv:{path}"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: {path}: field larger than field limit ({csv.field_size_limit()})\n"


ACCEPTED_PLAIN = [
    "header_lf", "no_header", "crlf", "lone_cr", "mixed_ends", "no_trailing_newline", "shuffled",
    "spaced_fields", "id_spaced", "signed_zeros",
]


@pytest.mark.parametrize("block", [1 << 20, 40, 1])
def test_reader_reads_unquoted_files_without_the_row_loop(block, tmp_path, monkeypatch):
    """The row loop only locates and words a fault (and reads the files that
    are not plain: quotes, comments, repeated headers, underscores)."""
    monkeypatch.setattr(walk, "_BLOCK_CHARS", block)
    for name in ACCEPTED_PLAIN:
        path = tmp_path / f"{name}.csv"
        path.write_bytes(STATE_FILES[name].encode())
        assert isinstance(reference_read(K4, str(path)), ArcState), name
        with monkeypatch.context() as patch:
            patch.setattr(walk, "_read_state_rows", None)
            assert isinstance(read_state_csv(K4, str(path)), ArcState), name


def test_reader_keeps_the_row_loops_signed_zeros(tmp_path):
    """float(re) + 1j * float(im) turns an imaginary -0.0 into +0.0, and a
    real -0.0 into +0.0 unless the imaginary part is negative or -0.0."""
    path = tmp_path / "zeros.csv"
    path.write_text(_rows(*[f"{a},{re},{im}" for a, (re, im) in enumerate(
        [("-0.0", "-0.0"), ("-0.0", "0.0"), ("-0.0", "-2.5"), ("-0.0", "2.5"), ("1.0", "-0.0")]
        + [("0.0", "0.0")] * 7)]))
    amps = read_state_csv(K4, str(path)).amplitudes
    assert amps.tobytes() == reference_read(K4, str(path)).amplitudes.tobytes()
    assert np.signbit(amps.real[:5]).tolist() == [True, False, True, False, False]
    assert not np.signbit(amps.imag[amps.imag == 0]).any()


line_ends = st.sampled_from(["\n", "\r\n", "\r"])
# Spellings where numpy's parser and float() could disagree: blanks that
# float() strips or rejects, non-ASCII digits, exponents, overflow, non-finite
# words and underscores.
float_spellings = st.sampled_from([
    "1E5", ".5", "5.", "1e400", "Infinity", "-nan", "\xa00.5", "\u20030.5\u2003", "\x0b0.5",
    "0.5\x1c", "\x1f0.5", "\uff10.\uff15", "\u0660.\u0665", "1_0.5", " 1e-3 ",
])
floats_text = (
    st.sampled_from(BOUNDARY_FLOATS).map(repr) | st.floats(-10, 10).map(repr) | float_spellings
)
bad_rows = st.sampled_from([
    "", "   ", "# note", "  #, x", HEADER, "arc_id", "x,0,0", "1.0,0,0", " 3 ,0,0", "-1,0,0",
    "12,0,0", "3,0.5", "3,0.5,0,1", "3,a,0", "3,0,b", '"3",0,0', "3,nan,0", ",,",
    # ids where numpy's parser and int() could disagree
    "\xa03\xa0,0,0", "\u20033,0,0", "\x0b3,0,0", "\x1c3,0,0", "3\x1d,0,0", "\uff13,0,0",
    "\u0663,0,0", "+3,0,0", "03,0,0", "-0,0,0", "3.0,0,0", "1e0,0,0", "0" * 29 + "3,0,0",
    "9" * 30 + ",0,0", "1_1,0,0",
])


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_reader_matches_the_row_loop_on_drawn_files(data):
    order = data.draw(st.permutations(range(12)))
    rows = [f"{a},{data.draw(floats_text)},{data.draw(floats_text)}" for a in order]
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from(["insert", "replace", "delete", "duplicate"]))
        at = data.draw(st.integers(0, len(rows)))
        if edit == "insert":
            rows.insert(at, data.draw(bad_rows))
        elif rows and edit == "replace":
            rows[at % len(rows)] = data.draw(bad_rows)
        elif rows and edit == "delete":
            del rows[at % len(rows)]
        elif rows:
            rows.insert(at, rows[at % len(rows)])
    if data.draw(st.booleans()):
        rows.insert(0, HEADER)
    text = "".join(row + data.draw(line_ends) for row in rows)
    if text and data.draw(st.booleans()):
        text = text.rstrip("\r\n")
    block = data.draw(st.sampled_from([1, 5, 64, 1 << 20]))
    with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "_BLOCK_CHARS", block)
        path = os.path.join(folder, "state.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        # A warning from either reader is an error, and so an outcome; the
        # filter is kept off hypothesis's own failure report.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reference, got = read_outcomes(K4, path)
    assert got == reference


@given(data=st.data())
@settings(max_examples=150, deadline=None)
@seed(1)
def test_reader_matches_the_row_loop_on_drawn_plain_files(data):
    """Plain files, which the column reader reads itself unless their ids
    are faulty: a file the row loop accepts reads without it."""
    ids = list(data.draw(st.permutations(range(12))))
    for _ in range(data.draw(st.integers(0, 2))):
        edit = data.draw(st.sampled_from(["drop", "repeat", "out_of_range"]))
        at = data.draw(st.integers(0, len(ids) - 1))
        if edit == "drop":
            del ids[at]
        elif edit == "repeat":
            ids.insert(data.draw(st.integers(0, len(ids))), ids[at])
        else:
            ids[at] = data.draw(st.sampled_from([-1, 12, 13, 10**6]))
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(BOUNDARY_FLOATS)
    rows = [f"{a},{data.draw(finite)!r},{data.draw(finite)!r}" for a in ids]
    if data.draw(st.booleans()):
        rows.insert(0, HEADER)
    # each row ends in one line end, or two for a blank line after it
    text = "".join(row + data.draw(line_ends) * data.draw(st.sampled_from([1, 1, 1, 2]))
                   for row in rows)
    if data.draw(st.booleans()):
        text = text.rstrip("\r\n")
    block = data.draw(st.sampled_from([1, 5, 64, 1 << 20]))
    with tempfile.TemporaryDirectory() as folder, pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "_BLOCK_CHARS", block)
        path = os.path.join(folder, "state.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reference, got = read_outcomes(K4, path)
            assert got == reference
            if isinstance(reference, bytes):
                patch.setattr(walk, "_read_state_rows", None)
                assert read_state_csv(K4, path).amplitudes.tobytes() == reference


def test_reader_matches_the_row_loop_across_blocks(tmp_path, monkeypatch):
    """A state of 1800 arcs, in blocks of a few rows each and in one block."""
    g = torus_graph(2, 30)
    path = tmp_path / "state.csv"
    write_state_csv(random_state(g, np.random.default_rng(3)), str(path))
    for block in (1 << 20, 100, 7):
        monkeypatch.setattr(walk, "_BLOCK_CHARS", block)
        reference, got = read_outcomes(g, str(path))
        assert isinstance(got, bytes) and got == reference


@pytest.mark.parametrize("block", [1 << 20, 1 << 16])
def test_reader_memory_is_bounded_by_its_blocks(block, tmp_path, monkeypatch):
    """The tracemalloc peak of reading a 40,000-row state is the amplitudes
    and their seen flags, 17 bytes an arc, one block's text and parse, at
    most 10 bytes a block character, and 256 KiB of fixed costs (7.0 MB in
    all at 1 MiB blocks)."""
    g = torus_graph(2, 100)
    path = tmp_path / "state.csv"
    write_state_csv(random_state(g, np.random.default_rng(5)), str(path))
    monkeypatch.setattr(walk, "_BLOCK_CHARS", block)
    read_state_csv(g, str(path))  # lazy imports and caches out of the count
    tracemalloc.start()
    try:
        read_state_csv(g, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * g.arc_count + 10 * block + (1 << 18)


# ---- the state CSV writer -------------------------------------------------------------


def reference_write(state, path):
    """write_state_csv as the csv.writer row loop it replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arc_id", "re", "im"])
        for a, amp in enumerate(state.amplitudes):
            writer.writerow([a, repr(float(amp.real)), repr(float(amp.imag))])


@pytest.mark.parametrize("spec", ["complete:4", "cycle:9", "hypercube:4", "torus:2:7"])
def test_writer_matches_the_csv_writer_loop(spec, tmp_path):
    family, _, rest = spec.partition(":")
    g = build_graph(family, rest.split(":"))
    rng = np.random.default_rng(len(spec))
    for _ in range(3):
        re = rng.standard_normal(g.arc_count) * 10.0 ** rng.integers(-9, 9, g.arc_count)
        im = rng.standard_normal(g.arc_count)
        picks = rng.integers(0, len(BOUNDARY_FLOATS), (2, g.arc_count // 2))
        re[: g.arc_count // 2] = np.array(BOUNDARY_FLOATS)[picks[0]]
        im[g.arc_count - g.arc_count // 2:] = np.array(BOUNDARY_FLOATS)[picks[1]]
        state = ArcState(g, re + 1j * im)
        state.amplitudes.imag[0] = -0.0  # re + 1j * im cannot make an imaginary -0.0
        reference_write(state, str(tmp_path / "reference.csv"))
        write_state_csv(state, str(tmp_path / "state.csv"))
        written = (tmp_path / "state.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.startswith(b"arc_id,re,im\r\n")
        assert written.count(b"\r\n") == g.arc_count + 1
        assert read_state_csv(g, str(tmp_path / "state.csv")).amplitudes.tobytes() == (
            reference_read(g, str(tmp_path / "state.csv")).amplitudes.tobytes()
        )
