"""CLI tests: subcommand behavior, exit codes, report schemas, and the
sample -> decompose -> verify round trip."""

import ast
import csv
import io
import json
import sys
import tempfile
from pathlib import Path
from types import ModuleType

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stardecomp.cli import main
from stardecomp.decomp import read_decomposition
from stardecomp.graphs import MAX_VERTICES, GraphFormatError, read_graph

REPO = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO / "schemas"
TRACER = REPO / "perfbench" / "tracer.py"


def load_schema(name):
    with open(SCHEMA_DIR / name) as fh:
        return json.load(fh)


def run(argv):
    return main(argv)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run(["--version"])
    assert exc_info.value.code == 0


def test_thresholds_json_and_schema(tmp_path):
    out = tmp_path / "thr.json"
    assert run(["thresholds", "--d", "30", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("threshold_report.schema.json"))
    assert doc["tool"] == "stardecomp"
    assert doc["alpha_source"] == "estimate"
    assert doc["payload"]["d"] == 30
    assert doc["config"]["d"] == 30


def test_thresholds_small_d_uses_first_moment_standin(tmp_path):
    out = tmp_path / "thr.json"
    assert run(["thresholds", "--d", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("threshold_report.schema.json"))
    assert doc["payload"]["alpha_fc_estimate"] is None
    assert doc["payload"]["alpha_star"] == doc["payload"]["alpha_fm"]


def test_thresholds_csv_format(tmp_path, capsys):
    out = tmp_path / "thr.json"
    assert run(["thresholds", "--d", "30", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert run(["thresholds", "--d", "30", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    assert set(rows[0]) == set(payload)
    assert rows[0]["d"] == "30"
    assert rows[0]["alpha_source"] == "estimate"
    assert float(rows[0]["alpha_star"]) == payload["alpha_star"]


@pytest.mark.parametrize("d, usable", [(3, False), (1000, True)])
def test_thresholds_flags_unusable_lower_reference(tmp_path, d, usable):
    out = tmp_path / "thr.json"
    assert run(["thresholds", "--d", str(d), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("threshold_report.schema.json"))
    payload = doc["payload"]
    assert payload["alpha_lower_ref_usable"] is usable
    assert (payload["alpha_lower_ref"] < payload["alpha_fm"]) is usable


def test_thresholds_rejects_tiny_degree():
    assert run(["thresholds", "--d", "2"]) == 2


def test_thresholds_table_source(tmp_path):
    table = tmp_path / "alpha.csv"
    table.write_text("d,alpha\n30,0.14\n")
    out = tmp_path / "thr.json"
    assert run(["thresholds", "--d", "30", "--alpha-table", str(table),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["alpha_source"] == "table"
    assert doc["payload"]["alpha_star"] == 0.14


def test_certify_sweep_json_schema_and_sidecar(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["certify", "--d-min", "30", "--d-max", "33",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("sweep_report.schema.json"))
    assert doc["payload"]["exceptional_degrees"] == [31, 33]
    sidecar = (tmp_path / "sweep.json.exceptional.csv").read_text().splitlines()
    assert sidecar == ["d", "31", "33"]


def test_certify_csv_format(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["certify", "--d-min", "30", "--d-max", "31", "--format", "csv",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("d,alpha,alpha_source,k_ind")
    assert len(lines) == 3


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_certify_stdout_is_the_report(tmp_path, capsys, fmt):
    out = tmp_path / "sweep.txt"
    argv = ["certify", "--d-min", "30", "--d-max", "32", "--format", fmt]
    assert run([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv) == 0
    captured = capsys.readouterr()
    # The JSON config echoes --out, which is the one field that differs.
    expected = out.read_bytes().decode().replace(f'"out": {json.dumps(str(out))}', '"out": null')
    assert captured.out == expected
    assert captured.err == "exceptional degrees: 31\n"


def test_certify_negative_threads_is_usage_error(capsys):
    for value in ("-3", "0"):
        with pytest.raises(SystemExit) as exc_info:
            run(["certify", "--d-min", "30", "--d-max", "30", "--threads", value])
        assert exc_info.value.code == 2
        assert f"--threads: must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("body", ["30\n", "30,nan\n", "30,inf\n", "30,-0.1\n",
                                  "30,0\n", "30,0.5\n", "30,0.7\n",
                                  "30,0.14\n30,0.13\n", "30,0.14,1\n"])
def test_bad_alpha_table_rows_exit_4(tmp_path, capsys, body):
    table = tmp_path / "alpha.csv"
    table.write_text("d,alpha\n" + body)
    for argv in (["certify", "--d-min", "30", "--d-max", "30"], ["thresholds", "--d", "30"]):
        assert run([*argv, "--alpha-table", str(table)]) == 4
        assert f"{table}, line " in capsys.readouterr().err


def test_certify_empty_degree_range(tmp_path):
    out = tmp_path / "sweep.json"
    assert run(["certify", "--d-min", "40", "--d-max", "30", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, load_schema("sweep_report.schema.json"))
    assert doc["payload"]["records"] == []


@pytest.mark.parametrize("argv", [
    ["certify", "--d-min", "30", "--d-max", "40"],
    ["thresholds", "--d", "100"],
    ["certify", "--d-min", "40", "--d-max", "30"],
])
def test_json_reports_keep_the_indented_layout(tmp_path, argv):
    out = tmp_path / "report.json"
    assert run(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    assert data == (json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 74.5 GiB for an array with shape (9999999971,)"),
    MemoryError(),
])
def test_certify_range_too_large_to_hold_exits_4(tmp_path, monkeypatch, capsys, error):
    # A sweep whose arrays cannot be allocated, as --d-max 10^10, ends in
    # one line and exit 4, not a traceback.  The sweep is replaced, so
    # nothing large is allocated.
    def sweep(*args, **kwargs):
        raise error

    monkeypatch.setattr("stardecomp.cli.sweep", sweep)
    out = tmp_path / "sweep.json"
    assert run(["certify", "--d-min", "30", "--d-max", str(10**10), "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"stardecomp: {str(error) or 'out of memory'}\n"
    assert not out.exists()


def test_certify_estimate_needs_d20():
    assert run(["certify", "--d-min", "10", "--d-max", "12"]) == 2


def test_table_sweep_needing_the_estimate_below_d20_exits_2(tmp_path, capsys):
    # A table that holds only d = 25 leaves 10..19 to the estimate, which is
    # undefined there: a usage error naming the first such degree, as
    # without a table.  Under --strict-table a missing entry exits 3.
    table = tmp_path / "alpha.csv"
    table.write_text("d,alpha\n25,0.2\n")
    argv = ["certify", "--d-min", "10", "--d-max", "26", "--out", str(tmp_path / "sweep.json")]
    assert run(argv + ["--alpha-table", str(table)]) == 2
    assert capsys.readouterr().err == "certify: estimate fallback requires d >= 20, got d=10\n"
    assert run(argv + ["--alpha-table", str(table), "--strict-table"]) == 3
    assert capsys.readouterr().err == "certify: 'alpha table has no entry for d=10'\n"
    assert run(argv) == 2
    assert capsys.readouterr().err == "certify: estimate-based sweeps need --d-min >= 20\n"
    assert not (tmp_path / "sweep.json").exists()


def test_certify_strict_table_missing_degree(tmp_path):
    table = tmp_path / "alpha.csv"
    table.write_text("d,alpha\n30,0.14\n")
    assert run(["certify", "--d-min", "30", "--d-max", "31",
                "--alpha-table", str(table), "--strict-table"]) == 3


@pytest.mark.parametrize("argv", [
    ["certify", "--d-min", "1000000000", "--d-max", "1000000000"],
    ["thresholds", "--d", "1000000000000000"],
])
def test_root_solve_without_sign_change_exits_1(argv, tmp_path, capsys):
    # Past about d = 5.6e8 the inverse ceiling can find no sign change, and
    # `certify` reports such a degree as an error row.  At d = 1e15 the
    # independence density's bracket holds none, and `thresholds` exits 1.
    if argv[0] == "certify":
        out = tmp_path / "sweep.json"
        assert run([*argv, "--out", str(out)]) == 0
        (record,) = json.loads(out.read_text())["payload"]["records"]
        assert record["error"].startswith("no sign change")
        return
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("stardecomp: ") and "no sign change" in err


def test_sample_rejects_odd_stub_count():
    assert run(["sample", "--n", "3", "--d", "3"]) == 2


@pytest.mark.parametrize("argv", [
    ["--n", "5", "--d", "6"],  # no simple graph has d >= n
    ["--n", "200", "--d", "9", "--max-retries", "3"],  # tries run out
])
def test_sample_simple_failures_exit_2(argv, capsys):
    assert run(["sample", "--simple", *argv]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "8", "--d", "2", "--max-retries", "0"],
    ["decompose", "g.txt", "--k", "3", "--max-retries", "-1"],
])
def test_max_retries_below_one_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc_info:
        run(argv)
    assert exc_info.value.code == 2


def test_roundtrip_sample_decompose_verify(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    sd = tmp_path / "sd.txt"
    sample = ["sample", "--n", "60", "--d", "6", "--seed", "7", "--simple"]
    decomp = ["decompose", str(graph), "--k", "4", "--seed", "0"]
    assert run([*sample, "--out", str(graph)]) == 0
    header = graph.read_text().splitlines()[0]
    assert header == "60 6"
    assert run([*decomp, "--out", str(sd)]) == 0
    assert run(["verify", str(graph), str(sd)]) == 0
    # Without --out the same bytes go to stdout.
    capsys.readouterr()
    for argv, path in ((sample, graph), (decomp, sd)):
        assert run(argv) == 0
        assert capsys.readouterr().out == path.read_text()


def test_verify_rejects_tampered_decomposition(tmp_path):
    graph = tmp_path / "g.txt"
    sd = tmp_path / "sd.txt"
    run(["sample", "--n", "60", "--d", "6", "--seed", "7", "--simple",
         "--out", str(graph)])
    run(["decompose", str(graph), "--k", "4", "--out", str(sd)])
    lines = sd.read_text().splitlines()
    del lines[1]  # drop one star
    sd.write_text("\n".join(lines) + "\n")
    assert run(["verify", str(graph), str(sd)]) == 1


def test_verify_rejects_repeated_leaf(tmp_path):
    # Two parallel edges: the star 0 -> [1, 1] covers both, but a star's
    # leaves must be distinct.
    graph = tmp_path / "g.txt"
    graph.write_text("2 2\n0 1\n0 1\n")
    sd = tmp_path / "sd.txt"
    sd.write_text("2 0\n0 1 1\n")
    assert run(["verify", str(graph), str(sd)]) == 1


def test_decompose_rejects_non_simple_graph(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    assert run(["sample", "--n", "40", "--d", "6", "--seed", "3",
                "--out", str(graph)]) == 0
    assert run(["decompose", str(graph), "--k", "4"]) == 4
    assert "simple graph" in capsys.readouterr().err


@pytest.mark.parametrize("k", [2, 0, -1, 6])
def test_decompose_k_at_most_half_d_is_usage_error(tmp_path, capsys, k):
    # A k at or below d/2 is a usage error, not a parse error, and so is a
    # k above d, whose target exceeds n/2, at once; the graph is checked
    # first, so a non-simple or non-regular one still exits 4.
    graph = tmp_path / "g.txt"
    assert run(["sample", "--n", "12", "--d", "5", "--simple", "--seed", "0",
                "--out", str(graph)]) == 0
    capsys.readouterr()
    assert run(["decompose", str(graph), "--k", str(k)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    need = "k <= d" if k > 5 else "k > d/2"
    assert captured.err.splitlines() == [f"decompose: need {need}, got d=5, k={k}"]
    graph.write_text("3 2\n0 1\n1 2\n")
    assert run(["decompose", str(graph), "--k", str(k)]) == 4
    assert capsys.readouterr().err == "stardecomp: graph is not regular\n"
    graph.write_text("2 2\n0 1\n0 1\n")
    assert run(["decompose", str(graph), "--k", str(k)]) == 4
    assert "simple graph" in capsys.readouterr().err


def test_decompose_failure_exit_code(tmp_path, capsys):
    # The failure report is a diagnostic: stderr, nothing on stdout.  On a
    # sampled 5-regular graph of 12 vertices every attempt's greedy set
    # falls short of the 5 that k = 4 needs.
    graph = tmp_path / "g.txt"
    assert run(["sample", "--n", "12", "--d", "5", "--simple", "--seed", "0",
                "--out", str(graph)]) == 0
    capsys.readouterr()
    assert run(["decompose", str(graph), "--k", "4", "--max-retries", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "decompose: failed at stage adjust_size: have 4, need 5",
        "  seed 0: adjust_size: have 4, need 5",
        "  seed 1: adjust_size: have 4, need 5",
    ]


@pytest.mark.parametrize("name, n, edges, code", [
    ("petersen", None, None, 1),
    ("K3,3", 6, [(a, b) for a in range(3) for b in range(3, 6)], 0),
    ("C5", 5, [(i, (i + 1) % 5) for i in range(5)], 1),
])
def test_decompose_at_k_equal_d_attempts_only_bipartite_graphs(tmp_path, capsys, name, n,
                                                                edges, code):
    # At k = d the target is half the vertices, rounded up, which a
    # d-regular graph holds independent only if n is even and it is
    # bipartite: the Petersen graph (10 vertices, odd cycles) and C5 fail
    # before any attempt, with no seed lines, and K3,3 decomposes.
    from stardecomp.graphs import Graph, petersen_graph, write_graph

    g = petersen_graph() if edges is None else Graph(n, edges)
    d = g.degree(0)
    graph = tmp_path / "g.txt"
    with open(graph, "w") as fh:
        write_graph(g, fh)
    assert run(["decompose", str(graph), "--k", str(d)]) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert err == [f"decompose: failed at stage adjust_size: k = d needs {-(-g.n // 2)} of "
                       f"the {g.n} vertices independent, which a {d}-regular graph has only "
                       f"with n even and bipartite"]
    else:
        assert err == ["decomposed into 3 stars, leftover 0"]


def test_missing_file_exit_code(tmp_path):
    assert run(["decompose", str(tmp_path / "nope.txt"), "--k", "3"]) == 4


def test_malformed_graph_exit_code(tmp_path):
    graph = tmp_path / "bad.txt"
    graph.write_text("4 3\n0 1 2\n")
    assert run(["verify", str(graph), str(graph)]) == 4
    graph.write_text("-1 3\n")
    assert run(["decompose", str(graph), "--k", "3"]) == 4


@pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10**8])
def test_decompose_rejects_vertex_count_above_limit(tmp_path, capsys, n):
    # Refused from the header alone, before one list per vertex is built.
    graph = tmp_path / "huge.txt"
    graph.write_text(f"{n} 0\n")
    assert run(["decompose", str(graph), "--k", "3"]) == 4
    err = capsys.readouterr().err
    assert f"limit of {MAX_VERTICES}" in err and "Traceback" not in err


# Numbers come only from integer tokens: the free text holds no decimal
# digits.  Integers are small, above MAX_VERTICES (which read_graph refuses
# in a header), or beyond int64 either way; a vertex count just below the
# limit would cost 16 MB in read_graph and some 400 MB in decompose per
# example.  Lines of integers are drawn often, so that headers and bodies
# that parse are common.
_no_digits = st.text(alphabet=st.characters(blacklist_categories=("Cs", "Nd")))
_int = st.one_of(st.integers(-3, 12),
                 st.sampled_from([MAX_VERTICES + 1, 10**12, 10**20, -10**20])).map(str)
_token = st.one_of(_int, st.sampled_from(["x", "1.5", "-", "+"]),
                   _no_digits.filter(lambda t: len(t) <= 3))
_line = st.one_of(
    st.lists(_int, min_size=1, max_size=4).map(" ".join),
    st.lists(_token, max_size=4).map(" ".join),
)
_file_text = st.one_of(
    _no_digits,
    st.lists(_line, max_size=10).map("\n".join),
    st.tuples(_int, _int, st.lists(_line, max_size=10)).map(
        lambda t: "\n".join([f"{t[0]} {t[1]}", *t[2]])),
)


# Decomposition files that parse, on K4 or on a drawn graph: every star line
# holds k + 1 drawn integers, so leaves and centers are often >= n, negative,
# or beyond int64.
_K4 = "4 3\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
_sd_lines = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(_int, min_size=k + 1, max_size=k + 1).map(" ".join), max_size=6
).map(lambda rows: "\n".join([f"{k} 0", *rows])))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph_text=st.one_of(_file_text, st.just(_K4)),
       sd_text=st.one_of(_file_text, _sd_lines), k=st.integers(1, 4))
def test_parsers_and_cli_never_raise_on_arbitrary_text(graph_text, sd_text, k, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        graph, sd = Path(tmp) / "g.txt", Path(tmp) / "sd.txt"
        graph.write_text(graph_text)
        sd.write_text(sd_text)
        for parse, path in ((read_graph, graph), (read_decomposition, sd)):
            try:
                parse(path)
            except GraphFormatError:
                pass
        capsys.readouterr()
        code = run(["decompose", str(graph), "--k", str(k)])
        # Exit 2 only for a k at or below d/2, or above d (K4 with k = 4),
        # on a simple regular graph.
        assert code in (0, 1, 2, 4)
        err = capsys.readouterr().err
        assert (code == 2) == ("decompose: need k > d/2" in err or "decompose: need k <= d" in err)
        assert run(["verify", str(graph), str(sd)]) in (0, 1, 4)


# Alpha tables: headers that pass or fail, rows of degrees and alphas drawn
# from values inside and outside (0, 1/2), short and long rows, free text.
# The sweep covers d = 100..101, where every alpha certifies in milliseconds.
_table_field = st.one_of(
    st.sampled_from(["100", "101", "30", "-1", "1e3", "0.09", "0.14", "0.3",
                     "0.49", "0", "0.5", "0.7", "-0.1", "nan", "inf", "1e-300",
                     "x", "", " 100", '"100"']),
    _no_digits.filter(lambda t: len(t) <= 3),
)
_table_text = st.one_of(
    _no_digits,
    st.tuples(st.sampled_from(["d,alpha", "d, alpha", " d ,alpha", "alpha,d", "d", ""]),
              st.lists(st.lists(_table_field, max_size=3).map(",".join), max_size=5)
              ).map(lambda t: "\n".join([t[0], *t[1]])),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_table_text, strict=st.booleans())
def test_alpha_table_cli_never_raises(text, strict, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "alpha.csv"
        table.write_text(text)
        argv = ["certify", "--d-min", "100", "--d-max", "101", "--alpha-table",
                str(table), "--out", str(Path(tmp) / "sweep.json")]
        assert run(argv + ["--strict-table"] * strict) in (0, 2, 3, 4)
        assert run(["thresholds", "--d", "100", "--alpha-table", str(table),
                    "--out", str(Path(tmp) / "thr.json")]) in (0, 2, 3, 4)
        assert "Traceback" not in capsys.readouterr().err


def test_sample_stdout(capsys):
    assert run(["sample", "--n", "8", "--d", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "8 2"
    assert len(lines) == 1 + 8  # header + n*d/2 edges


def _traced_names():
    """The (module, attribute) of each entry of perfbench/tracer.py's WRAPPED
    list; the file is parsed, not imported."""
    (wrapped,) = [node.value for node in ast.parse(TRACER.read_text()).body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]]
    return [(entry.elts[0].value, entry.elts[1].value) for entry in wrapped.elts]


def test_traced_names_resolve_after_importing_the_cli():
    # perfbench/tracer.py wraps each (module, attribute) of its WRAPPED list
    # through getattr on sys.modules[module]; `run.py --trace 1` needs every
    # one to exist once stardecomp.cli is imported.
    names = _traced_names()
    assert names
    for module, attr in names:
        assert hasattr(sys.modules[module], attr), (module, attr)


def test_submodules_import_as_modules():
    # `import a.b as x` binds the attribute b of package a: the package
    # binds no name of its own over a submodule's.
    import stardecomp.certify as certify
    import stardecomp.cli as cli
    import stardecomp.decomp as decomp
    import stardecomp.entropy as entropy
    import stardecomp.graphs as graphs

    for module in (certify, cli, decomp, entropy, graphs):
        assert isinstance(module, ModuleType), module


def _parsed(paths):
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def test_every_public_name_in_src_has_a_caller():
    # A public top-level function or class of src/ is loaded by name in src/
    # or scripts/, wrapped by perfbench's tracer, or imported by the
    # acceptance suite; anything else only tests call, and belongs in
    # tests/oracles.py.
    src = sorted((REPO / "src" / "stardecomp").glob("*.py"))
    loaded = {node.id for tree in _parsed(src + sorted((REPO / "scripts").glob("*.py")))
              for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    loaded |= {attr for _, attr in _traced_names()}
    loaded |= {alias.name for tree in _parsed([REPO / "tests" / "test_acceptance.py"])
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    uncalled = [f"{path.stem}.{node.name}" for path, tree in zip(src, _parsed(src))
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in loaded]
    assert uncalled == []
