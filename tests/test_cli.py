"""CLI tests: subcommand behavior, exit codes, report schemas, and the
sample -> decompose -> verify round trip."""

import json
from pathlib import Path

import jsonschema
import pytest

from stardecomp.cli import main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


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


def test_certify_estimate_needs_d20():
    assert run(["certify", "--d-min", "10", "--d-max", "12"]) == 2


def test_certify_strict_table_missing_degree(tmp_path):
    table = tmp_path / "alpha.csv"
    table.write_text("d,alpha\n30,0.14\n")
    assert run(["certify", "--d-min", "30", "--d-max", "31",
                "--alpha-table", str(table), "--strict-table"]) == 3


def test_sample_rejects_odd_stub_count():
    assert run(["sample", "--n", "3", "--d", "3"]) == 2


def test_roundtrip_sample_decompose_verify(tmp_path):
    graph = tmp_path / "g.txt"
    sd = tmp_path / "sd.txt"
    assert run(["sample", "--n", "60", "--d", "6", "--seed", "7", "--simple",
                "--out", str(graph)]) == 0
    header = graph.read_text().splitlines()[0]
    assert header == "60 6"
    assert run(["decompose", str(graph), "--k", "4", "--seed", "0",
                "--out", str(sd)]) == 0
    assert run(["verify", str(graph), str(sd)]) == 0


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


def test_decompose_failure_exit_code(tmp_path):
    # Petersen graph with k = 3 cannot have a large enough independent set.
    graph = tmp_path / "petersen.txt"
    from stardecomp.graphs import petersen_graph, write_graph

    write_graph(petersen_graph(), graph)
    assert run(["decompose", str(graph), "--k", "3"]) == 1


def test_missing_file_exit_code(tmp_path):
    assert run(["decompose", str(tmp_path / "nope.txt"), "--k", "3"]) == 4


def test_malformed_graph_exit_code(tmp_path):
    graph = tmp_path / "bad.txt"
    graph.write_text("4 3\n0 1 2\n")
    assert run(["verify", str(graph), str(graph)]) == 4


def test_sample_stdout(capsys):
    assert run(["sample", "--n", "8", "--d", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "8 2"
    assert len(lines) == 1 + 8  # header + n*d/2 edges
