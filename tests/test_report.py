"""The `certify` report writers against their record-by-record form
(report_reference): JSON, CSV and the `.exceptional.csv` sidecar, byte for
byte, to a file and to stdout, on 1 and 2 workers; and the bytes of the
paper's range, pinned."""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import report_reference
import stardecomp.cli
from stardecomp.certify import sweep
from stardecomp.cli import build_parser, main
from stardecomp.entropy import alpha_dk


def _written(capsys, out):
    """The bytes written to stdout and stderr since the last read, and those
    of the report file and its sidecar (None where absent), which are then
    removed."""
    captured = capsys.readouterr()
    files = []
    for path in (out, out and out + ".exceptional.csv"):
        if path and os.path.exists(path):
            files.append(Path(path).read_bytes())
            os.remove(path)
        else:
            files.append(None)
    return captured.out.encode(), captured.err.encode(), *files


def _assert_cli_matches_reference(argv, table, capsys, records_per_write=4096):
    """main(argv), with `table` (dict d -> alpha, or None) standing in for
    the --alpha-table file and the CLI's writers formatting records_per_write
    rows at a time, writes what report_reference writes for the same sweep
    on 1 worker; returns the CLI's report bytes."""
    args = build_parser().parse_args(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stardecomp.cli, "RECORDS_PER_WRITE", records_per_write)
        if table is not None:
            mp.setattr(stardecomp.cli, "load_alpha_table", lambda path: dict(table))
        code = main(argv)
    got = _written(capsys, args.out)
    source = "table" if table else "estimate"
    try:
        report = sweep(args.d_min, args.d_max, alpha_table=table,
                       strict_table=args.strict_table)
    except KeyError:
        assert code == 3 and got[0] == b"" and got[2:] == (None, None)
        return b""
    assert code == 0
    report_reference.write_certify(report, args, source)
    assert got == _written(capsys, args.out)
    return got[2] if args.out else got[0]


def _argv(d_min, d_max, table, strict, threads, fmt, out):
    argv = ["certify", "--d-min", str(d_min), "--d-max", str(d_max), "--threads", str(threads),
            "--format", fmt]
    if table is not None:
        argv += ["--alpha-table", "alpha.csv"] + ["--strict-table"] * strict
    return argv + (["--out", out] if out else [])


# Table alphas: "estimate" leaves the degree to the estimate (d >= 20);
# "outside" is outside (0, 1/2); "low" leaves no k above d/2; "alpha_dk" is
# alpha_dk(d, k) or one ulp off; "high" reaches k >= d - 1.  Where no k
# certifies a degree makes a round for each k down to d/2, so from d = 100
# on alpha stays below 0.4.
_KINDS = ["outside", "low", "uniform", "alpha_dk", "high", "estimate"]


@given(d_min=st.integers(3, 99) | st.integers(100, 3000), size=st.integers(-1, 6),
       use_table=st.booleans(), strict=st.booleans(), threads=st.sampled_from([1, 2]),
       fmt=st.sampled_from(["json", "csv"]), to_file=st.booleans(),
       records_per_write=st.sampled_from([1, 2, 4096]), data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_certify_writes_the_reference_bytes(d_min, size, use_table, strict, threads, fmt,
                                            to_file, records_per_write, data, tmp_path, capsys):
    d_max = d_min + size - 1
    table = None
    if use_table or (d_min < 20 and size > 0):
        table = {}
        for d in range(d_min, d_max + 1):
            small = d < 100
            kinds = [k for k in _KINDS if not (k == "estimate" and d < 20 or
                                               k == "high" and not small)]
            kind = data.draw(st.sampled_from(kinds))
            if kind == "outside":
                table[d] = data.draw(st.sampled_from([0.0, 0.5, 0.7]))
            elif kind == "low":
                table[d] = 0.001
            elif kind == "uniform":
                table[d] = data.draw(st.floats(0.0, 0.5 if small else 0.4,
                                               exclude_min=True, exclude_max=True))
            elif kind == "alpha_dk":
                k = data.draw(st.integers(d // 2 + 1, d - 1 if small else int(d / 1.2)))
                alpha = alpha_dk(d, k)
                table[d] = float(np.nextafter(alpha, data.draw(st.sampled_from([0.0, 1.0])))
                                 if data.draw(st.booleans()) else alpha)
            elif kind == "high":
                table[d] = data.draw(st.floats(0.45, 0.5, exclude_max=True))
    out = str(tmp_path / f"sweep.{fmt}") if to_file else None
    _assert_cli_matches_reference(_argv(d_min, d_max, table, strict, threads, fmt, out),
                                  table, capsys, records_per_write)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_sweep_error_rows_write_the_reference_bytes(tmp_path, capsys, threads, fmt):
    # Below d = 20 and past it, with a row for every way a degree ends
    # uncertified; the 43 rows are written 4096 and 4 at a time.
    table = {d: 0.49 for d in range(3, 20)}
    table.update({5: 0.3, 20: 0.7, 21: 0.0, 24: alpha_dk(24, 14), 25: 0.49, 26: 0.45,
                  40: 0.001})
    for out, records_per_write in ((str(tmp_path / f"sweep.{fmt}"), 4096), (None, 4)):
        text = _assert_cli_matches_reference(
            _argv(3, 45, table, False, threads, fmt, out), table, capsys, records_per_write).decode()
        for error in ("no k in range", "k too large", "alpha at or below alpha_dk",
                      "alpha 0.7 outside (0, 1/2)", "alpha 0.0 outside (0, 1/2)"):
            assert error in text
    _assert_cli_matches_reference(_argv(3, 45, table, True, threads, fmt, None), table, capsys)
    _assert_cli_matches_reference(_argv(3, 19, table, True, threads, fmt, None), table, capsys)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_empty_range_writes_the_reference_bytes(tmp_path, capsys, fmt):
    for threads in (1, 2):
        for out in (str(tmp_path / f"sweep.{fmt}"), None):
            text = _assert_cli_matches_reference(
                _argv(31, 30, None, False, threads, fmt, out), None, capsys)
            assert text == b"" if fmt == "csv" else b'"records": []' in text


def test_paths_named_after_the_records_placeholder_keep_the_reference_bytes(
        tmp_path, capsys, monkeypatch):
    # The records are written in place of the last occurrence of the
    # placeholder in the document's text; --alpha-table and --out, echoed in
    # the config, hold the same text earlier.
    monkeypatch.chdir(tmp_path)
    name = stardecomp.cli._RECORDS
    argv = ["certify", "--d-min", "30", "--d-max", "33", "--alpha-table", name, "--out", name]
    text = _assert_cli_matches_reference(argv, {30: 0.14, 31: 0.2, 32: 0.3}, capsys)
    assert text.count(json.dumps(name).encode()) == 2


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("records_per_write", [None, 1, 3])
def test_certify_report_bytes_are_pinned(tmp_path, capsys, monkeypatch, records_per_write):
    # The paper's range through the CLI: the JSON report on stdout (so that
    # config.out is null), the CSV report and the sidecar.  The payload pin
    # in test_certify hashes only the compact payload, so these also catch
    # a change of float format or of layout.  The writers keep these bytes
    # in blocks (RECORDS_PER_WRITE) of one record, and of three, which leave
    # two for the last block of the 2971.
    if records_per_write:
        monkeypatch.setattr(stardecomp.cli, "RECORDS_PER_WRITE", records_per_write)
    assert main(["certify", "--d-min", "30", "--d-max", "3000"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == (
        "27004f529c2baab4fb21a8602334a2d0e1fe000b6fe86e8088f5a8bf596a509b")
    out = tmp_path / "sweep.csv"
    assert main(["certify", "--d-min", "30", "--d-max", "3000", "--format", "csv",
                 "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == (
        "38b9e1184768d4637f91f6f6a2fefd860922873590e2d83f06bf907b85a48f29")
    assert _sha256(Path(str(out) + ".exceptional.csv").read_bytes()) == (
        "d60c8e4b2ed98fc049d045d01dd8ce8da91386bb257d70188de724ad1e140f9a")
