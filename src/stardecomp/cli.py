"""Command-line interface: reproducible batch runs with machine-readable
output.

Reports go to the --out file, or to stdout when --out is absent or `-`;
summaries and diagnostics go to stderr.  `verify`'s report is its verdict,
with the diagnostics of an invalid decomposition, on stdout.  `certify` with --d-min > --d-max
reports an empty degree range: no records, exit 0.

Exit codes: 0 success (findings included: a `certify` range reports each
degree whose root solve fails, as from about d = 5.6e8 on, as an error row), 1 failed
verification or decomposition, and `thresholds` at a degree whose root
solve finds no sign change (d = 10^15), 2 usage errors (including
--max-retries < 1, --threads < 1, `sample --simple` with d >= n, a
`sample --simple` run out of tries, a `certify` range that needs the
estimate below d = 20, and `decompose --k` at or below d/2 or above d),
3 missing alpha-table entry under --strict-table, 4 I/O and parse errors
(including a graph header above graphs.MAX_VERTICES vertices, a graph
that `decompose` refuses as not simple or not regular, an alpha table with
a row of other than two fields, a repeated degree or an alpha outside
(0, 1/2), and a run out of memory, as a `certify` range too large to hold).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .certify import load_alpha_table, resolve_alpha, sweep
from .decomp import (
    DecompositionFailed,
    decompose,
    read_decomposition,
    verify_decomposition,
    write_decomposition,
)
from .entropy import (
    DomainError,
    alpha_fc_estimate,
    alpha_fm,
    threshold_report,
)
from .graphs import (
    RNG_NAME,
    GraphFormatError,
    config_model_sample,
    read_graph,
    sample_simple,
    write_graph,
)

# A certify report's records in the document that json.dumps writes; the
# records' text is streamed in its place.
_RECORDS = "records held as columns"
# Report rows formatted at a time: a sweep record's JSON text takes about
# 450 bytes, and its Python strings several times that while a block is
# built, so 256 records keep a block near 0.5 MB.
RECORDS_PER_WRITE = 256


@contextlib.contextmanager
def _output(path):
    """Yield the file at `path` opened for writing, or stdout when path is
    None or "-"."""
    if path and path != "-":
        with open(path, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _json_texts(column):
    """The JSON text of each entry of a numpy column, as json.dumps writes
    it, with nan as null (_csv_values), from one json.dumps of the whole
    column: json escapes a newline inside a string, so one between items
    splits them."""
    return json.dumps(_csv_values(column), separators=("\n", ":"))[1:-1].split("\n")


def _record_chunks(arrays):
    """The text of json.dumps(records, indent=2, sort_keys=True) at the
    nesting of a report's payload["records"], in pieces, for the list of
    flat records held as columns, `arrays` mapping each field to a numpy
    array, with nan as null: each row fills one % template, and
    RECORDS_PER_WRITE rows are formatted at a time, so the working memory
    does not grow with the rows."""
    n = len(next(iter(arrays.values()), ()))
    if not n:
        yield "[]"
        return
    inner, field_inner = "\n" + "  " * 3, "\n" + "  " * 4
    names = sorted(arrays)
    template = "{%s%s}" % (field_inner, ("," + field_inner).join(
        json.dumps(name) + ": %s" for name in names) + inner)
    yield "["
    for start in range(0, n, RECORDS_PER_WRITE):
        texts = [_json_texts(arrays[name][start : start + RECORDS_PER_WRITE])
                 for name in names]
        yield ("," if start else "") + inner + ("," + inner).join(
            map(template.__mod__, zip(*texts)))
    yield "\n" + "  " * 2 + "]"


def _emit(payload, config, args, alpha_source, records=None):
    """Write json.dumps(doc, indent=2, sort_keys=True) of the report's
    document.  With `records`, columns as _record_chunks takes them, they
    are payload["records"]: json.dumps writes _RECORDS there, and they are
    streamed in place of its last occurrence, which is that value because
    "records" is payload's last key and only the fixed "tool" and
    "version" follow payload."""
    if records is not None:
        payload = {**payload, "records": _RECORDS}
    doc = {
        "tool": "stardecomp",
        "version": __version__,
        "config": config,
        "alpha_source": alpha_source,
        "payload": payload,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    with _output(args.out) as fh:
        if records is not None:
            head, _, text = text.rpartition(json.dumps(_RECORDS))
            fh.write(head)
            fh.writelines(_record_chunks(records))
        fh.write(text + "\n")


def _emit_csv(columns, path):
    """One header line of the names of `columns`, which map each field to a
    numpy array, all of one length, then one line per row, nan in a float
    column as an empty field; nothing at all when there are no rows.
    RECORDS_PER_WRITE rows are formatted at a time."""
    n = len(next(iter(columns.values()), ()))
    with _output(path) as fh:
        if not n:
            return
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        for start in range(0, n, RECORDS_PER_WRITE):
            writer.writerows(zip(*(_csv_values(a[start : start + RECORDS_PER_WRITE])
                                   for a in columns.values())))


def _csv_values(column):
    """A numpy column as a list of Python values, None for nan."""
    if column.dtype.kind != "f":
        return column.tolist()
    values = column.astype(object)
    values[np.isnan(column)] = None
    return values.tolist()


def _resolved_config(args, keys):
    return {k: getattr(args, k) for k in keys}


def cmd_thresholds(args):
    d = args.d
    if d < 3:
        print("thresholds: --d must be >= 3", file=sys.stderr)
        return 2
    table = load_alpha_table(args.alpha_table) if args.alpha_table else None
    try:
        alphas, sources = resolve_alpha([d], table, strict=False)
        alpha_star, source = alphas.item(), sources.item()
    except ValueError:
        # No controlled estimate below d=20; report the first-moment upper
        # bound as the stand-in, still labeled an estimate.
        alpha_star, source = alpha_fm(d), "estimate"
    payload = asdict(threshold_report(d, alpha_star, source))
    payload["alpha_fc_estimate"] = alpha_fc_estimate(d) if d >= 20 else None
    if args.format == "csv":
        # One row of object columns, whose values are written as they are.
        _emit_csv({k: np.array([v], dtype=object) for k, v in payload.items()}, args.out)
    else:
        config = _resolved_config(args, ["d", "alpha_table", "out", "format"])
        _emit(payload, config, args, source)
    return 0


def cmd_certify(args):
    table = load_alpha_table(args.alpha_table) if args.alpha_table else None
    if not table and args.d_min < 20 and args.d_max >= args.d_min:
        print("certify: estimate-based sweeps need --d-min >= 20", file=sys.stderr)
        return 2
    try:
        report = sweep(args.d_min, args.d_max, alpha_table=table, threads=args.threads,
                       strict_table=args.strict_table)
    except (KeyError, ValueError) as exc:  # missing under --strict-table; the estimate below 20
        print(f"certify: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, KeyError) else 2
    config = _resolved_config(
        args, ["d_min", "d_max", "alpha_table", "strict_table", "out", "format"])
    exceptional = report.exceptional_degrees
    columns = report.output_columns()
    if args.format == "csv":
        _emit_csv(columns, args.out)
    else:
        _emit(report.summary(), config, args, report.alpha_source, columns)
    if args.out and args.out != "-":
        with open(args.out + ".exceptional.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["d"])
            for d in exceptional:
                writer.writerow([d])
    print("exceptional degrees:", " ".join(map(str, exceptional)) or "(none)",
          file=sys.stderr)
    return 0


def cmd_sample(args):
    if (args.n < 1 or args.d < 1 or (args.n * args.d) % 2 != 0
            or (args.simple and args.d >= args.n)):
        print("sample: need n, d >= 1 with n*d even, and d < n with --simple",
              file=sys.stderr)
        return 2
    if args.simple:
        try:
            g, tries = sample_simple(args.n, args.d, args.seed,
                                     max_tries=args.max_retries)
        except RuntimeError as exc:
            print(f"sample: {exc}; raise --max-retries", file=sys.stderr)
            return 2
        print(f"simple after {tries} tries (rng={RNG_NAME})", file=sys.stderr)
    else:
        g = config_model_sample(args.n, args.d, args.seed)
    with _output(args.out) as fh:
        write_graph(g, fh)
    return 0


def cmd_decompose(args):
    g = read_graph(args.graph)
    try:
        sd = decompose(g, args.k, seed=args.seed, max_retries=args.max_retries)
    except DomainError as exc:  # k <= d/2 or k > d
        print(f"decompose: {exc}", file=sys.stderr)
        return 2
    except DecompositionFailed as exc:
        print(f"decompose: failed at stage {exc.stage}: {exc.detail}",
              file=sys.stderr)
        for seed, stage, detail in exc.attempts:
            print(f"  seed {seed}: {stage}: {detail}", file=sys.stderr)
        return 1
    with _output(args.out) as fh:
        write_decomposition(sd, fh)
    print(f"decomposed into {len(sd.centers)} stars, leftover {len(sd.pairs)}",
          file=sys.stderr)
    return 0


def cmd_verify(args):
    g = read_graph(args.graph)
    sd = read_decomposition(args.decomposition)
    ok, diagnostics = verify_decomposition(g, sd)
    if ok:
        print(f"valid: {len(sd.centers)} stars of size {sd.k}, "
              f"leftover {len(sd.pairs)}")
        return 0
    for line in diagnostics:
        print(line)
    return 1


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(prog="stardecomp")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="analytic thresholds for one degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha-table", dest="alpha_table")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("certify", help="sweep a degree range for certifiable k")
    p.add_argument("--d-min", dest="d_min", type=int, required=True)
    p.add_argument("--d-max", dest="d_max", type=int, required=True)
    p.add_argument("--alpha-table", dest="alpha_table")
    p.add_argument("--strict-table", action="store_true",
                   help="fail (exit 3) if the table lacks a degree in range")
    p.add_argument("--threads", type=_positive_int, default=1, help="worker processes (default 1)")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sample", help="sample a configuration-model graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--max-retries", dest="max_retries", type=_positive_int,
                   default=100000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("decompose", help="build a k-star decomposition")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-retries", dest="max_retries", type=_positive_int,
                   default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="verify a decomposition file")
    p.add_argument("graph")
    p.add_argument("decomposition")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (GraphFormatError, OSError, ValueError) as exc:
        print(f"stardecomp: {exc}", file=sys.stderr)
        code = 4
    except MemoryError as exc:  # a `certify` range too large to hold
        print(f"stardecomp: {str(exc) or 'out of memory'}", file=sys.stderr)
        code = 4
    except RuntimeError as exc:  # thresholds' root solve found no sign change
        print(f"stardecomp: {exc}", file=sys.stderr)
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
