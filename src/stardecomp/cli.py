"""Command-line interface: reproducible batch runs with machine-readable
output.

Reports go to the --out file, or to stdout when --out is absent or `-`;
summaries and diagnostics go to stderr.  `verify`'s report is its verdict,
with the diagnostics of an invalid decomposition, on stdout.  `certify` with --d-min > --d-max
reports an empty degree range: no records, exit 0.

`certify`'s --beta-step and --tau-step, the steps of an earlier (beta, tau)
grid, are still validated and echoed in the config, and have no effect.

Exit codes: 0 success (findings included), 1 failed verification or
decomposition, 2 usage errors (including --max-retries < 1, a --tau-step
that is not positive and finite, a --beta-step below MIN_BETA_STEP = 1e-10
or not finite, a negative --threads, a STARDECOMP_THREADS that is not a
nonnegative integer, `sample --simple` with d >= n, and a `sample --simple`
run out of tries), 3 missing alpha-table entry under --strict-table, 4 I/O
and parse errors (including a graph header above graphs.MAX_VERTICES
vertices, and an alpha table with a row of other than two fields, a
repeated degree or an alpha outside (0, 1/2)).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict

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

THREADS_ENV = "STARDECOMP_THREADS"
MIN_BETA_STEP = 1e-10  # the floor of the step's earlier beta_max scan


@contextlib.contextmanager
def _output(path):
    """Yield the file at `path` opened for writing, or stdout when path is
    None or "-"."""
    if path and path != "-":
        with open(path, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(payload, config, args, alpha_source):
    doc = {
        "tool": "stardecomp",
        "version": __version__,
        "config": config,
        "alpha_source": alpha_source,
        "payload": payload,
    }
    with _output(args.out) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit_csv(rows, path):
    """One header line from the keys of the first row, then one line per
    row; nothing at all when there are no rows."""
    with _output(path) as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


def _resolved_config(args, keys):
    return {k: getattr(args, k) for k in keys}


def cmd_thresholds(args):
    d = args.d
    if d < 3:
        print("thresholds: --d must be >= 3", file=sys.stderr)
        return 2
    table = load_alpha_table(args.alpha_table) if args.alpha_table else None
    try:
        ((alpha_star, source),) = resolve_alpha([d], table, strict=False)
    except ValueError:
        # No controlled estimate below d=20; report the first-moment upper
        # bound as the stand-in, still labeled an estimate.
        alpha_star, source = alpha_fm(d), "estimate"
    payload = asdict(threshold_report(d, alpha_star, source))
    payload["alpha_fc_estimate"] = alpha_fc_estimate(d) if d >= 20 else None
    if args.format == "csv":
        _emit_csv([payload], args.out)
    else:
        config = _resolved_config(args, ["d", "alpha_table", "out", "format"])
        _emit(payload, config, args, source)
    return 0


def cmd_certify(args):
    table = load_alpha_table(args.alpha_table) if args.alpha_table else None
    source = "table" if table else "estimate"
    if source == "estimate" and args.d_min < 20 and args.d_max >= args.d_min:
        print("certify: estimate-based sweeps need --d-min >= 20", file=sys.stderr)
        return 2
    threads = args.threads
    if not threads:
        text = os.environ.get(THREADS_ENV, "1")
        try:
            threads = _nonnegative_int(text)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"certify: {THREADS_ENV} must be a nonnegative integer, got {text!r}",
                  file=sys.stderr)
            return 2
    try:
        report = sweep(
            args.d_min,
            args.d_max,
            alpha_source=source,
            alpha_table=table,
            threads=threads,
            strict_table=args.strict_table,
        )
    except KeyError as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return 3
    config = _resolved_config(
        args,
        ["d_min", "d_max", "alpha_table", "strict_table", "beta_step",
         "tau_step", "out", "format"],
    )
    exceptional = report.exceptional_degrees
    if args.format == "csv":
        _emit_csv([r.as_dict() for r in report.records], args.out)
    else:
        _emit(report.as_dict(), config, args, source)
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
    except DecompositionFailed as exc:
        print(f"decompose: failed at stage {exc.stage}: {exc.detail}",
              file=sys.stderr)
        for seed, stage, detail in exc.attempts:
            print(f"  seed {seed}: {stage}: {detail}", file=sys.stderr)
        return 1
    with _output(args.out) as fh:
        write_decomposition(sd, fh)
    print(f"decomposed into {len(sd.stars)} stars, leftover {len(sd.leftover)}",
          file=sys.stderr)
    return 0


def cmd_verify(args):
    g = read_graph(args.graph)
    sd = read_decomposition(args.decomposition)
    ok, diagnostics = verify_decomposition(g, sd)
    if ok:
        print(f"valid: {len(sd.stars)} stars of size {sd.k}, "
              f"leftover {len(sd.leftover)}")
        return 0
    for line in diagnostics:
        print(line)
    return 1


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text):
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _beta_step(text):
    value = float(text)
    if not MIN_BETA_STEP <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be >= {MIN_BETA_STEP} and finite, got {value}")
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
    p.add_argument("--threads", type=_nonnegative_int, default=0,
                   help=f"worker processes (0: take {THREADS_ENV}, default 1)")
    p.add_argument("--beta-step", dest="beta_step", type=_beta_step,
                   default=1e-6, help="validated and echoed; has no effect")
    p.add_argument("--tau-step", dest="tau_step", type=_positive_float,
                   default=1e-3, help="validated and echoed; has no effect")
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
    return code


if __name__ == "__main__":
    sys.exit(main())
