"""Reference oracle for `certify`'s report writers: the path they had before
the report stayed in columns.  Every degree is a DegreeRecord, every record
a dict (DegreeRecord.as_dict), the JSON document is one json.dumps(doc,
indent=2, sort_keys=True), and the CSV is a csv.DictWriter over the
dicts.

write_certify(report, args, source) writes what cmd_certify writes for a
sweep report and its parsed arguments: the report to args.out or stdout,
the `.exceptional.csv` sidecar beside a report file, and the summary line
on stderr.  The CLI must write the same bytes."""

import contextlib
import csv
import json
import sys

from stardecomp import __version__

CONFIG_KEYS = ["d_min", "d_max", "alpha_table", "strict_table", "out", "format"]


@contextlib.contextmanager
def _output(path):
    if path and path != "-":
        with open(path, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def payload(report):
    """SweepReport.as_dict built from the list of DegreeRecords."""
    records = report.records
    return {
        "d_min": report.d_min,
        "d_max": report.d_max,
        "alpha_source": report.alpha_source,
        "exceptional_degrees": [r.d for r in records if r.exceptional],
        "records": [r.as_dict() for r in records],
    }


def write_certify(report, args, source):
    doc = payload(report)
    if args.format == "csv":
        rows = doc["records"]
        with _output(args.out) as fh:
            if rows:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
    else:
        doc = {
            "tool": "stardecomp",
            "version": __version__,
            "config": {k: getattr(args, k) for k in CONFIG_KEYS},
            "alpha_source": source,
            "payload": doc,
        }
        with _output(args.out) as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    exceptional = [r.d for r in report.records if r.exceptional]
    if args.out and args.out != "-":
        with open(args.out + ".exceptional.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["d"])
            for d in exceptional:
                writer.writerow([d])
    print("exceptional degrees:", " ".join(map(str, exceptional)) or "(none)",
          file=sys.stderr)
