"""Summarise benchmark result files into one BENCH file.

Usage (from the repository root):

    python3 perfbench/summarize.py OUT.json perfbench/_work/results/*.json

Groups the runs by workload and trace mode and gives, for every metric, the
number of runs with the median and quartiles across them, plus the seeds,
the failure counts, each command's median time and the host and provenance
recorded by the runs.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(records: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for rec in records:
        key = f"{rec['settings']['workload']}/trace{rec['settings']['trace']}"
        groups.setdefault(key, []).append(rec)
    out = {"host": records[0]["host"], "provenance": records[0]["provenance"], "runs": {}}
    for key, recs in sorted(groups.items()):
        metrics = {}
        for name, first in recs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in recs]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "unit": first["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "iqr_over_median": (q3 - q1) / q2 if q2 else None,
            }
        out["runs"][key] = {
            "n_runs": len(recs),
            "seeds": [r["settings"]["seed"] for r in recs],
            "seconds": recs[0]["seconds"],
            "riscov_workers": recs[0]["settings"]["riscov_workers"],
            "trials": {c["name"]: c["trials"] for c in recs[0]["settings"]["commands"]},
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "absent_probes": recs[0]["absent_probes"],
            "metrics": metrics,
        }
        per_command = [r["command_median_s"] for r in recs if r.get("command_median_s")]
        if per_command:
            out["runs"][key]["command_median_s"] = {
                name: statistics.median(m[name] for m in per_command) for name in per_command[0]
            }
        hosts = {json.dumps(r["host"], sort_keys=True) for r in recs}
        commits = {json.dumps(r["provenance"], sort_keys=True) for r in recs}
        if len(hosts) > 1 or len(commits) > 1:
            out["runs"][key]["mixed_hosts_or_commits"] = True
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(Path(p).read_text()) for p in argv[1:]]
    Path(argv[0]).write_text(json.dumps(summarize(records), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
