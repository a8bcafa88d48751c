"""Gather the run records of one commit into a trajectory point.

Usage: python3 perfbench/trajectory.py OUT.json [RECORDS_DIR]

Reads every ``*.json`` record that ``run.py`` wrote (default
``perfbench/.work/records``) and writes, per workload, the median and
quartiles over seeds of each end-to-end metric, the median of each
per-layer metric over the traced runs, and the operations attempted and
failed.  Records of another
commit than the first one read are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarise(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    records_dir = Path(argv[1]) if len(argv) > 1 else HERE / ".work" / "records"
    records = [json.loads(p.read_text()) for p in sorted(records_dir.glob("*.json"))]
    if not records:
        print(f"error: no records under {records_dir}", file=sys.stderr)
        return 2
    env = records[0]["environment"]
    commits = {(r["environment"]["git_sha"], r["environment"]["git_dirty"]) for r in records}
    if len(commits) != 1:
        print(f"error: records of several commits: {sorted(map(str, commits))}", file=sys.stderr)
        return 2

    workloads: dict[str, dict] = {}
    for r in records:
        w = workloads.setdefault(
            r["workload"], {"timed": [], "traced": [], "attempted": 0, "failed": 0}
        )
        w["traced" if r["trace"] else "timed"].append(r)
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]

    point = {"environment": env, "workloads": {}}
    for name, w in sorted(workloads.items()):
        entry = {
            "seeds": sorted(r["seed"] for r in w["timed"]),
            "seconds": sorted({r["seconds"] for r in w["timed"] + w["traced"]}),
            "attempted": w["attempted"],
            "failed": w["failed"],
        }
        if w["timed"]:
            entry["end_to_end"] = {
                m: summarise([r["metrics"][m] for r in w["timed"]]) for m in w["timed"][0]["metrics"]
            }
        if w["traced"]:
            entry["per_layer"] = {
                m: statistics.median(r["metrics"][m] for r in w["traced"])
                for m in w["traced"][0]["metrics"]
            }
            entry["traced_seeds"] = sorted(r["seed"] for r in w["traced"])
        point["workloads"][name] = entry
    out.write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
