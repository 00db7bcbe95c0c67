#!/usr/bin/env python3
"""anchorlex benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 10 --trace 0

Builds the workload's inputs from --seed, sets up (several times; the
median is setup_s), then runs the workload's stages back to back
through anchorlex.cli.main until --seconds are spent, checking every
repetition's outputs. With --trace 0 the last line carries the
end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics, taken from traced repetitions that alternate with
untraced ones. Times are reported at a reference host speed (calib.py).
Earlier lines are a readable table; the full record
(machine, per-stage walls, manifest wall times, failures) is written to
perfbench/.work/results-<workload>-seed<seed>-trace<t>.json.

The program is imported from src/ beside this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")


def _result(record: dict, spec: dict, trace: bool) -> dict:
    """The last output line: exactly the metrics BENCHMARK.json lists."""
    values = record["per_layer"] if trace else record["end_to_end"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def _table(record: dict, spec: dict) -> list[str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        + "  ".join(f"{k} {v}" for k, v in record["machine"].items()),
        f"repetitions {record['repetitions']}  attempted {record['attempted']}  "
        f"failed {record['failed']}",
    ]
    lines += [f"  ! {f}" for f in record["failures"]]
    lines.append(
        f"host calibration {min(record['calibrate_s']):.4f}-{max(record['calibrate_s']):.4f} s "
        f"against {record['reference_calibrate_s']} s: times below are at the reference speed"
    )
    lines.append("stage walls (s), outside timer vs manifest wall_time_s:")
    lines += [
        f"  {stage:16s} {wall:10.4f} {record['manifest_wall_time_s'][stage]:10.4f}"
        for stage, wall in record["stage_wall_s"].items()
    ]
    for group in ("end_to_end", "per_layer"):
        lines += [f"{group}:"] + [
            f"  {k:36s} {v:14.6f} {units.get(k) or ('s' if k.endswith('_s') else 'count')}"
            for k, v in record[group].items()
        ]
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=("corpus", "train", "score"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "anchorlex", "cli.py")):
        print(f"perfbench: no anchorlex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK_ROOT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = _result(record, spec, bool(args.trace))
    print("\n".join(_table(record, spec)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
