"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workloads chain,corridor --seeds 1,2,3,4,5 [--trace 1] [--out f.json]

Runs `perfbench/run.py` once per (workload, seed), one after another, and
prints for each metric the median, the quartiles and the spread: the
distance between the first and third quartile (`statistics.quantiles`,
n=4) as a share of the median. With --out the per-run values and these
summaries are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds.split(","):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", seed,
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} operations failed")
            runs.append({"seed": int(seed), **result})
        names = runs[0]["metrics"]
        summary = {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names}
        print(f"{workload} ({len(runs)} runs, failed {sum(r['failed'] for r in runs)})")
        for name, s in summary.items():
            print(f"  {name:40s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
