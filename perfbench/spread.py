"""Run-to-run spread of the end-to-end metrics, for setting and checking bounds.

Runs perfbench/run.py once per seed, one run at a time, and prints for
each metric its median, quartiles and spread: the distance between the
quartiles (statistics.quantiles(values, n=4)) as a share of the median.
Raw results go to perfbench/results/<workload>.json.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload decode --seeds 1-10 --seconds 30
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(json.dumps(result), file=sys.stderr)
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace == "1" else ""
    (out / f"{args.workload}{suffix}.json").write_text(json.dumps(runs, indent=1))
    print(f"{args.workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
          f"failed/attempted {sum(r['failed'] for r in runs)}/"
          f"{sum(r['attempted'] for r in runs)}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        bound = bounds.get(name)
        print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {(q3 - q1) / med if med else 0:7.2%}"
              + (f"  bound {bound:.0%}" if bound is not None else ""))


if __name__ == "__main__":
    main()
