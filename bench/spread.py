"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload fig_sweep_mc --seeds 1-10 --seconds 20

Runs bench/run.py once per seed, one run at a time, and prints for each
metric the median, the quartiles (statistics.quantiles, n=4), and their
distance as a share of the median, plus the failed share of every run.
Untraced runs also list the uncalibrated medians as raw.wall_s, raw.cpu_s
and raw.cal_cpu_s.
Each run's JSON line is appended to bench/results/<workload>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"{args.workload}{'.trace' if args.trace else ''}.jsonl"
    runs = []
    for seed in args.seeds:
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        # The uncalibrated medians run.py prints on stderr, as raw.<name>.
        for line in done.stderr.splitlines():
            if line.startswith("raw medians: "):
                for item in line.removeprefix("raw medians: ").split():
                    key, value = item.split("=")
                    result["metrics"][f"raw.{key}"] = {"value": float(value), "unit": "s"}
        with log.open("a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"{args.workload}: {len(runs)} runs")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {name:32s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {spread:.2%}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"  failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
