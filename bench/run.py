"""Benchmark of tasec: the paper's figure sweeps and the closed-form grid.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: fig_sweep_mc, norm_sweep_overlay,
closed_quad_grid (see bench/README.md). The generator process (this one)
makes the inputs from the seed, times the program's set-up in fresh
interpreters, runs the workload in one fresh process for S seconds, then
checks every output value against references computed with mpmath. The last
line of stdout is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
The pass times are divided by the run's speed factor (see calibrate.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up probes on each side of the workload process; the machine's speed
# drifts over seconds, so the probes sample it before and after.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
# One thread for numpy's own pools, so the workload's threads are the only ones.
_WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

_SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import tasec, tasec.cli
tasec.cli.parse_config(sys.argv[2:])
"""


def _child_env() -> dict:
    return {**os.environ, **_WORKER_ENV}


def setup_probes(argv: list[str], warm: bool) -> list[float]:
    """Wall times of fresh interpreters through `import tasec` and parsing
    the workload's command line. With `warm`, one unmeasured probe first, so
    compiling bytecode on a first run does not count."""
    command = [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), *argv]
    times = []
    for _ in range(SETUP_PROBES + int(warm)):
        start = time.perf_counter()
        subprocess.run(command, check=True, env=_child_env(),
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times[int(warm):]


def run_worker(spec: dict, seconds: float, trace: bool) -> dict:
    command = [sys.executable, "-I", str(HERE / "worker.py"),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, input=json.dumps(spec), capture_output=True,
                          text=True, env=_child_env(), timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return json.loads(done.stdout)


def tally(spec: dict, result: dict) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every timed pass. Only failures of
    the known fault keep `correct` true."""
    refs = checks.references(spec)
    verdicts = [checks.check_output(spec, refs, out) for out in result["outputs"]]
    attempted = failed = 0
    correct = True
    for record in result["passes"]:
        pass_verdicts = verdicts[record["output"]]
        attempted += len(pass_verdicts)
        failed += sum(not v.ok for v in pass_verdicts)
    for pass_verdicts in verdicts:
        unexpected = [v for v in pass_verdicts if not v.ok and not v.known_fault]
        for v in unexpected[:10]:
            print(f"FAIL {v.label}: {v.detail}", file=sys.stderr)
        correct = correct and not unexpected
    identity = result.get("identity")
    if identity is not None and any(out != identity for out in result["outputs"]):
        print("FAIL the CSV at 1 thread differs from the CSV at "
              f"{workloads.NORM_THREADS} threads", file=sys.stderr)
        correct = False
    return attempted, failed, correct


# Metric names and units, as BENCHMARK.json declares them.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}


def _metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


def end_to_end(spec: dict, passes: list, setup_s: float, peak_rss_mb: float) -> dict:
    """`run_s` and `cpu_s` are the median pass times divided by the run's
    speed factor: the median CPU time of a calibration piece over its
    nominal time (calibrate.py). The raw medians go to stderr."""
    raw = {key: statistics.median(p[key] for p in passes)
           for key in ("wall_s", "cpu_s", "cal_cpu_s")}
    speed = raw["cal_cpu_s"] / calibrate.NOMINAL_CPU_S[tuple(spec["calibration"])]
    print("raw medians: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()),
          file=sys.stderr)
    return _metrics({
        "setup_s": setup_s,
        "run_s": raw["wall_s"] / speed,
        "cpu_s": raw["cpu_s"] / speed,
        "peak_rss_mb": peak_rss_mb,
    })


def per_layer(passes: list) -> dict:
    """Median over the traced passes of each layer metric; trace.pass_s is
    the traced pass's wall time, so its excess over run_s is the tracing
    overhead."""
    values = {}
    for metric in DECLARED["per_layer"]:
        name = metric["name"]
        if name == "trace.pass_s":
            values[name] = statistics.median(p["wall_s"] for p in passes)
        else:
            values[name] = statistics.median(p["layers"][name] for p in passes)
    return _metrics(values)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.make_spec(name, seed)
    if trace:
        result = run_worker(spec, seconds, trace)
        metrics = per_layer(result["passes"])
    else:
        probes = setup_probes(spec["setup_argv"], warm=True)
        result = run_worker(spec, seconds, trace)
        probes += setup_probes(spec["setup_argv"], warm=False)
        metrics = end_to_end(spec, result["passes"], statistics.median(probes),
                             result["peak_rss_mb"])
    attempted, failed, correct = tally(spec, result)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tasec").is_dir():
        print(f"no program to measure: {SRC / 'tasec'} is missing", file=sys.stderr)
        return 2
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
