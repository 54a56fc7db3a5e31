"""The workload process: runs one spec against the program for a set time.

Reads a spec (JSON) on stdin and writes one JSON object on stdout: the wall
and CPU time of every timed pass, the mean time of the calibration pieces it
ran (see calibrate.py; none with --trace 1), each distinct output, the
pass-to-output map, the peak resident set through the warm-up pass, and with
--trace 1 the per-layer metrics of every pass. Imports `tasec` from the
checkout's `src/` and nothing else of the repository. Run by run.py; `python3 bench/worker.py --seconds 5 < spec`.
"""

import argparse
import contextlib
import functools
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))  # run with -I, which leaves the script's directory out

import calibrate  # noqa: E402

# At least this many timed passes, however short --seconds is.
MIN_PASSES = 3
# Library passes run in slices of this many operations, about 40 ms each.
SLICE_OPS = 128


def import_program():
    sys.path.insert(0, str(SRC))
    import tasec
    if Path(tasec.__file__).resolve().parent != SRC / "tasec":
        raise ImportError(f"tasec came from {tasec.__file__}, not from {SRC}")
    return tasec


def cli_pass(argv, tracer=None) -> dict:
    from tasec import cli
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(list(argv))
    except Exception as exc:  # an escaped traceback fails every row of the pass
        code = f"{type(exc).__name__}: {exc}"
    text = buffer.getvalue()
    if tracer is not None:
        tracer.count("cli.csv_bytes", len(text.encode()))
    return {"exit": code, "csv": text}


def _library_op(op, tasec):
    # Names are looked up on their modules at call time, so that wrappers
    # installed there (spans, injected faults) see the call.
    if op[0] == "crossover":
        _, gb_db, m = op
        result = tasec.experiments.find_crossover(gb_db, m)
        return [result.crossover_ratio_db, result.residual]
    kind, scheme, gb, ge, m = op
    scenario = tasec.Scenario(gb, ge, m)
    if kind == "quad":
        return tasec.secrecy.asc_quadrature(scenario, tasec.TasScheme(scheme)).value
    closed = (tasec.secrecy.asc_btas_closed if scheme == "btas"
              else tasec.secrecy.asc_etas_closed)
    return closed(scenario).value


def library_pass(ops, tracer=None) -> list:
    import tasec
    results = []
    for op in ops:
        try:
            results.append(_library_op(op, tasec))
        except Exception as exc:  # a failing call is a failed operation, not a crash
            results.append({"error": f"{type(exc).__name__}: {exc}"})
    return results


def _timed(fn, *args):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - wall0, time.process_time() - cpu0


class Calibration:
    """Calibration pieces (calibrate.py) run inside the timed passes, and
    their summed times, which are taken out of the pass's times."""

    def __init__(self, kind: str, threads: int):
        self.kind, self.threads = kind, threads
        self.pieces, self.wall, self.cpu = 0, 0.0, 0.0

    def step(self) -> None:
        _, wall, cpu = _timed(calibrate.piece, self.kind, self.threads)
        self.pieces += 1
        self.wall += wall
        self.cpu += cpu

    @contextlib.contextmanager
    def before_each_call(self, module, attr: str):
        """Run a piece before every call of `module.attr` inside the block."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def calibrated(*args, **kwargs):
            self.step()
            return original(*args, **kwargs)

        setattr(module, attr, calibrated)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def timed(self, one_pass) -> tuple:
        """(output, record) of one pass: its wall and CPU time without the
        pieces it ran, and the mean CPU time of those pieces."""
        self.pieces, self.wall, self.cpu = 0, 0.0, 0.0
        output, wall, cpu = _timed(one_pass)
        return output, {"wall_s": wall - self.wall, "cpu_s": cpu - self.cpu,
                        "cal_cpu_s": self.cpu / self.pieces}


def run(spec: dict, seconds: float, tracer=None, min_passes: int = MIN_PASSES) -> dict:
    """Warm up once, then time whole passes until `seconds` have gone by.
    Untraced passes run calibration pieces: a library pass one before each
    slice of SLICE_OPS operations, a CLI pass one at its start and one
    before each Monte Carlo call."""
    calibration = None if tracer is not None else Calibration(*spec["calibration"])
    if spec["kind"] == "cli":
        def one_pass(argv=spec["argv"]):
            if calibration is not None:
                calibration.step()
            return cli_pass(argv, tracer)
    else:
        def one_pass(ops=spec["ops"]):
            if calibration is None:
                return library_pass(ops, tracer)
            results = []
            for start in range(0, len(ops), SLICE_OPS):
                calibration.step()
                results += library_pass(ops[start:start + SLICE_OPS])
            return results

    # The warm-up pass fills the allocator and the caches. For the
    # multi-threaded sweep it runs at one thread, and its CSV is the one the
    # timed passes must match byte for byte. It runs no calibration piece.
    identity_argv = spec.get("identity_argv")
    if identity_argv:
        warm = cli_pass(identity_argv, tracer)
    elif spec["kind"] == "cli":
        cli_pass(spec["argv"], tracer)
    else:
        library_pass(spec["ops"], tracer)
    # Peak resident set through the warm-up pass. At two threads the peak
    # depends on how the workers' allocations happen to overlap, and read
    # at the end of a run it wandered between 77 and 115 MB on the same
    # inputs; through the one-thread pass it repeats.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    in_passes = contextlib.nullcontext()
    if calibration is not None:
        calibration.step()  # warm-up, after the peak is read
        from tasec import experiments
        if spec["kind"] == "cli" and hasattr(experiments, "mc_asc"):
            in_passes = calibration.before_each_call(experiments, "mc_asc")
    if tracer is not None:
        tracer.harvest()

    outputs, index, passes = [], {}, []
    with in_passes:
        started = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - started < seconds:
            if calibration is None:
                output, wall, cpu = _timed(one_pass)
                record = {"wall_s": wall, "cpu_s": cpu}
            else:
                output, record = calibration.timed(one_pass)
            key = json.dumps(output)
            if key not in index:
                index[key] = len(outputs)
                outputs.append(output)
            record["output"] = index[key]
            if tracer is not None:
                record["layers"] = tracer.harvest()
            passes.append(record)
    return {"passes": passes, "outputs": outputs, "peak_rss_mb": peak_rss_mb,
            "identity": warm if identity_argv else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.load(sys.stdin)
    import_program()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    json.dump(run(spec, args.seconds, tracer), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
