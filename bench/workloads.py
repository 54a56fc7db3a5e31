"""Workload inputs, made from the workload name and the seed alone.

A spec is a JSON-ready dict. Both processes read it: the workload process
runs it against the program, and the generator process computes references
for it and checks the outputs. The same (name, seed) always gives the same
spec; every spec of one workload does the same amount of work, so the seed
moves values, never sizes.
"""

import random

MC_CHUNK = 65_536

# fig_sweep_mc: the paper's ASC-vs-gamma_B figure at the CLI's default of one
# thread, a whole number of chunks per Monte Carlo point.
FIG_POINTS = 12
FIG_TRIALS = 2 * MC_CHUNK
FIG_ANTENNAS = (2, 8)
FIG_SCHEMES = ("otas", "btas", "etas")

# norm_sweep_overlay: the normalized figure at 2 threads; 100,000 trials is
# one full chunk plus a partial one of 34,464, so one worker idles on it.
NORM_POINTS = 4
NORM_TRIALS = 100_000
NORM_ANTENNAS = (2, 16)
NORM_SCHEMES = ("otas", "btas", "etas", "random")
NORM_THREADS = 2

# closed_quad_grid: pure-Python scalar routes over gamma_B, gamma_E in
# [-30, 40] dB. The seeded grid jitters one point into each 5 dB cell; the
# M = 32/64 B-TAS grid is fixed at 10 dB steps so that the closed form's
# known accuracy loss fails the same operations on every seed.
GRID_LO_DB, GRID_HI_DB, GRID_CELLS = -30.0, 40.0, 14
GRID_ANTENNAS = (1, 2, 4, 8, 16)
GRID_QUAD_SCHEMES = ("btas", "etas", "random")
WIDE_ANTENNAS = (32, 64)
FIXED_GRID_DB = tuple(GRID_LO_DB + 10.0 * i for i in range(8))
CROSSOVER_POINTS = 8
CROSSOVER_ANTENNAS = (2, 4, 8, 16)

WORKLOADS = ("fig_sweep_mc", "norm_sweep_overlay", "closed_quad_grid")


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _db(x: float) -> float:
    """Round a drawn dB value to a millidecibel so argv strings stay short."""
    return round(x, 3)


def _sweep_argv(swept, from_db, to_db, points, fixed_flag, fixed_db, antennas,
                schemes, trials, seed, extra=()):
    argv = ["sweep", "--swept", swept, "--from-db", repr(from_db),
            "--to-db", repr(to_db), "--points", str(points),
            fixed_flag, repr(fixed_db)]
    for m in antennas:
        argv += ["-M", str(m)]
    for s in schemes:
        argv += ["--scheme", s]
    argv += ["--trials", str(trials), "--seed", str(seed), *extra]
    return argv


def _fig_sweep_mc(rng: random.Random) -> dict:
    from_db = _db(-10.0 + rng.uniform(0.0, 5.0))
    to_db = _db(from_db + 50.0)
    gamma_e_db = _db(rng.uniform(5.0, 15.0))
    mc_seed = rng.getrandbits(63)
    argv = _sweep_argv("gamma-b", from_db, to_db, FIG_POINTS, "--gamma-e-db",
                       gamma_e_db, FIG_ANTENNAS, FIG_SCHEMES, FIG_TRIALS, mc_seed)
    return {"kind": "cli", "argv": argv, "setup_argv": argv,
            "calibration": ["array", 1],
            "sweep": {"swept": "gamma-b", "from_db": from_db, "to_db": to_db,
                      "points": FIG_POINTS, "fixed_db": gamma_e_db,
                      "antennas": list(FIG_ANTENNAS), "schemes": list(FIG_SCHEMES),
                      "trials": FIG_TRIALS, "normalize": False, "overlay": False}}


def _norm_sweep_overlay(rng: random.Random) -> dict:
    from_db = _db(-30.0 + rng.uniform(0.0, 5.0))
    to_db = _db(from_db + 55.0)
    gamma_b_db = _db(rng.uniform(5.0, 15.0))
    mc_seed = rng.getrandbits(63)
    base = _sweep_argv("ratio", from_db, to_db, NORM_POINTS, "--gamma-b-db",
                       gamma_b_db, NORM_ANTENNAS, NORM_SCHEMES, NORM_TRIALS,
                       mc_seed, ("--normalize-otas", "--mc-overlay"))
    argv = base + ["--threads", str(NORM_THREADS)]
    return {"kind": "cli", "argv": argv, "setup_argv": argv,
            "identity_argv": base + ["--threads", "1"],
            "calibration": ["array", NORM_THREADS],
            "sweep": {"swept": "ratio", "from_db": from_db, "to_db": to_db,
                      "points": NORM_POINTS, "fixed_db": gamma_b_db,
                      "antennas": list(NORM_ANTENNAS), "schemes": list(NORM_SCHEMES),
                      "trials": NORM_TRIALS, "normalize": True, "overlay": True}}


def _linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def _closed_quad_grid(rng: random.Random) -> dict:
    cell = (GRID_HI_DB - GRID_LO_DB) / GRID_CELLS

    def jittered_axis():
        return [_db(GRID_LO_DB + cell * (i + rng.random())) for i in range(GRID_CELLS)]

    ops = []
    for gb_db in jittered_axis():
        for ge_db in jittered_axis():
            gb, ge = _linear(gb_db), _linear(ge_db)
            for m in GRID_ANTENNAS:
                ops.append(["closed", "btas", gb, ge, m])
                ops.append(["closed", "etas", gb, ge, m])
                for scheme in GRID_QUAD_SCHEMES:
                    ops.append(["quad", scheme, gb, ge, m])
    for gb_db in FIXED_GRID_DB:
        for ge_db in FIXED_GRID_DB:
            gb, ge = _linear(gb_db), _linear(ge_db)
            for m in WIDE_ANTENNAS:
                ops.append(["closed", "btas", gb, ge, m])
                ops.append(["quad", "btas", gb, ge, m])
    # Crossovers inside the default +-30 dB bracket, with gamma_B spread over
    # the grid's range in equal strata.
    span = (GRID_HI_DB - GRID_LO_DB) / CROSSOVER_POINTS
    for i in range(CROSSOVER_POINTS):
        gb_db = _db(GRID_LO_DB + span * (i + rng.random()))
        for m in CROSSOVER_ANTENNAS:
            ops.append(["crossover", gb_db, m])
    setup_argv = ["asc", "--scheme", "btas", "--gamma-b-db", "10",
                  "--gamma-e-db", "10", "-M", "64"]
    return {"kind": "library", "ops": ops, "setup_argv": setup_argv,
            "calibration": ["scalar", 1]}


_SPEC_MAKERS = {"fig_sweep_mc": _fig_sweep_mc,
             "norm_sweep_overlay": _norm_sweep_overlay,
             "closed_quad_grid": _closed_quad_grid}


def make_spec(name: str, seed: int) -> dict:
    """The inputs of workload `name` for `seed`."""
    if name not in _SPEC_MAKERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    spec = _SPEC_MAKERS[name](_rng(name, seed))
    spec.update(workload=name, seed=seed)
    return spec
