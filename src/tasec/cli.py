"""Command-line front end.

Subcommands:

  asc        one ASC value for one operating point
  sweep      CSV sweep over a dB axis (figure-style output)
  crossover  ratio at which the two sub-optimal closed forms meet
  verify     run the self-check suite

All SNRs cross this boundary in dB and are converted to linear exactly once.
Floats are rendered with 17 significant digits so CSV output round-trips
doubles and is byte-stable across runs. Exit codes: 0 success, 1 computation
or check failure, 2 usage error, 3 no crossover in the bracket.
"""

import argparse
import math
import sys
from pathlib import Path

from .channel import RngStream, Scenario
from .errors import (ConvergenceError, DegenerateNormalizationError,
                     NoCrossoverError, UnsupportedSchemeError)
from .experiments import (DEFAULT_BRACKET_DB, SweepSpec, SweptParameter,
                          db_to_linear, find_crossover, run_sweep)
from .secrecy import ROUTES, Method, asc
from .selection import TasScheme
from .verification import run_verification

SWEEP_CSV_HEADER = ("swept_value_db", "gamma_b0_db", "gamma_e0_db", "M",
                    "scheme", "method", "asc", "std_error", "trials")
ASC_CSV_HEADER = ("scheme", "method", "gamma_b0_db", "gamma_e0_db", "M",
                  "asc", "std_error", "trials")
CROSSOVER_CSV_HEADER = ("gamma_b0_db", "M", "crossover_ratio_db", "residual")

_METHOD_NAMES = {"closed": "closed-form", "quad": "quadrature", "mc": "Monte Carlo"}


class UsageError(Exception):
    """Bad flags, bad config keys, or statically invalid combinations."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ----------------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------------

def _finite_db(text: str) -> float:
    """Type of the dB flags: a NaN or infinite value is a usage error."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite dB value: {text!r}")
    return value


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its subcommand parsers by name. Every flag's
    default, type and choices live here; the config file reuses them."""
    parser = _Parser(prog="tasec", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    def add_base(p):
        p.add_argument("--config", help="flat key = value config file")

    def add_gamma_b(p):
        p.add_argument("--gamma-b-db", type=_finite_db, default=10.0,
                       help="legitimate reference SNR [dB]")

    def add_gamma_e(p):
        p.add_argument("--gamma-e-db", type=_finite_db, default=10.0,
                       help="eavesdropper reference SNR [dB]")

    def add_antennas(p, repeatable):
        p.add_argument("-M", "--antennas", type=int, action="append", default=[2],
                       help="transmit antenna count"
                            + (" (repeatable)" if repeatable else ""))

    def add_mc(p):
        p.add_argument("--trials", type=int, default=1_000_000,
                       help="Monte Carlo trial count")
        p.add_argument("--seed", type=int, default=42,
                       help="64-bit unsigned RNG seed")
        p.add_argument("--threads", type=int, default=1,
                       help="most worker threads for Monte Carlo chunks, capped at "
                            "the chunk count and the usable CPUs (output-invariant)")

    def add_schemes(p):
        p.add_argument("--scheme", dest="schemes", choices=[s.value for s in TasScheme],
                       action="append", default=[])

    p_asc = sub.add_parser("asc", help="single-point average secrecy capacity")
    add_base(p_asc)
    add_gamma_b(p_asc)
    add_gamma_e(p_asc)
    add_antennas(p_asc, repeatable=False)
    add_mc(p_asc)
    add_schemes(p_asc)
    p_asc.add_argument("--method", choices=list(_METHOD_NAMES), default="closed")
    p_asc.add_argument("--out", help="output path (default stdout)")

    p_sweep = sub.add_parser("sweep", help="CSV sweep over one dB axis")
    add_base(p_sweep)
    add_gamma_b(p_sweep)
    add_gamma_e(p_sweep)
    add_antennas(p_sweep, repeatable=True)
    add_mc(p_sweep)
    add_schemes(p_sweep)
    p_sweep.add_argument("--swept", choices=[s.value for s in SweptParameter],
                         help="which axis the grid walks")
    p_sweep.add_argument("--from-db", type=_finite_db, dest="from_db")
    p_sweep.add_argument("--to-db", type=_finite_db, dest="to_db")
    p_sweep.add_argument("--points", type=int)
    p_sweep.add_argument("--normalize-otas", action="store_true",
                         help="divide every row by the O-TAS Monte Carlo value")
    p_sweep.add_argument("--mc-overlay", action="store_true",
                         help="also emit Monte Carlo rows for closed-form schemes")
    p_sweep.add_argument("--out")

    p_cross = sub.add_parser("crossover",
                             help="B-TAS/E-TAS crossover ratio for one operating point")
    add_base(p_cross)
    add_gamma_b(p_cross)
    add_antennas(p_cross, repeatable=False)
    p_cross.add_argument("--bracket-db", type=_finite_db, nargs=2,
                         default=DEFAULT_BRACKET_DB, metavar=("LO", "HI"))
    p_cross.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run the self-check suite")
    add_base(p_verify)
    add_mc(p_verify)
    return parser, sub.choices


def _config_keys(command: _Parser) -> dict[str, argparse.Action]:
    """A subcommand's config-file keys: its long flags without the leading
    dashes and with the other dashes replaced by underscores."""
    return {flag[2:].replace("-", "_"): action
            for action in command._actions for flag in action.option_strings
            if flag.startswith("--") and flag not in ("--help", "--config")}


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _config_value(action: argparse.Action, text: str):
    """Parse a config value with the flag's own type and choices. Repeatable
    and multi-value flags take a comma- or space-separated list."""
    if action.nargs == 0:
        return _parse_bool(text)
    many = action.nargs is not None or isinstance(action, argparse._AppendAction)
    values = [(action.type or str)(item)
              for item in (text.replace(",", " ").split() if many else [text])]
    for value in values:
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"invalid choice {value!r} "
                             f"(choose from {', '.join(action.choices)})")
    if isinstance(action.nargs, int) and len(values) != action.nargs:
        raise ValueError(f"needs exactly {action.nargs} values, got {len(values)}")
    return values if many else values[0]


def _read_config_file(path: str, keys: dict[str, argparse.Action]) -> dict:
    """Flat `key = value` lines; '#' starts a comment. Returns values by dest."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[keys[key].dest] = _config_value(keys[key], value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(
                f"{path}:{lineno}: bad value for {key!r}: {value!r} ({exc})") from exc
    return values


def parse_config(argv: list[str], config_file: str | None = None) -> argparse.Namespace:
    """Flags beat the config file, which beats the parser's defaults.

    The namespace also carries the library objects the run needs (`scenario`
    for asc, `spec` for sweep), built here so that their errors are usage
    errors.
    """
    parser, commands = _build_parser()
    name = parser.parse_args(argv).subcommand
    command = commands[name]
    keys = _config_keys(command)
    # Parse the flags again into a namespace that already holds every dest:
    # argparse then fills in no defaults and `append` starts from an empty
    # list, so a dest still None after parsing was not given on the command line.
    ns = argparse.Namespace(subcommand=name, config=None,
                            **{action.dest: None for action in keys.values()})
    command.parse_args(argv[argv.index(name) + 1:], ns)
    path = ns.config or config_file
    config = _read_config_file(path, keys) if path else {}
    for action in keys.values():
        if getattr(ns, action.dest) is None:
            setattr(ns, action.dest, config.get(action.dest, action.default))
    try:
        _build(ns)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return ns


def _build(ns: argparse.Namespace) -> None:
    """Build the library objects of the run, and check what they do not."""
    if "seed" in ns:  # the Monte Carlo flags
        if ns.threads < 1:
            raise UsageError(f"threads must be >= 1, got {ns.threads}")
        RngStream(ns.seed)  # rejects seeds outside the unsigned 64-bit range

    if ns.subcommand == "asc":
        if len(ns.schemes) != 1:
            raise UsageError("asc needs exactly one --scheme")
        if len(ns.antennas) != 1:
            raise UsageError("asc takes a single -M")
        scheme = TasScheme(ns.schemes[0])
        ns.schemes = [scheme]
        if Method(ns.method) not in ROUTES[scheme]:
            raise UsageError(f"{_METHOD_NAMES[ns.method]} unavailable for {scheme.value}")
        if ns.method == "mc" and ns.trials < 2:
            raise UsageError(f"--trials must be >= 2 for mc, got {ns.trials}")
        ns.scenario = Scenario(db_to_linear(ns.gamma_b_db),
                               db_to_linear(ns.gamma_e_db), ns.antennas[0])

    elif ns.subcommand == "sweep":
        for flag, value in (("--swept", ns.swept), ("--from-db", ns.from_db),
                            ("--to-db", ns.to_db), ("--points", ns.points)):
            if value is None:
                raise UsageError(f"sweep requires {flag}")
        fixed = ns.gamma_e_db if ns.swept == SweptParameter.GAMMA_B_DB.value \
            else ns.gamma_b_db
        ns.spec = SweepSpec(
            swept=ns.swept, start_db=ns.from_db, stop_db=ns.to_db,
            points=ns.points, fixed_gamma_db=fixed, antennas=ns.antennas,
            schemes=ns.schemes, mc_trials=ns.trials, seed=ns.seed,
            normalize_to_otas=ns.normalize_otas, mc_overlay=ns.mc_overlay)

    elif ns.subcommand == "crossover":
        if len(ns.antennas) != 1:
            raise UsageError("crossover takes a single -M")
        if ns.antennas[0] < 2:
            raise UsageError("crossover needs -M >= 2: with one antenna the "
                             "schemes coincide everywhere")
        lo, hi = ns.bracket_db
        if not lo < hi:
            raise UsageError(f"--bracket-db needs LO < HI, got {lo} {hi}")

    elif ns.subcommand == "verify":
        if ns.trials < 2:
            raise UsageError(f"--trials must be >= 2, got {ns.trials}")


# ----------------------------------------------------------------------------
# CSV emission
# ----------------------------------------------------------------------------

def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit_csv(header, rows, out_path) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_format_field(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------

def cmd_asc(cfg: argparse.Namespace) -> int:
    scheme, scenario = cfg.schemes[0], cfg.scenario
    est = asc(scenario, scheme, cfg.method, trials=cfg.trials,
              rng=RngStream(cfg.seed), threads=cfg.threads)
    row = (scheme.value, est.method.value, cfg.gamma_b_db, cfg.gamma_e_db,
           scenario.num_antennas, est.value, est.std_error, est.trials)
    _emit_csv(ASC_CSV_HEADER, [row], cfg.out)
    return 0


def cmd_sweep(cfg: argparse.Namespace) -> int:
    rows = run_sweep(cfg.spec, threads=cfg.threads)
    _emit_csv(SWEEP_CSV_HEADER,
              [(r.swept_value_db, r.gamma_b0_db, r.gamma_e0_db, r.antennas,
                r.scheme, r.method, r.asc, r.std_error, r.trials) for r in rows],
              cfg.out)
    return 0


def cmd_crossover(cfg: argparse.Namespace) -> int:
    result = find_crossover(cfg.gamma_b_db, cfg.antennas[0], cfg.bracket_db)
    row = (result.gamma_b0_db, result.antennas, result.crossover_ratio_db,
           result.residual)
    _emit_csv(CROSSOVER_CSV_HEADER, [row], cfg.out)
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    results = run_verification(trials=cfg.trials, seed=cfg.seed,
                               threads=cfg.threads)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_config(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    commands = {"asc": cmd_asc, "sweep": cmd_sweep,
                "crossover": cmd_crossover, "verify": cmd_verify}
    try:
        return commands[cfg.subcommand](cfg)
    except NoCrossoverError as exc:
        print(f"no crossover: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ConvergenceError, UnsupportedSchemeError,
            DegenerateNormalizationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
