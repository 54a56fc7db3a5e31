"""The package's public surface: its exports, its version and the README's
library example."""

import os
import re
import subprocess
import sys
from pathlib import Path

import tasec

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_API = [
    "AscEstimate", "CheckResult", "ConvergenceError", "CrossoverResult",
    "DegenerateNormalizationError", "Method", "NoCrossoverError", "RngStream",
    "Scenario", "SweepRow", "SweepSpec", "SweptParameter", "TasScheme",
    "UnsupportedSchemeError", "adaptive_scheme", "asc", "asc_btas_closed",
    "asc_etas_closed", "asc_quadrature", "db_to_linear",
    "delta_e", "draw_gain_blocks", "exp_scaled_e1", "find_crossover",
    "link_laws", "mc_asc", "mc_asc_curve", "run_sweep", "run_verification",
    "select_indices",
]


def test_all_is_pinned_and_resolves():
    assert sorted(tasec.__all__) == sorted(PUBLIC_API)
    for name in PUBLIC_API:
        assert getattr(tasec, name) is not None


def test_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text()
    version = re.search(r'^version = "(.*)"$', pyproject, re.MULTILINE).group(1)
    assert tasec.__version__ == version == "0.20.0"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and out[2].startswith("AscEstimate(")


def test_numpy_random_loads_at_the_first_draw():
    # Importing the package and its CLI, and every route without random
    # draws, leave numpy.random unloaded; Monte Carlo loads it and runs
    code = (
        "import sys\n"
        "import tasec, tasec.cli\n"
        "loaded = ['numpy.random' in sys.modules]\n"
        "point = tasec.Scenario(10.0, 10.0, 8)\n"
        "tasec.asc_btas_closed(point), tasec.asc_etas_closed(point)\n"
        "tasec.asc_quadrature(point, 'random'), tasec.find_crossover(10.0, 8)\n"
        "loaded.append('numpy.random' in sys.modules)\n"
        "estimate = tasec.asc(point, 'otas', trials=1000, rng=tasec.RngStream(1))\n"
        "loaded.append('numpy.random' in sys.modules)\n"
        "print(loaded, estimate.trials)\n")
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-W", "error", "-c", code],
                            capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": pythonpath})
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[False, False, True] 1000\n"
