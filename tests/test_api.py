"""The package's public surface: its exports, its version and the README's
library example."""

import re
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
    assert tasec.__version__ == version == "0.12.0"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and out[2].startswith("AscEstimate(")
