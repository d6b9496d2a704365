"""Start-up: importing one module loads no other stage, no quick-start command
loads numpy (`fit` solves lists in pure Python, and so does `evaluate` up to
`evaluate.NUMPY_ROWS` rows), only `evaluate` loads `statistics`, and the heap
is frozen at exit.

The test process has numpy loaded already, so every check runs in a fresh
interpreter with PYTHONPATH pointing at the source tree.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from workforecast import evaluate
from workforecast.cli import cli

from helpers import quickstart_args

SRC = Path(__file__).resolve().parents[1] / "src"
RUN_COMMAND = (
    "import sys\n"
    "from workforecast.cli import cli\n"
    "cli.main(sys.argv[1:], standalone_mode=False)\n"
    "print('numpy' in sys.modules, 'statistics' in sys.modules)\n"
)


def _python(*argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "WF_NO_COLOR": "1"}
    result = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_package_and_the_cli_loads_no_numpy():
    """Nor calendar, which only the window rule needs, on first use, nor statistics, which only `evaluate` needs.

    locale is loaded: click's `version_option` calls gettext when the CLI module is imported.
    """
    out = _python(
        "-c",
        "import sys, workforecast.jsonio\n"
        "stage_loaded = 'workforecast.evaluate' in sys.modules\n"
        "import workforecast.cli\n"
        "print('numpy' in sys.modules, stage_loaded, 'calendar' in sys.modules, 'statistics' in sys.modules)\n",
    )
    assert out == "False False False False"


def test_the_heap_is_frozen_at_exit():
    """The CLI's exit hook, registered after this one, runs before it: so this one sees a frozen heap."""
    out = _python(
        "-c",
        "import atexit, gc\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
        "import workforecast.cli\n"
        "print(gc.get_freeze_count())\n",
    )
    assert out.split() == ["0", "True"]


def test_the_cli_module_runs_as_a_script():
    """perfbench starts every command as `python -m workforecast.cli`."""
    assert _python("-m", "workforecast.cli", "--version").endswith(", version 0.1.0")


@pytest.mark.parametrize("command", ["synth", "validate", "features", "performance", "figures"])
def test_commands_without_arithmetic_never_load_numpy(quickstart, command):
    """Without least-squares arithmetic (`synth` draws from the standard library's `random`), and without statistics."""
    assert _python("-c", RUN_COMMAND, *quickstart_args(command, quickstart)) == "False False"


@pytest.mark.parametrize("command, statistics", [("fit", False), ("evaluate", True)])
def test_least_squares_on_the_quick_start_loads_no_numpy(quickstart, command, statistics):
    """`fit` and `evaluate` solve the quick-start's 14 rows, and its 13-row folds, in pure Python.

    Only `evaluate` loads statistics, to summarize its errors.
    """
    assert _python("-c", RUN_COMMAND, *quickstart_args(command, quickstart)) == f"False {statistics}"


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    """`features.csv` and `performance.csv` of a synth panel with more rows than `evaluate.NUMPY_ROWS`."""
    root = tmp_path_factory.mktemp("panel")
    regions = evaluate.NUMPY_ROWS // 19 + 1  # 19 feature rows per region over 2001-2020
    stats = [arg for name in ("employment", "unemployment", "population") for arg in (f"--{name}", str(root / f"{name}.csv"))]
    for args in (["synth", "--out", str(root), "--regions", str(regions), "--years", "2001:2020", "--noise-sd", "0.02"],
                 ["features", *stats, "--out", str(root / "features.csv")]):
        result = CliRunner().invoke(cli, args, env={"WF_NO_COLOR": "1"}, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    return root


def test_evaluate_loads_numpy_and_statistics(panel, tmp_path):
    """Positive control: above `evaluate.NUMPY_ROWS` rows the refits run on numpy arrays, and the check sees it."""
    args = ["evaluate", "--features", str(panel / "features.csv"), "--performance", str(panel / "performance.csv"),
            "--out", str(tmp_path / "report.json")]
    assert _python("-c", RUN_COMMAND, *args) == "True True"
