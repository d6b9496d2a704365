"""Start-up: importing one module loads no other stage, and commands that do
no arithmetic run without loading numpy.

The test process has numpy loaded already, so every check runs in a fresh
interpreter with PYTHONPATH pointing at the source tree.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import quickstart_args

SRC = Path(__file__).resolve().parents[1] / "src"
RUN_COMMAND = (
    "import sys\n"
    "from workforecast.cli import cli\n"
    "cli.main(sys.argv[1:], standalone_mode=False)\n"
    "print('numpy' in sys.modules)\n"
)


def _python(*argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "WF_NO_COLOR": "1"}
    result = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_package_and_the_cli_loads_no_numpy():
    out = _python(
        "-c",
        "import sys, workforecast.jsonio\n"
        "stage_loaded = 'workforecast.evaluate' in sys.modules\n"
        "import workforecast.cli\n"
        "print('numpy' in sys.modules, stage_loaded)\n",
    )
    assert out == "False False"


def test_the_cli_module_runs_as_a_script():
    """perfbench starts every command as `python -m workforecast.cli`."""
    assert _python("-m", "workforecast.cli", "--version").endswith(", version 0.1.0")


@pytest.mark.parametrize("command", ["validate", "features", "performance", "figures"])
def test_commands_without_arithmetic_never_load_numpy(quickstart, command):
    assert _python("-c", RUN_COMMAND, *quickstart_args(command, quickstart)) == "False"


def test_fit_loads_numpy(quickstart):
    """Positive control: the check sees numpy when a command does load it."""
    assert _python("-c", RUN_COMMAND, *quickstart_args("fit", quickstart)) == "True"
