"""Commands that do no arithmetic run without loading numpy.

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


def _python(code: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "WF_NO_COLOR": "1"}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_package_and_the_cli_loads_no_numpy():
    out = _python(
        "import sys, workforecast, workforecast.cli\n"
        "unresolved = [name for name in workforecast.__all__ if not hasattr(workforecast, name)]\n"
        "print('numpy' in sys.modules, unresolved)\n"
    )
    assert out == "False []"


@pytest.mark.parametrize("command", ["validate", "features", "performance", "figures"])
def test_commands_without_arithmetic_never_load_numpy(quickstart, command):
    assert _python(RUN_COMMAND, *quickstart_args(command, quickstart)) == "False"


def test_fit_loads_numpy(quickstart):
    """Positive control: the check sees numpy when a command does load it."""
    assert _python(RUN_COMMAND, *quickstart_args("fit", quickstart)) == "True"
