"""Start-up: importing the CLI executes no module of the package but its `__init__`, and each command
executes only the layers it uses; importing the CLI loads none of numpy, calendar, json or statistics,
nor click or the standard modules that click loaded (inspect, uuid, platform, locale),
no quick-start command loads numpy (`fit` solves lists in pure Python, and so does `evaluate` up to
`evaluate.NUMPY_ROWS` rows), no command loads `statistics`, only commands that read or write JSON load
`json`, importing the CLI leaves the caller's collector state as it was and freezes nothing, the heap is
frozen at exit, and numpy's BLAS runs on one thread unless the user set
`OPENBLAS_NUM_THREADS`, so a long fit's bits do not depend on the CPU count.

The test process has numpy loaded already, so every check runs in a fresh
interpreter with PYTHONPATH pointing at the source tree.
"""
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import workforecast.cli
from workforecast import errors, evaluate, ingest

from helpers import invoke, quickstart_args

SRC = Path(__file__).resolve().parents[1] / "src"
RUN = "import sys, types\nfrom workforecast.cli import cli\ncli.main(sys.argv[1:])\n"
RUN_COMMAND = RUN + "print('numpy' in sys.modules, 'statistics' in sys.modules)\n"
RUN_JSON = RUN + "print('json' in sys.modules)\n"
# The package modules a process has executed, by short name and without `cli`: a module bound by the CLI
# but not yet executed is an instance of a subclass of `types.ModuleType`.
EXECUTED = ("print(*sorted(name.split('.')[1] for name, module in sys.modules.items() if name.startswith('workforecast.')"
            " and name != 'workforecast.cli' and type(module) is types.ModuleType))\n")
LAYERS = {"errors_mod": "errors", "evaluate_mod": "evaluate", "features_mod": "features", "ingest_mod": "ingest",
          "jsonio": "jsonio", "model_mod": "model", "perf_mod": "perf", "report_mod": "report", "synth_mod": "synth"}


def _python(*argv: str, blas_threads: str | None = None) -> str:
    """The stdout of a fresh interpreter, with `OPENBLAS_NUM_THREADS` set to `blas_threads` or unset."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "WF_NO_COLOR": "1"}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    result = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_package_and_the_cli_loads_no_numpy():
    """Nor calendar, which only the window rule needs, on first use, nor json, which only `jsonio` imports, nor
    statistics, which no command needs.
    """
    out = _python(
        "-c",
        "import sys\n"
        "import workforecast.cli\n"
        "print(*(name in sys.modules for name in ('numpy', 'calendar', 'json', 'statistics')))\n",
    )
    assert out == "False False False False"


def test_importing_the_cli_loads_no_click_and_none_of_what_it_brought():
    """click took about 23 ms of each process's start-up: `inspect`, `uuid` and `platform` were the largest parts.

    Nor locale: argparse loads gettext, which imports it only at the first message a command's parser translates.
    """
    out = _python(
        "-c",
        "import sys\n"
        "import workforecast.cli\n"
        "print(*(name in sys.modules for name in ('click', 'inspect', 'uuid', 'platform', 'locale', 'argparse')))\n",
    )
    assert out == "False False False False False True"


def test_importing_the_cli_executes_no_module_of_the_package_but_its_init():
    """Every layer is bound unexecuted; the option vocabulary the decorators read lives in the package root."""
    out = _python("-c", "import sys, types\nimport workforecast.cli\n" + EXECUTED + "print('end')\n")
    assert out == "end"


COMMAND_LAYERS = {
    "validate": "errors ingest",
    "features": "errors features ingest",
    "performance": "errors ingest perf",
    "synth": "errors features ingest jsonio perf synth",
    "fit": "errors evaluate features ingest jsonio model perf",
    "evaluate": "errors evaluate features ingest jsonio model perf",
    "figures": "errors evaluate features ingest jsonio model perf report",
}


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_each_command_executes_exactly_its_layers(quickstart, command):
    assert _python("-c", RUN + EXECUTED, *quickstart_args(command, quickstart)) == COMMAND_LAYERS[command]


def test_the_cli_binds_each_layer_as_the_module_in_sys_modules():
    """perfbench's tracer finds the layers as module objects among the CLI's attributes and swaps them for proxies.

    In this process the layers were imported, and executed, before or after the CLI; either way each attribute
    is the one module object of its name.
    """
    bound = {name: value for name, value in vars(workforecast.cli).items() if isinstance(value, types.ModuleType)}
    assert {name: value.__name__ for name, value in bound.items() if name in LAYERS} == {
        name: f"workforecast.{layer}" for name, layer in LAYERS.items()}
    for name, layer in LAYERS.items():
        assert bound[name] is sys.modules[f"workforecast.{layer}"]


def test_a_layer_imported_before_or_after_the_cli_is_the_one_it_binds():
    """A second module object would split classes and monkeypatches. Imported after the CLI, before any of its
    attributes is read, a layer is also the package's attribute, as an import makes it."""
    code = (
        "import sys, types\n"
        "import workforecast.model as model\n"
        "import workforecast.cli as cli\n"
        "import workforecast.synth\n"
        "print(cli.model_mod is model, workforecast.synth is cli.synth_mod,\n"
        "      all(isinstance(getattr(cli, name), types.ModuleType)\n"
        "          and getattr(cli, name) is sys.modules['workforecast.' + layer] for name, layer in LAYERS.items()))\n"
    )
    assert _python("-c", f"LAYERS = {LAYERS!r}\n" + code) == "True True True"


def test_a_monkeypatched_layer_reaches_the_command(quickstart, monkeypatch):
    def refuse(*args):
        raise errors.InvalidConfig("patched")

    monkeypatch.setattr(ingest, "parse_regional_series", refuse)
    result = invoke(quickstart_args("features", quickstart), env={"WF_NO_COLOR": "1"})
    assert (result.exit_code, result.output) == (1, "ERROR InvalidConfig: patched\n")


def test_an_assignment_to_an_unexecuted_layer_survives_its_execution(quickstart):
    code = (
        "import sys\n"
        "from workforecast.cli import cli, perf_mod\n"
        "perf_mod.write_performance_csv = lambda rows, out: print('patched', type(rows).__name__)\n"
        "cli.main(sys.argv[1:])\n"
    )
    assert _python("-c", code, *quickstart_args("performance", quickstart)) == "patched list"


def test_a_json_file_loads_json(quickstart):
    """Positive control for the check below: `fit` writes model.json."""
    assert _python("-c", RUN_JSON, *quickstart_args("fit", quickstart)) == "True"


@pytest.mark.parametrize("command", ["features", "performance", "validate"])
def test_commands_without_json_files_never_load_json(quickstart, command):
    assert _python("-c", RUN_JSON, *quickstart_args(command, quickstart)) == "False"


@pytest.mark.parametrize("enabled", [True, False])
def test_importing_the_cli_leaves_the_collector_as_it_found_it(enabled):
    out = _python(
        "-c",
        "import gc\n"
        f"gc.enable() if {enabled} else gc.disable()\n"
        "import workforecast.cli\n"
        "print(gc.isenabled())\n",
    )
    assert out == str(enabled)


def test_importing_the_cli_freezes_nothing_but_its_exit_hook_freezes_the_heap():
    """The import leaves the heap under the collector. The CLI's exit hook, registered after this one, runs before
    it, so this one sees the objects made after the import frozen."""
    out = _python(
        "-c",
        "import atexit, gc\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > after_import))\n"
        "before_import = gc.get_freeze_count()\n"
        "import workforecast.cli\n"
        "after_import = gc.get_freeze_count()\n"
        "made_after_import = [[] for _ in range(1000)]\n"
        "print(after_import == before_import)\n",
    )
    assert out.split() == ["True", "True"]


def test_the_cli_module_runs_as_a_script():
    """perfbench starts every command as `python -m workforecast.cli`."""
    assert _python("-m", "workforecast.cli", "--version").endswith(", version 0.1.0")


@pytest.mark.parametrize("command", ["synth", "validate", "features", "performance", "figures"])
def test_commands_without_arithmetic_never_load_numpy(quickstart, command):
    """Without least-squares arithmetic (`synth` draws from the standard library's `random`), and without statistics."""
    assert _python("-c", RUN_COMMAND, *quickstart_args(command, quickstart)) == "False False"


@pytest.mark.parametrize("command, statistics", [("fit", False), ("evaluate", False)])
def test_least_squares_on_the_quick_start_loads_no_numpy(quickstart, command, statistics):
    """`fit` and `evaluate` solve the quick-start's 14 rows, and its 13-row folds, in pure Python.

    Nor does `evaluate` load statistics: it summarizes its errors with `math` and integers.
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
        result = invoke(args, env={"WF_NO_COLOR": "1"}, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    return root


def test_evaluate_loads_numpy_but_not_statistics(panel, tmp_path):
    """Positive control: above `evaluate.NUMPY_ROWS` rows the refits run on numpy arrays, and the check sees it.

    statistics stays unloaded even on this path, which numpy's import does not bring in.
    """
    args = ["evaluate", "--features", str(panel / "features.csv"), "--performance", str(panel / "performance.csv"),
            "--out", str(tmp_path / "report.json")]
    assert _python("-c", RUN_COMMAND, *args) == "True False"


@pytest.mark.parametrize("threads, expected", [(None, "1"), ("3", "3")])
def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise(threads, expected):
    """Set on import, before numpy loads; a value the user set is kept."""
    code = "import os, workforecast.cli, numpy\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
    assert _python("-c", code, blas_threads=threads) == expected


def test_a_fit_long_enough_for_blas_threads_gives_the_bits_of_one_thread():
    """Above about 10,000 rows OpenBLAS would split `fit`'s dot products across threads, changing their sums."""
    fit_code = (
        "import numpy as np\n"
        "from workforecast.model import fit\n"
        "rng = np.random.default_rng(5)\n"
        "x = np.ones((11_599, 3))\n"
        "x[:, 1:] = rng.normal(0.0, 0.3, size=(11_599, 2))\n"
        "y = 0.4 + 1.2 * x[:, 1] - 0.8 * x[:, 2] + rng.normal(0.0, 0.02, size=11_599)\n"
        "fitted = fit(x, y)\n"
        "print(*(value.hex() for value in (fitted.intercept, fitted.coef_demand, fitted.coef_supply, fitted.rss)))\n"
    )
    through_the_cli = _python("-c", "import workforecast.cli\n" + fit_code)
    assert through_the_cli == _python("-c", fit_code, blas_threads="1")
