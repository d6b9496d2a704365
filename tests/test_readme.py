"""README.md as a test: its quick-start runs, its copies of that sequence agree, and the names it quotes exist.

The quick-start `sh` block is run line by line in a temporary directory, each
`workforecast` replaced by `python -m workforecast.cli` (the package need not
be installed). Two other copies of the sequence must match the block but for
`--seed`: `helpers.QUICKSTART_OPTIONS`, which the start-up and error tests
run, and the `quickstart` workload of `perfbench/workloads.py`, which is read
here and not changed. Every backticked `module.name` whose module is one of
`workforecast`'s must be an attribute of it, and every `ERROR <Code>` a class
of `workforecast.errors`. perfbench/README.md is outside this guard.
"""
from __future__ import annotations

import importlib
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

from workforecast import errors

from helpers import QUICKSTART_OPTIONS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(path.stem for path in (ROOT / "src" / "workforecast").glob("*.py") if path.stem != "__init__")
FILE_SUFFIXES = {"csv", "json", "md", "py", "tmp", "toml"}
OUTPUT_OPTIONS = {"--out", "--model"}


def _quickstart() -> list[list[str]]:
    """The argument lists of the quick-start block, `workforecast` dropped, continuation lines joined."""
    section = README.split("## Quick start", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert commands and all(command[0] == "workforecast" for command in commands), block
    return [command[1:] for command in commands]


def _options(args: list[str]) -> list[tuple[str, str]]:
    """(flag, value) pairs of a command's arguments, the subcommand first left out."""
    assert len(args) % 2 == 1, args
    return list(zip(args[1::2], args[2::2]))


def _without_seed(args: list[str]) -> list[str]:
    return [args[0], *(arg for flag, value in _options(args) if flag != "--seed" for arg in (flag, value))]


def test_the_quickstart_block_runs_and_writes_every_output_it_names(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "WF_NO_COLOR": "1"}
    outputs = []
    for args in _quickstart():
        result = subprocess.run([sys.executable, "-m", "workforecast.cli", *args], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (args, result.stderr)
        outputs += [value for flag, value in _options(args) if flag in OUTPUT_OPTIONS]
    synth_out = _options(_quickstart()[0])[0][1]
    figures_out = outputs[-1]
    named = [Path(synth_out) / "truth.json", *(Path(figures_out) / name
                                                for name in sorted(set(re.findall(r"fig\d_[a-z]+\.csv", README))))]
    assert len(named) == 5  # truth.json and the four figures
    for output in [*outputs, *named]:
        assert (tmp_path / output).exists(), output
    for flag, value in _options(_quickstart()[-1]):
        if flag not in OUTPUT_OPTIONS:
            assert (tmp_path / value).is_file(), value  # the inputs of the last command, outputs of earlier ones


def test_helpers_quickstart_options_match_the_block_but_for_the_seed():
    """The same options in the same order; inputs by the same file name, outputs renamed `out_*` there."""
    for args in _quickstart():
        options = _options(_without_seed(args))
        expected = QUICKSTART_OPTIONS[args[0]]
        assert [flag for flag, _ in options] == [flag for flag, _ in expected], args
        for (flag, value), (_, name) in zip(options, expected):
            assert name.startswith("out_") if flag in OUTPUT_OPTIONS else Path(value).name == name, (flag, value)


def _perfbench_workloads() -> types.ModuleType:
    """perfbench/workloads.py as a module, read from its source so that no bytecode is written next to it."""
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_perfbench_quickstart_commands_match_the_block_but_for_the_seed():
    block = _quickstart()
    commands = _perfbench_workloads().commands("quickstart", Path("unused"), 1234)
    assert [_without_seed(command) for command in commands] == [_without_seed(args) for args in block]
    assert ("--seed", "1234") in _options(commands[0]) and "--seed" in dict(_options(block[0]))


def _quoted_names() -> list[tuple[str, str]]:
    return sorted({
        (module, name)
        for module, name in re.findall(r"`(?:workforecast\.)?([a-z_]+)\.([A-Za-z_][A-Za-z0-9_]*)`", README)
        if module in MODULES and name not in FILE_SUFFIXES
    })


def test_the_readme_quotes_names_of_the_package():
    assert {("evaluate", "by_region"), ("synth", "SynthConfig")} <= set(_quoted_names())


@pytest.mark.parametrize("module, name", _quoted_names(), ids=lambda value: value)
def test_every_quoted_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"workforecast.{module}"), name), f"{module}.{name}"


@pytest.mark.parametrize("code", sorted(set(re.findall(r"ERROR ([A-Z][A-Za-z]+)", README))))
def test_every_error_code_in_the_readme_is_an_error_class(code):
    assert isinstance(getattr(errors, code, None), type) and issubclass(getattr(errors, code), errors.DataError)
