"""Replay one workload pass in-process, optionally with spans around every layer call.

Run as a child of run.py, from the pass directory:

    python3 perfbench/replay.py --workload panel --seed 1 --inputs DIR --trace 1

Each CLI command of the pass is invoked through the click entry point in
this process, so the library calls are exactly those of the real commands.
With --trace 1, every public function of a layer module is wrapped where
another workforecast module calls it: the `*_mod` module references of
`cli` and the names other modules import with `from ... import`. Calls a
module makes to its own functions stay untraced. Spans are kept in memory;
the last line of stdout is one JSON object with the spans, the counts and
the pass's wall time.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import types
from collections import Counter
from pathlib import Path

from workloads import SRC, commands

LAYERS = ("ingest", "features", "perf", "model", "evaluate", "report", "synth")


def _figure_rows(paths: dict) -> int:
    """Data rows in the emitted figure files (header and comment lines excluded)."""
    total = 0
    for path in paths.values():
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for line in fh if not line.startswith("#")) - 1
    return total


COUNT_NAMES = ("ingest.stat_rows", "ingest.record_rows", "ingest.people", "features.rows",
               "evaluate.folds", "report.rows_written")

# Counts taken from a traced call's arguments and result, after its span ends.
COUNTS = {
    "ingest.parse_regional_series": lambda args, result: {
        "ingest.stat_rows": sum(len(series.years) for series in result.values())},
    "ingest.parse_programme_records": lambda args, result: {
        "ingest.people": len(result),
        "ingest.record_rows": sum(max(1, len(record.spells)) for record in result)},
    "features.build_features": lambda args, result: {"features.rows": len(result)},
    "evaluate.save_report_json": lambda args, result: {"evaluate.folds": len(args[0].folds)},
    "report.emit_figure_data": lambda args, result: {"report.rows_written": _figure_rows(result)},
}

# Calls whose peak resident memory is recorded, as MB added over the RSS at entry.
RSS = {"ingest.parse_programme_records"}


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """Spans (name, start, end, parent) and counts of one replayed pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts = Counter(dict.fromkeys(COUNT_NAMES, 0))
        self.names: set[str] = set()

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1] if self.stack else None}
        self.spans.append(span)
        self.stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn: types.FunctionType) -> types.FunctionType:
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        self.names.add(name)
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            rss = _rss_mb() if name in RSS else None
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if rss is not None:
                span["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - rss
            if count is not None:
                self.counts.update(count(args, result))
            return result

        return traced

    def install(self) -> None:
        """Route every cross-module call into a layer's public functions through `wrap`."""
        modules = [importlib.import_module(f"workforecast.{layer}") for layer in ("cli", *LAYERS)]
        layers = set(modules[1:])
        wrappers = {
            value: self.wrap(value)
            for module in layers
            for name, value in vars(module).items()
            if isinstance(value, types.FunctionType)
            and value.__module__ == module.__name__
            and not name.startswith("_")
        }
        for module in modules:
            for name, value in list(vars(module).items()):
                if isinstance(value, types.ModuleType) and value in layers:
                    setattr(module, name, _ModuleProxy(value, wrappers))
                elif isinstance(value, types.FunctionType) and value in wrappers \
                        and value.__module__ != module.__name__:
                    setattr(module, name, wrappers[value])


class _ModuleProxy:
    """Stands in for a module reference, handing out traced versions of its functions."""

    def __init__(self, module: types.ModuleType, wrappers: dict) -> None:
        self._module = module
        self._wrappers = wrappers

    def __getattr__(self, name: str):
        value = getattr(self._module, name)
        return self._wrappers.get(value, value) if isinstance(value, types.FunctionType) else value


def replay(workload: str, seed: int, inputs: Path, tracer: Tracer | None) -> dict:
    from workforecast.cli import cli

    codes = []
    total = 0.0
    for argv in commands(workload, inputs, seed):
        scope = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with scope, contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(args=argv, prog_name="workforecast", standalone_mode=False)
                codes.append(0)
            except SystemExit as exit_:
                codes.append(exit_.code)
        total += time.perf_counter() - start
    result = {"total_s": total, "codes": codes}
    if tracer:
        result.update(spans=tracer.spans, counts=dict(tracer.counts), traced=sorted(tracer.names))
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    print(json.dumps(replay(args.workload, args.seed, args.inputs, tracer)))


if __name__ == "__main__":
    main()
