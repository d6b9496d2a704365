"""Benchmark of the workforecast CLI pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload panel --seed 1 --seconds 35 --trace 0

Run from the root of a workforecast checkout; the package need not be
installed. With --trace 0 the workload's CLI commands run as separate
`python -m workforecast.cli` processes, one at a time, in passes repeated
until --seconds is spent, and the end-to-end metrics are reported, their
times scaled to a reference host speed (CALIBRATION_REF_S below). With
--trace 1 the same commands are replayed in-process by replay.py, in traced
and untraced passes, and the per-layer metrics are reported. Either way the
outputs are checked against independent oracles, and the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A full record of the run goes to .bench_work/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import checks
from replay import COUNT_NAMES, RSS
from workloads import ROOT, SIZES, SRC, WORK, commands, prepare_inputs

PYTHON = sys.executable
CLI = [PYTHON, "-m", "workforecast.cli"]
LAUNCH = "sys.executable -m workforecast.cli with PYTHONPATH=src (the package is not installed)"
ENV = {**os.environ, "PYTHONPATH": str(SRC), "WF_NO_COLOR": "1"}
IMPORT_TIMER = "import time; t = time.perf_counter(); import workforecast.cli; print(time.perf_counter() - t)"
START_SPAWNS = 7  # fresh processes per start-up measurement of a traced run; their median is reported
SETUP_PER_PASS = 2  # setup_s samples taken at the start of every end-to-end pass
DEADLINE_S = 170  # the run is abandoned, children killed, past this many seconds
# End-to-end times are reported at a fixed host speed: a child's wall time is
# multiplied by this over the mean time of the reference processes run just
# before and just after it (see launcher.py). 0.2 s is about the reference's time on the 2-CPU Xeon
# the benchmark was written on, so the figures read close to wall seconds there.
CALIBRATION_REF_S = 0.2


class Stopped(Exception):
    """The run ran out of time or was terminated; children are killed on the way out."""


def _on_alarm(signum, frame):
    raise Stopped(f"run exceeded {DEADLINE_S} s")


def _on_term(signum, frame):
    raise Stopped("terminated")


class Launcher:
    """Spawns every child through launcher.py, so a child's peak RSS is not floored at this process's."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([PYTHON, str(Path(__file__).with_name("launcher.py"))], env=ENV,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.floor_rss_mb = 0.0

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, kind, value, traceback) -> None:
        if kind is None:
            self.proc.stdin.close()
        else:
            self.proc.terminate()  # the launcher kills its running child before it exits
        self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, argv: list[str], cwd: Path, stdout: Path | None = None) -> tuple[float, float, int, float]:
        """Run one child to completion.

        Returns wall seconds from spawn to exit, the same scaled to the
        reference host speed, the exit code and the peak RSS in MB.
        """
        log = WORK / "child_stderr.txt"
        request = {"argv": argv, "cwd": str(cwd), "stdout": stdout and str(stdout), "stderr": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise Stopped(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        self.floor_rss_mb = reply["floor_kb"] / 1024
        if reply["code"] != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            print(f"  exit {reply['code']}: {' '.join(argv[3:5])}: {' '.join(tail)}", file=sys.stderr)
        scaled = reply["elapsed_s"] * CALIBRATION_REF_S / statistics.mean(reply["reference_s"])
        return reply["elapsed_s"], scaled, reply["code"], reply["maxrss_kb"] / 1024


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def repeat(seconds: float, step) -> list:
    """Call `step` until the next call would end after `seconds`; at least once."""
    started = time.monotonic()
    results = [step()]
    while time.monotonic() - started + (time.monotonic() - started) / len(results) <= seconds:
        results.append(step())
    return results


def tally(command_codes: list[int], results: list[tuple[str, str | None]]) -> tuple[int, int]:
    """(attempted, failed) over every command run and every check made."""
    attempted = len(command_codes) + len(results)
    failed = sum(code != 0 for code in command_codes) + sum(reason is not None for _, reason in results)
    return attempted, failed


def identity_checks(digests: list[dict]) -> list[tuple[str, str | None]]:
    """Each pass's output files against the first pass's, by SHA-256."""
    results = []
    for i, later in enumerate(digests[1:], start=2):
        changed = sorted(k for k in set(digests[0]) | set(later) if digests[0].get(k) != later.get(k))
        results.append((f"byte_identity_pass{i}", f"differs from pass 1: {changed}" if changed else None))
    return results


def start_times(spawn, argv: list[str], cwd: Path) -> tuple[list[float], list[int]]:
    samples = [spawn(argv, cwd) for _ in range(START_SPAWNS)]
    return [s for s, _, _, _ in samples], [code for _, _, code, _ in samples]


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)
# ---------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, inputs: Path, spawn) -> dict:
    out = WORK / "runs" / workload
    argvs = commands(workload, inputs, seed)

    def one_pass() -> dict:
        fresh_dir(out)
        started = [spawn([PYTHON, "-c", "import workforecast.cli"], out) for _ in range(SETUP_PER_PASS)]
        timed = [spawn(CLI + argv, out) for argv in argvs]
        return {"setup_s": [scaled for _, scaled, _, _ in started],
                "setup_wall_s": [s for s, _, _, _ in started],
                "pipeline_s": sum(scaled for _, scaled, _, _ in timed),
                "pipeline_wall_s": sum(s for s, _, _, _ in timed),
                "command_s": [s for s, _, _, _ in timed],
                "peak_rss_mb": max(rss for _, _, _, rss in timed),
                "codes": [code for _, _, code, _ in started + timed],
                "digests": checks.digests(out)}

    passes = repeat(seconds, one_pass)
    results = checks.run_checks(workload, out, inputs) + identity_checks([p["digests"] for p in passes])
    codes = [code for p in passes for code in p["codes"]]
    pipeline = [p["pipeline_s"] for p in passes]
    setup = [s for p in passes for s in p["setup_s"]]
    wall = {"pipeline_wall_s": [p["pipeline_wall_s"] for p in passes],
            "setup_wall_s": [s for p in passes for s in p["setup_wall_s"]]}
    return {
        "metrics": {
            "pipeline_s": statistics.median(pipeline),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        },
        "samples": {"pipeline_s": pipeline, "setup_s": setup, **wall,
                    "command_s": [p["command_s"] for p in passes],
                    "peak_rss_mb": [p["peak_rss_mb"] for p in passes]},
        "codes": codes,
        "checks": results,
    }


# ---------------------------------------------------------------------------
# traced run: in-process replay, spans around every layer call
# ---------------------------------------------------------------------------

def layer_values(result: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass: seconds, self seconds and calls per span name."""
    values: dict[str, float] = defaultdict(float)
    for name in result["traced"]:
        values[f"{name}_s"] = values[f"{name}_self_s"] = values[f"{name}_calls"] = 0
    values.update({f"{name}_rss_mb": 0 for name in RSS})
    spans = result["spans"]
    child_s = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        name, duration = span["name"], span["end"] - span["start"]
        values[f"{name}_s"] += duration
        values[f"{name}_self_s"] += duration - child_s[span["id"]]
        values[f"{name}_calls"] += 1
        if "rss_mb" in span:
            values[f"{name}_rss_mb"] = max(values[f"{name}_rss_mb"], span["rss_mb"])
    values.update(result["counts"])
    return values


def traced(workload: str, seed: int, seconds: float, inputs: Path, spawn) -> dict:
    out = WORK / "runs" / f"{workload}-replay"
    interpreter, codes = start_times(spawn, [PYTHON, "-c", "pass"], fresh_dir(out))
    import_s = []
    for _ in range(START_SPAWNS):
        _, _, code, _ = spawn([PYTHON, "-c", IMPORT_TIMER], out, stdout=WORK / "import_s.txt")
        codes.append(code)
        if code == 0:
            import_s.append(float((WORK / "import_s.txt").read_text()))
    passes: dict[int, list[dict]] = {0: [], 1: []}
    digests = []

    def replay(trace: int) -> None:
        fresh_dir(out)
        stdout = WORK / "replay_stdout.txt"
        _, _, code, _ = spawn([PYTHON, str(Path(__file__).with_name("replay.py")), "--workload", workload,
                               "--seed", str(seed), "--inputs", str(inputs), "--trace", str(trace)],
                              out, stdout=stdout)
        codes.append(code)
        if code == 0:
            result = json.loads(stdout.read_text().splitlines()[-1])
            for span in result.get("spans", ()):
                span["run"] = len(passes[trace])
            codes.extend(result["codes"])
            passes[trace].append(result)
            digests.append(checks.digests(out))

    def pair() -> None:
        replay(0)
        replay(1)

    repeat(seconds, pair)
    results = checks.run_checks(workload, out, inputs) + identity_checks(digests)
    if not passes[1] or not passes[0] or not import_s:
        return {"metrics": {}, "codes": codes, "checks": results + [("replay", "no traced pass completed")]}

    per_pass = [layer_values(p) for p in passes[1]]
    counted = ["cli.processes", "model.fit_calls", *COUNT_NAMES]
    for values in per_pass:
        values["cli.processes"] = len(commands(workload, inputs, seed))
    repeated = all(all(v[k] == per_pass[0][k] for k in counted) for v in per_pass)
    results.append(("counts_repeat", None if repeated else "counts differ between traced passes"))
    expected_fits = per_pass[0]["evaluate.folds"] + 1
    results.append(("fit_calls", None if per_pass[0]["model.fit_calls"] == expected_fits else
                    f"model.fit_calls {per_pass[0]['model.fit_calls']} != {expected_fits} "
                    f"(one per fold plus one for the fit command)"))
    metrics = {key: statistics.median(v[key] for v in per_pass) for key in per_pass[0]}
    metrics.update({
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_s": statistics.median(import_s),
        "trace.overhead_s": statistics.median(p["total_s"] for p in passes[1])
        - statistics.median(p["total_s"] for p in passes[0]),
    })
    spans = WORK / "traces" / f"{workload}-{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    with open(spans, "w", encoding="utf-8") as fh:
        for p in passes[1]:
            fh.writelines(json.dumps(span) + "\n" for span in p["spans"])
    return {"metrics": metrics, "codes": codes, "checks": results, "spans_file": str(spans),
            "samples": {"traced_total_s": [p["total_s"] for p in passes[1]],
                        "untraced_total_s": [p["total_s"] for p in passes[0]],
                        "layers": per_pass}}


# ---------------------------------------------------------------------------
# the run record
# ---------------------------------------------------------------------------

def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    versions = {}
    for package in ("numpy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), **versions}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def percentile_line(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if there are enough samples."""
    n = len(samples)
    if n <= 10:
        return f"n={n}, too few samples for a percentile with ten beyond it"
    return f"p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.4f}, n={n}"


def measure(workload: str, seed: int, seconds: float, trace: int, sizes: dict = SIZES) -> dict:
    """One benchmark run: the full record, with the metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    inputs = prepare_inputs(workload, seed, sizes)
    with Launcher() as launcher:
        run = (traced if trace else end_to_end)(workload, seed, seconds, inputs, launcher.spawn)
    attempted, failed = tally(run["codes"], run["checks"])
    missing = [m["name"] for m in wanted if m["name"] not in run["metrics"]]
    if missing and not failed:
        raise KeyError(f"metrics not measured: {missing}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes[workload], "launch": LAUNCH,
        "child_rss_floor_mb": launcher.floor_rss_mb, "git_commit": git_commit(), "machine": machine(),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "checks": run["checks"], "samples": run.get("samples"), "spans_file": run.get("spans_file"),
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in run["metrics"]},
    }
    results = WORK / "results" / f"{workload}-{seed}-trace{trace}.json"
    results.parent.mkdir(exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n")
    record["record_file"] = str(results)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "workforecast" / "cli.py").is_file():
        print(f"error: {SRC / 'workforecast'} not found; run from a workforecast checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(DEADLINE_S)
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except Stopped as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    facts = record["machine"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{facts['nproc']} CPUs ({facts['cpu_model']}), Python {facts['python']}, "
          f"numpy {facts['numpy']}, click {facts['click']}; {LAUNCH}")
    for name, metric in record["metrics"].items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace and record["samples"]:
        samples = record["samples"]
        print(f"  pipeline_s samples: {percentile_line(samples['pipeline_s'])}")
        print(f"  unscaled wall time: pipeline median {statistics.median(samples['pipeline_wall_s']):.4f} s "
              f"({percentile_line(samples['pipeline_wall_s'])}), "
              f"setup median {statistics.median(samples['setup_wall_s']):.4f} s")
    print(f"  fail_ratio {record['failed']}/{record['attempted']} = {record['fail_ratio']:.4g} ratio")
    for name, reason in record["checks"]:
        if reason is not None:
            print(f"  FAILED {name}: {reason}")
    print(f"  record: {record['record_file']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
