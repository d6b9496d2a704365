"""Spawn run.py's child processes one at a time, from a process that stays small.

    python3 perfbench/launcher.py

On Linux a child's ru_maxrss includes the peak RSS of the process that
spawned it (exec folds the old address space's high-water mark into the
child's), so children spawned by run.py itself, which has imported numpy and
built inputs, would report run.py's peak as their own. This process imports
nothing heavy, so the floor it adds is that of a bare interpreter.

Reads one JSON request per line from stdin, {"argv", "cwd", "stdout",
"stderr"} (paths; stdout may be null), runs it to completion with the
inherited environment, and answers with one JSON line {"elapsed_s", "code",
"maxrss_kb", "floor_kb", "reference_s"}. floor_kb is this process's own peak
RSS (VmHWM), the least any child's maxrss can read. reference_s holds the
wall times of a reference process, `python -c "import numpy"`, run just
before and just after the child (the one after a child is the one before
the next). The shared host this benchmark runs on changes speed by 20-40%
from one half-minute to the next, and process start-up and imports slow
down more than pure arithmetic does; the reference does the same kind of
work as the program but none of the program's own code, so run.py can
divide the host's speed at that moment out of the child's time. Exits at
end of input; on SIGTERM it kills the running child, waits for it and
exits.
"""
import json
import os
import signal
import subprocess
import sys
import time


def peak_rss_kb() -> int:
    """This address space's high-water RSS; unlike RUSAGE_SELF it excludes the parent's."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


REFERENCE = [sys.executable, "-c", "import numpy"]


def wait_child(argv: list[str], cwd: str, out, err) -> tuple[float, int, int]:
    """Run argv to completion: (wall seconds from spawn to exit, exit code, peak RSS in kB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def reference_s() -> float:
    elapsed, code, _ = wait_child(REFERENCE, ".", subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise SystemExit(f"reference process {REFERENCE} exited {code}")
    return elapsed


def run(request: dict) -> dict:
    with open(request["stderr"], "wb") as err, open(request["stdout"] or os.devnull, "wb") as out:
        elapsed, code, maxrss = wait_child(request["argv"], request["cwd"], out, err)
    return {"elapsed_s": elapsed, "code": code, "maxrss_kb": maxrss, "floor_kb": peak_rss_kb()}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    before = None
    for line in sys.stdin:
        request = json.loads(line)
        before = before or reference_s()
        reply = run(request)
        after = reference_s()
        print(json.dumps({**reply, "reference_s": [before, after]}), flush=True)
        before = after


if __name__ == "__main__":
    main()
