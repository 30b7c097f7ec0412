#!/usr/bin/env python3
"""HSIS benchmark entry point.

    python3 perfbench/run.py --workload table1|scaled|serve|batch \\
        --seed N --seconds S --trace 0|1

Builds the benchmark program (hsis_perf) and the hsis_serve daemon from this
checkout's sources into .bench_build/perfbench (CMake, Release), then runs
one workload in its own process. hsis_perf prints a report and, as the last
line of standard output, one JSON result; the exit code is nonzero when any
job failed. See perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("table1", "scaled", "serve", "batch")
RUN_TIMEOUT_S = 170


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def build(here: Path, out: Path) -> bool:
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(here), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "hsis_perf",
                  "hsis_serve", "-j", jobs])
    with open(out / "build.log", "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return True
    tail = (out / "build.log").read_text().splitlines()[-20:]
    print("perfbench: build failed:\n" + "\n".join(tail), file=sys.stderr)
    return False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "CMakeLists.txt").is_file() or not (root / "models").is_dir():
        print("perfbench: no HSIS sources (src/, models/) beside perfbench/",
              file=sys.stderr)
        return 2
    out = root / ".bench_build" / "perfbench"
    if not build(here, out):
        return 2

    work = out / "run"
    work.mkdir(exist_ok=True)
    env = dict(os.environ, HSIS_GIT_SHA=git_sha(root))
    cmd = [str(out / "hsis_perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--models", str(root / "models"),
           "--serve-bin", str(out / "tools" / "hsis_serve")]
    # Own process group: the daemon hsis_perf starts is in it too, so a
    # timeout stops every process of the run.
    proc = subprocess.Popen(cmd, cwd=work, env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        rc = 3
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return rc


if __name__ == "__main__":
    sys.exit(main())
