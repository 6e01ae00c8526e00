#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload replay-eng --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/main.exe with dune,
then runs it with the given arguments; its last line of output is the JSON
result.  Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """Run [cmd] to completion; on timeout, kill it and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    try:
        code = run(["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
                   BUILD_TIMEOUT_S, stdout=sys.stderr)
    except FileNotFoundError:
        print("perfbench: dune is not installed", file=sys.stderr)
        return 2
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # The runtime-events ring of a traced run is a file; keep it in the
    # build directory.
    events = os.path.join(ROOT, "_build", "perfbench-events")
    os.makedirs(events, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events)
    sys.stdout.flush()
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
