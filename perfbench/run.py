#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload record-fft16 --seed 1 --seconds 20 --trace 0

It builds the Go program in perfbench/ against the checkout's module,
keeping the Go build cache and every other file it writes under
.bench_build/, then runs it with the same arguments. The program prints
its metrics and, as the last line, one JSON result. Exit status is non-zero
if the build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOFLAGS": "-mod=mod -buildvcs=false",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def run(cmd, cwd, timeout, env=None):
    """Run cmd to completion; kill it and wait if it overruns."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} exceeded {timeout}s", file=sys.stderr)
        return 1


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod here; run from the root of a checkout", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    code = run(["go", "build", "-o", BINARY, "."], HERE, BUILD_TIMEOUT_S, go_env())
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    return run([BINARY, "--out", BUILD] + sys.argv[1:], ROOT, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
