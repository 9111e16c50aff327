#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper|fleet-day|serve \
        --seed N --seconds S --trace 0|1

The Go program in this directory is built from the checkout's sources into
.bench_build/ (the Go build cache lives there too, so nothing outside the
checkout is written), then run from the checkout root. Its last line of
standard output is the JSON result. The exit code is the program's; a failed
build exits 1 without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

# A run must end within 180 s; the program stops measuring after --seconds
# (at most 60), so this only bounds a hung run.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def go_env():
    env = dict(os.environ)
    for key, sub in (
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=mod", GOTELEMETRY="off")
    return env


def main():
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE,
            env=go_env(),
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "-state-dir", BUILD] + sys.argv[1:]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
