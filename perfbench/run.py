#!/usr/bin/env python3
"""Build the perfbench binary from the checkout's sources and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload sum-local --seed 1 --seconds 10 --trace 0

Every argument is passed to the binary. The Go build cache, the binary and
the trace files all live under the build directory inside the checkout
($CARGO_TARGET_DIR, default .bench_build), so nothing is written outside it.
A failed build exits non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go") or os.path.join(os.environ.get("GOROOT", ""), "bin", "go")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": tmp,
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
    })
    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as err:
        print("perfbench: cannot run the go toolchain: %s" % err, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
