#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, scratch files and traces all live under the
build directory: $CARGO_TARGET_DIR when set, else .bench_build in the
repository root. Every argument is passed on to the program, whose last
line of output is the JSON result. A failed build exits 2 without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    ran = subprocess.run([binary, "--root", ROOT, "--out", build] + sys.argv[1:], cwd=ROOT)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
