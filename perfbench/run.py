#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload forest-exact --seed 1 --seconds 20 --trace 0

The Go build cache, the binary and the result files all live under
.bench_build/ in the working directory (CARGO_TARGET_DIR names it when set),
so the benchmark writes nothing outside the checkout. A failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    tmp = "%s.%d" % (binary, os.getpid())
    built = subprocess.run(["go", "build", "-o", tmp, "."], cwd=bench, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    os.replace(tmp, binary)
    out = os.path.join(build, "results")
    return subprocess.run([binary, "-out", out] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
