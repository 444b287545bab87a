#!/usr/bin/env python3
"""Build the benchmark from source in this checkout and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload search-htr --seed 1 --seconds 10 --trace 0

Arguments are passed to the benchmark binary unchanged. Everything the
build and the run write (Go build cache, binary, spans, scratch stores)
stays under .bench_build/ in the current directory. The last line of
standard output is the JSON result; the exit code is the benchmark's.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "-buildvcs=false",
    })
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    env["PERFBENCH_COMMIT"] = commit(root, env)
    args = [binary, "-oracle", os.path.join(here, "oracle.json"), "-out", build] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


def commit(root, env):
    """The checkout's git commit, or "unknown" outside a git work tree."""
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                             env=dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
