#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run it from the repository root:

    python3 perfbench/run.py --workload rpc-small --seed 1 --seconds 32 --trace 0

It builds the Go driver in perfbench/ (a module of its own that imports
the repository's packages from ../) into the build directory, keeping the
Go build cache and temporary files there as well, so nothing outside the
checkout is written. Then it runs the driver with the same arguments. The
last line of standard output is the JSON result; the exit code is the
driver's, or 1 if the build fails or the run overstays its limit.
"""
import os
import signal
import subprocess
import sys

RUN_LIMIT_S = 175  # every run must end within 180 s


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        print("perfbench: run from the repository root: no go.mod and internal/ here",
              file=sys.stderr)
        return 2
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "-buildvcs=false",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
        "PERFBENCH_SCRATCH": tmp,
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Its own process group, so a run that overstays is stopped together
    # with the instance processes it started.
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env, start_new_session=True)

    def stop(signum, frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(1)

    # A wrapper that is itself stopped takes the run down with it.
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
