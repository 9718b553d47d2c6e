#!/usr/bin/env python3
"""Build the perfbench executable from this checkout's sources and run it.

    python3 perfbench/run.py --workload sim-mixed|suite-j2|rt-line \
        --seed N --seconds S --trace 0|1

Run from the root of a strovl checkout. The executable is built with dune
into .bench_build/, then run with the same arguments. The dune cache is
disabled and TMPDIR points into .bench_build/, so nothing is written outside
the checkout. Its last stdout
line is the JSON result; this wrapper checks that the result names exactly
the metrics BENCHMARK.json declares for the chosen --trace mode. It exits
non-zero, printing no result, when the checkout holds no strovl sources,
when the build fails, when the run fails, or when a run outlives its time
limit (the run is then killed and reaped).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


TMP = os.path.join(ROOT, BUILD_DIR, "tmp")
ENV = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=TMP, TMP=TMP, TEMP=TMP)


def run(cmd, timeout, stdout):
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, env=ENV)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None


def trace_mode(argv):
    for i, a in enumerate(argv[:-1]):
        if a == "--trace":
            return argv[i + 1]
    return None


def main(argv):
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            return fail("no %s in %s: run from a strovl checkout" % (need, ROOT))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    mode = trace_mode(argv)
    if mode not in ("0", "1"):
        return fail("--trace 0|1 is required")
    declared = [m["name"] for m in spec["per_layer" if mode == "1" else "end_to_end"]]

    os.makedirs(TMP, exist_ok=True)
    build = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "./perfbench/main.exe"]
    code = run(build, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        return fail("build failed" if code is not None else "build timed out")

    proc = subprocess.Popen([EXE] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=ENV)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        return fail("run exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("the run printed no result line")
    if sorted(result["metrics"]) != sorted(declared):
        return fail("the result's metrics differ from BENCHMARK.json's")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
