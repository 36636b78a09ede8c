#!/usr/bin/env python3
"""Build the HCSGC benchmark from source and run one measurement.

Run from the root of the repository:

    python3 hcsbench/run.py --workload synthetic-sweep --seed 1 --seconds 20 --trace 0

Builds hcsbench/src/main.exe with dune (release profile), runs it, checks
that its result line names exactly the metrics BENCHMARK.json lists for
the mode, and passes its standard output through.  Exits non-zero, without
a result line, when the tree holds no program to build or the run fails.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
TARGET = "hcsbench/src/main.exe"
EXE = os.path.join("_build", "default", TARGET)
RUN_DIR = os.path.join("hcsbench", "_run")
ARGS = ("--workload", "--seed", "--seconds", "--trace")


def fail(msg, code=1):
    print("hcsbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse(argv):
    if len(argv) % 2 or any(a not in ARGS for a in argv[0::2]):
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1", 2)
    args = dict(zip(argv[0::2], argv[1::2]))
    if set(args) != set(ARGS):
        fail("missing one of " + " ".join(ARGS), 2)
    return args


def source_id():
    """The commit when the tree is a git checkout, else a digest of lib/."""
    if os.path.exists(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 stdin=subprocess.DEVNULL, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.md5()
    for base, dirs, files in os.walk("lib"):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(base, f)
            h.update(path.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def check_result(line, trace):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    got = {n: m["unit"] for n, m in res["metrics"].items()}
    if got != want:
        fail("result metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(want.items())))


def main():
    args = parse(sys.argv[1:])
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: no dune-project or lib/ here", 2)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", "./" + TARGET],
            stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("build exceeded %d s" % BUILD_TIMEOUT)
    if build.returncode != 0:
        fail("build failed")
    cmd = [EXE, "--dir", RUN_DIR, "--commit", source_id(), "--profile", "release"]
    for k in ARGS:
        cmd += [k, args[k]]
    try:
        run = subprocess.run(cmd, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    if run.returncode != 0:
        fail("run exited with %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    check_result(lines[-1], args["--trace"] == "1")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
