#!/usr/bin/env python3
"""Builds and runs the bddfc benchmark (see BENCHMARK.json and plan.json).

    python3 perfbench/run.py --workload chase-tc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark binary is compiled from source
(Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
the run's stamp (machine, compiler, build type, source revision, seed,
chase threads and the percentile job_tail_ms reports).
The exit code is 0 only when every job passed its correctness gates.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build():
    """Configures and builds the benchmark binary; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "bddfc", "CMakeLists.txt")):
        die("bddfc sources not found under %s/src" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd + gen, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(bdir, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_stamp():
    """Git revision when the checkout is a repository, and always a digest
    of the sources the binary is built from."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def binary_args(bench, workload, seed, seconds, trace, tiny=False):
    """BENCHMARK.json's per_layer list is the one list of per-layer
    metrics: the binary reports exactly these, and fails the run when it
    measures one that is not listed."""
    layers = ",".join("%s:%s" % (m["name"], m["unit"])
                      for m in bench["per_layer"])
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--layer-metrics", layers]
    return args + (["--tiny"] if tiny else [])


def check_layer_map(bench, plan):
    """plan.json's claim map must name exactly the per_layer metrics."""
    want = {m["name"] for m in bench["per_layer"]}
    got = set(plan["layer_map"])
    problems = ["layer_map lacks %s" % n for n in sorted(want - got)]
    problems += ["layer_map names unknown %s" % n for n in sorted(got - want)]
    if problems:
        die("plan.json: " + "; ".join(problems))


def run_binary(binary, args):
    try:
        got = subprocess.run([binary] + args, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(got.stderr)
    lines = got.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(got.stdout)
        die("benchmark binary printed no result (exit %d)" % got.returncode)
    return got.returncode, lines[:-1], result


def check_metrics(bench, result, trace):
    """Every metric BENCHMARK.json names for this mode, with its unit, and
    nothing else. Returns a list of problems."""
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    problems = ["missing %s" % n for n in want if n not in got]
    problems += ["unexpected %s" % n for n in got if n not in want]
    problems += ["%s has unit %s, want %s" % (n, got[n].get("unit"), u)
                 for n, u in want.items()
                 if n in got and got[n].get("unit") != u]
    return problems


def self_test(bench, binary):
    """Gate corruption checks, then a tiny run of every workload in both
    modes whose metric names and units must match BENCHMARK.json."""
    failures = []
    got = subprocess.run([binary, "--self-test"], capture_output=True,
                         text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(got.stdout)
    if got.returncode != 0:
        failures.append("gate self-test")
    for w in bench["workloads"]:
        for trace in (0, 1):
            code, _, result = run_binary(
                binary, binary_args(bench, w["name"], 1, 0.3, trace, tiny=True))
            problems = check_metrics(bench, result, trace)
            if code != 0 or not result.get("correct"):
                problems.append("tiny run failed its gates")
            status = "ok" if not problems else "; ".join(problems)
            print("self-test %s trace=%d: %s" % (w["name"], trace, status))
            if problems:
                failures.append("%s trace=%d" % (w["name"], trace))
    print("self-test: %s" % ("passed" if not failures
                              else "FAILED: " + ", ".join(failures)))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    check_layer_map(bench, load_json(os.path.join(HERE, "plan.json")))
    names = [w["name"] for w in bench["workloads"]]
    if not a.self_test and a.workload not in names:
        die("--workload must be one of %s" % ", ".join(names))
    binary = build()
    if a.self_test:
        return self_test(bench, binary)

    seconds = a.seconds if a.seconds is not None else bench["run_seconds"]
    code, lines, result = run_binary(
        binary, binary_args(bench, a.workload, a.seed, seconds, a.trace))
    problems = check_metrics(bench, result, a.trace)
    if problems:
        sys.stdout.write("\n".join(lines) + "\n")
        die("metrics do not match BENCHMARK.json: " + "; ".join(problems))
    sha, digest = source_stamp()
    for line in lines:
        if line.startswith("stamp: "):
            stamp = json.loads(line[len("stamp: "):])
            stamp.update({"cpu_model": cpu_model(), "git_sha": sha,
                          "source_sha": digest})
            line = "stamp: " + json.dumps(stamp, sort_keys=True)
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
