#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into .bench_build/;
later calls only rebuild what changed. Every run works in its own scratch
directory under .bench_build/runs/ and removes it afterwards, so nothing
outside .bench_build/ is written.

The last line of standard output is the benchmark's JSON result. --smoke runs
every workload briefly, traced and untraced, and checks that every metric
named in BENCHMARK.json is present, finite, and carries the declared unit and
a direction.
"""
import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "carebench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def child_env():
    """Temporary files of the compiler and the benchmark stay in BUILD."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, env=child_env()).returncode
        except subprocess.TimeoutExpired:
            return -1


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    steps = []
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            with open(log) as f:
                tail = f.read()[-4000:]
            fail(f"build failed ({' '.join(cmd[:2])}); log tail:\n{tail}")


def run_bench(workload, seed, seconds, trace):
    """Run the binary once; return (exit code, stdout text)."""
    scratch = os.path.join(BUILD, "runs", str(os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=child_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The process group also holds any forked campaign workers.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(scratch, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S}s", 4)
    shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    spec = load_spec()
    problems = []
    schema = json.loads(subprocess.run([BINARY, "--schema"], check=True,
                                       capture_output=True,
                                       text=True).stdout)
    for key in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        built = [(m["name"], m["unit"], m["better"]) for m in schema[key]]
        if declared != built:
            problems.append(f"{key}: BENCHMARK.json and the binary disagree")
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_bench(w["name"], 1, 1, trace)
            res = last_json(out)
            tag = f"{w['name']} trace={trace}"
            if code != 0 or res is None:
                problems.append(f"{tag}: exit {code}, no result")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("failed") != 0:
                problems.append(f"{tag}: correct={res.get('correct')} "
                                f"failed={res.get('failed')}")
            metrics = res.get("metrics", {})
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{tag}: {m['name']} missing")
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append(f"{tag}: {m['name']} not finite")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{tag}: {m['name']} unit {got.get('unit')}")
                elif m.get("better") not in ("higher", "lower"):
                    problems.append(f"{tag}: {m['name']} has no direction")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
            print(f"smoke: {tag}: {len(metrics)} metrics checked", flush=True)
    for p in problems:
        print(f"smoke: FAILED {p}")
    print(json.dumps({"smoke_ok": not problems}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    build()
    if args.smoke:
        sys.exit(smoke())
    if not args.workload:
        fail("--workload is required")
    seconds = args.seconds if args.seconds is not None \
        else load_spec()["run_seconds"]
    code, out = run_bench(args.workload, args.seed, seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail(f"benchmark exited with {code}", code if code > 0 else 5)
    if last_json(out) is None:
        fail("benchmark printed no result", 5)


if __name__ == "__main__":
    main()
