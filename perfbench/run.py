#!/usr/bin/env python3
"""Repo benchmark: builds the driver from source, runs one workload, checks
every answer, and prints every metric by name with its unit. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload table1 --seed 1 --seconds 17 --trace 0

--trace 0 times the workload with tracing off and reports BENCHMARK.json's
end-to-end metrics. --trace 1 runs it untraced, then again in the traced
binary, and reports the per-layer metrics. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "cmake")
WORKLOADS = ("table1", "tilos", "shard", "serve")
# Library knobs that would change what is measured; never inherited.
SCRUB_ENV = ("MFT_INNER_THREADS", "MFT_FAULTS", "MFT_BENCH_THREADS",
             "MFT_BENCH_INNER_THREADS")
BINARY_TIMEOUT_S = 160  # per binary run; a whole run must end within 180 s
MIN_COVERAGE = 0.95     # sizing.pass.coverage floor outside serve


def die(msg):
    print("error: " + msg, file=sys.stderr)
    sys.exit(2)


def sh(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("command failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("library sources (CMakeLists.txt, src/) not found in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", BUILD,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    sh(["cmake", "--build", BUILD, "-j", str(len(os.sched_getaffinity(0)))])


def cache_var(name):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(name + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def host():
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cxx = cache_var("CMAKE_CXX_COMPILER")
    version = subprocess.run([cxx, "-dumpfullversion"], capture_output=True,
                             text=True).stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "compiler": "%s %s" % (os.path.basename(cxx), version),
            "build_type": cache_var("CMAKE_BUILD_TYPE")}


def check_entry_points():
    """Every wrapped entry point must still be called across objects of
    libmft.a; otherwise the traced run would report it as a silent zero."""
    with open(os.path.join(HERE, "entry_points.txt")) as f:
        wanted = [line.strip() for line in f if line.startswith("_Z")]
    nm = subprocess.run(["nm", "-u", os.path.join(BUILD, "mft", "libmft.a")],
                        capture_output=True, text=True, check=True).stdout
    referenced = {line.split()[-1] for line in nm.splitlines()
                  if line.strip() and not line.endswith(":")}
    missing = [s for s in wanted if s not in referenced]
    if missing:
        die("unmeasured entry points (no cross-object call left to "
            "interpose): " + ", ".join(missing))


def run_binary(name, args):
    env = {k: v for k, v in os.environ.items() if k not in SCRUB_ENV}
    try:
        p = subprocess.run([os.path.join(BUILD, name)] + args,
                           stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, env=env, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (name, BINARY_TIMEOUT_S))
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        die("%s exited with code %d" % (name, p.returncode))
    return json.loads(lines[-1])


def unit_of(name):
    if name.endswith("_mb"):
        return "MB"
    return "s" if name.endswith("_s") else "ratio"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
    tag = "%s-seed%d" % (a.workload, a.seed)
    run_dir = os.path.join(OUT, "runs", tag)
    os.makedirs(run_dir, exist_ok=True)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(seconds), "--workdir", run_dir]
    if a.trace:
        check_entry_points()

    untraced = run_binary("mftbench", args)
    errors = list(untraced["errors"])
    failed = untraced["failed"]
    record = {"host": host(), "workload": a.workload, "seed": a.seed,
              "seconds": seconds, "untraced": untraced}
    if a.trace:
        trace_file = os.path.join(OUT, "traces", tag + ".json")
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        traced = run_binary("mftbench_traced",
                            args + ["--trace-out", trace_file])
        record["traced"] = traced
        errors += traced["errors"]
        failed += traced["failed"]
        if traced["digest"] != untraced["digest"]:
            errors.append("traced answers differ from untraced answers")
            failed += 1
        # Timings and public result fields come from the untraced run;
        # span-derived metrics only exist in the traced one.
        layer = dict(traced["layer"])
        layer.update(untraced["layer"])
        layer["trace.overhead_share"] = (traced["e2e"]["job_gmean_s"]
                                         / untraced["e2e"]["job_gmean_s"]
                                         - 1.0)
        coverage = layer.get("sizing.pass.coverage", 0.0)
        if a.workload != "serve" and coverage < MIN_COVERAGE:
            errors.append("sizing.pass.coverage %.4f below %.2f"
                          % (coverage, MIN_COVERAGE))
            failed += 1
        values, wanted = layer, spec["per_layer"]
    else:
        values, wanted = untraced["e2e"], spec["end_to_end"]
    missing = [m["name"] for m in wanted
               if not isinstance(values.get(m["name"]), (int, float))]
    if missing:
        die("metrics missing from the driver output: " + ", ".join(missing))

    h = record["host"]
    print("host: nproc %d, %s, %s, %s build" % (
        h["nproc"], h["cpu"], h["compiler"], h["build_type"]))
    print("workload %s, seed %d, %g s measured, %d repetition(s), "
          "%d operation(s) attempted, %d failed"
          % (a.workload, a.seed, seconds, untraced["reps"],
             untraced["attempted"], failed))
    print("end-to-end (tracing off):")
    for name, value in sorted(untraced["e2e"].items()):
        print("  %-16s %14.6g %s" % (name, value, unit_of(name)))
    if a.trace:
        print("per-layer (spans from the traced run, the rest untraced):")
        for m in spec["per_layer"]:
            print("  %-32s %14.6g %s" % (m["name"], layer[m["name"]],
                                         m["unit"]))
        print("chrome trace: " + os.path.relpath(trace_file, ROOT))
    for e in errors[:10]:
        print("FAILED: " + e)
    with open(os.path.join(run_dir, "result-trace%d.json" % a.trace),
              "w") as f:
        json.dump(record, f, indent=1)

    attempted = max(1, untraced["attempted"])
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
