#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the Mux libraries from src/) into $CARGO_TARGET_DIR
(default .bench_build); later calls find the build up to date.

--trace 0 runs the workload once with Mux talking to the substrate file
systems directly and reports every end-to-end metric. --trace 1 runs it
twice, untraced and then traced (a pass-through file system under every
tier, client-side spans), and reports every per-layer metric; the two runs'
ops_s give trace.overhead_frac. Metric names and units come from
BENCHMARK.json.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Everything else — the build log, the binary's own report, the stamp — goes
before it (or to stderr). A full record with the stamp and per-percentile
sample counts is written to <build dir>/results/. Exit status is 0 only when
every content, placement and fsck check passed.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hot-read", "cold-spill", "migrate-churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Mux sources under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    cmake_dir = out / "cmake"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "mux_perfbench", "-j", jobs])
        for step in steps:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if result.returncode != 0:
                fail("build failed: " + " ".join(step))
    return cmake_dir / "mux_perfbench"


def source_id():
    """The git commit if this is a git checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "bench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def run_binary(binary, args, trace, tag):
    """Runs one workload process; returns (exit code, JsonReport dict|None, stamp)."""
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    json_path = results / f"{tag}.report.json"
    json_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--json", str(json_path)]
    if trace:
        cmd += ["--spans", str(results / f"{tag}.spans.csv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    stamp = {}
    for line in proc.stdout.splitlines():
        if line.startswith("stamp "):
            stamp = json.loads(line[len("stamp "):])
    report = None
    if json_path.is_file():
        report = json.loads(json_path.read_text())["scenarios"]
    return proc.returncode, report, stamp


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    binary = build()

    tag = f"{args.workload}-seed{args.seed}"
    code, report, stamp = run_binary(binary, args, 0, tag + "-untraced")
    if report is None or code not in (0, 3):
        fail(f"{args.workload} failed to run (exit {code})")
    wanted = spec["end_to_end"]
    section = "end_to_end"
    final = report
    if args.trace:
        untraced_ops_s = report["end_to_end"]["ops_s"]
        code2, traced, _ = run_binary(binary, args, 1, tag + "-traced")
        if traced is None or code2 not in (0, 3):
            fail(f"{args.workload} traced run failed (exit {code2})")
        traced["per_layer"]["trace.overhead_frac"] = 1.0 - (
            traced["end_to_end"]["ops_s"] / untraced_ops_s
            if untraced_ops_s > 0 else 0.0)
        code = max(code, code2)
        final = traced
        wanted = spec["per_layer"]
        section = "per_layer"

    correct = code == 0 and all(
        r["run"]["correct"] == 1 for r in ([report, final]))
    metrics = {}
    for metric in wanted:
        if metric["name"] not in final[section]:
            fail(f"metric {metric['name']} missing from the report")
        metrics[metric["name"]] = {"value": final[section][metric["name"]],
                                   "unit": metric["unit"]}
    result = {
        "correct": correct,
        "attempted": int(final["run"]["attempted"]),
        "failed": int(final["run"]["failed"]),
        "metrics": metrics,
    }
    stamp.update({"source": source_id(), "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace})
    record = {"stamp": stamp, "result": result,
              "samples": final.get("samples", {})}
    record_path = build_dir() / "results" / f"{tag}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
