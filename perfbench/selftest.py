#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does) and proves, on every workload:
  * an unmodified run passes every content, placement and fsck check;
  * the simulated metrics (sim_*) are bit-identical across two runs at one
    seed, and each differs at another seed;
  * with the pass-through file system flipping one byte of one substrate
    read (--corrupt-read), the run fails with a content mismatch.
It also checks that run.py, in a directory that holds only BENCHMARK.json
and perfbench/, exits non-zero without printing a result. Every file it
writes is under the build directory. Exit status 0 = all checks passed.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SECONDS = "1"
# The first client-sized read from the SSD tier after setup: a probe-file
# migration copy (hot-read) or a replay read (cold-spill, migrate-churn).
CORRUPT_TIER = "ssd"


def invoke(binary, workload, seed, out, extra=()):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", "0", "--json", str(out), *extra]
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)


def sim_metrics(path):
    report = json.loads(path.read_text())["scenarios"]["end_to_end"]
    return {k: v for k, v in report.items() if k.startswith("sim_")}


def main():
    binary = run.build()
    out = run.build_dir() / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in run.WORKLOADS:
        runs = {}
        for name, seed in (("a", 1), ("b", 1), ("c", 2)):
            path = out / f"{workload}-{name}.json"
            proc = invoke(binary, workload, seed, path)
            check(proc.returncode == 0,
                  f"{workload} seed {seed} passes its checks "
                  f"(exit {proc.returncode})")
            runs[name] = sim_metrics(path) if path.is_file() else {}
        a, b, c = runs["a"], runs["b"], runs["c"]
        check(bool(a) and a == b,
              f"{workload} sim metrics bit-identical at one seed: {a} / {b}")
        for key in a:
            check(a[key] != c.get(key),
                  f"{workload} {key} differs at another seed: "
                  f"{a[key]!r} / {c.get(key)!r}")

        proc = invoke(binary, workload, 1, out / f"{workload}-corrupt.json",
                      ("--corrupt-read", CORRUPT_TIER))
        check(proc.returncode == 3 and "content mismatch" in proc.stderr,
              f"{workload} fails on one flipped byte read from "
              f"{CORRUPT_TIER} (exit {proc.returncode})")

    bare = out / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in (run.ROOT / "perfbench").iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench" / path.name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-read",
         "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin", "CARGO_TARGET_DIR": ".bench_build"})
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"run.py without the sources exits {proc.returncode} with no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
