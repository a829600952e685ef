#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The script builds the simulator and the
benchmark driver from source (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, runs the workload, checks its outputs and
prints one line per metric followed, as the last line, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. With --trace 0 a separate, untimed process
reads peak memory first (the driver's --memory phase), so the timed process
runs with the allocator's default settings. Output checks: the driver's own
(repetitions, cold vs warm sweep passes, sharded twin vs serial, traced
vs untraced, sweep vs plain run_scenario, memory phase vs timed run) plus,
for seeds recorded in perfbench/digests.json, the digest plain run_scenario
gave when the benchmark was defined.

    python3 perfbench/run.py --record-digests 0-127

re-records that file from serial, plain run_scenario() calls (about
ten seconds of CPU per seed and workload).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORKLOADS = ("paper_sweep", "churn_2k")
RUN_TIMEOUT_S = 170


def fail(msg: str, code: int = 1) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build() -> str:
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {ROOT}/src", 2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=local_env(build_dir)).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def local_env(build_dir: str) -> dict:
    """The environment with temporary files kept inside the build tree."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_driver(binary: str, args: list[str],
               timeout_s: float = RUN_TIMEOUT_S) -> str:
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, timeout_s),
                              env=local_env(os.path.dirname(binary)))
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded the {RUN_TIMEOUT_S} s limit of a run")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return lines[-1]


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def load_digests() -> dict:
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_digests(binary: str, seeds: list[int]) -> None:
    digests = load_digests()
    tasks = [(w, s) for w in WORKLOADS for s in seeds]
    workers = max(1, min(len(os.sched_getaffinity(0)), 4))
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        found = pool.map(lambda t: run_driver(binary, [
            "--workload", t[0], "--seed", str(t[1]), "--reference", "1"]),
            tasks)
        for (workload, seed), digest in zip(tasks, found):
            digests.setdefault(workload, {})[str(seed)] = digest
    for workload, table in digests.items():
        digests[workload] = dict(sorted(table.items(),
                                        key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--record-digests", metavar="SEEDS",
                    help="re-record digests.json for e.g. 0-127")
    args = ap.parse_args()

    if args.record_digests:
        record_digests(build(), parse_seeds(args.record_digests))
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    work_dir = os.path.join(os.path.dirname(binary), "work")
    os.makedirs(work_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work_dir]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    mem = None
    if not args.trace:
        mem = json.loads(run_driver(binary, common + ["--memory", "1"],
                                    deadline - time.monotonic()))
    out = json.loads(run_driver(binary, common + [
        "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        deadline - time.monotonic()))

    attempted, failed = out["attempted"], out["failed"]
    checks = dict(out["checks"])
    if mem is not None:
        # The memory phase ran part of the workload again: its runs count
        # as attempted, and all of them fail if its results differ.
        same = mem["digest"] == out["digest"]
        attempted += mem["attempted"]
        failed += mem["failed"] if same else mem["attempted"]
        for name, ok in mem["checks"].items():
            checks[name] = checks.get(name, True) and ok
        checks["memory_phase_equals_timed"] = same
        out["metrics"].update(mem["metrics"])
    recorded = load_digests().get(args.workload, {}).get(str(args.seed))
    if recorded is not None:
        checks["digest_matches_recorded"] = out["digest"] == recorded
        if not checks["digest_matches_recorded"]:
            failed = attempted  # the whole output differs from the record
    correct = all(checks.values()) and failed == 0 and attempted > 0

    metrics = {}
    for m in declared_metrics(bool(args.trace)):
        got = out["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"driver did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"provenance {json.dumps(out['provenance'], sort_keys=True)}")
    print(f"digest {out['digest']} recorded "
          f"{recorded if recorded is not None else 'none for this seed'}")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"fail_ratio = {failed / attempted if attempted else 1.0:.6g} "
          f"ratio ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
