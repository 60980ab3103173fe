"""The racah benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify-r4, symbolic-r5r6, sweep-r4, or ``all`` for the
three in turn.  Run from the root of a checkout: the program is imported
from its ``src``.  Every pass and every set-up runs in a fresh interpreter
(perfbench/worker.py), one at a time, and every verdict is checked against
the known answer (perfbench/checker.py).

--trace 0 measures the end-to-end metrics: a few set-ups alone, then
passes until S seconds have gone by (at least one).  --trace 1 runs one pass
untraced and one pass with every layer wrapped in spans (perfbench/tracing.py)
and reports the per-layer metrics, the tracing overhead among them; the
spans are written to .perfbench_out/spans-NAME-seedN.jsonl.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.tracing import eval_totals  # noqa: E402
from perfbench.workloads import WORKLOADS, sweep_labels  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# set-ups alone per untraced run, besides each pass's own: a verify-r4 pass
# outlasts the default --seconds, so without them its setup_s is one sample
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150
# timed passes run under one hash seed; the traced pass under another, so
# the byte-identical report check also covers hash-order dependence
TIMED_HASH_SEED = "0"
TRACED_HASH_SEED = "1"

UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "verdicts_per_s": "1/s", "decided_frac": "frac"}


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, workdir: str,
               hash_seed: str = TIMED_HASH_SEED) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--workdir", workdir]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: no result within "
                         f"{WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} {mode}: worker exit code "
                         f"{proc.returncode}\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t0
    return out


class Tally:
    """Checks across the passes of one run, the determinism check too."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests = None

    def add_pass(self, result: dict, label: str) -> None:
        v = result["verdict"]
        self.attempted += v["attempted"]
        self.failed += v["failed"]
        self.problems += v["problems"]
        if self.digests is None:
            self.digests = result["digests"]
            return
        self.attempted += 1
        if result["digests"] != self.digests:
            self.failed += 1
            self.problems.append(f"{label}: report bytes differ between passes")


def measure(workload: str, seed: int, seconds: float, workdir: str,
            tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics of one workload, tracing off."""
    setups = [run_worker(workload, seed, "setup", workdir)["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_worker(workload, seed, "pass", workdir))
    for i, p in enumerate(passes):
        tally.add_pass(p, f"{workload} pass {i}")
    setups += [p["setup_s"] for p in passes]
    runs = [p["run_s"] for p in passes]
    run_s = statistics.median(runs)
    v = passes[0]["verdict"]
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "verdicts_per_s": v["decided"] / run_s,
        "decided_frac": v["decided"] / v["records"],
    }
    # with a few passes a run, the highest percentile is the slowest pass
    notes = {"passes": len(passes), "pass_s": runs, "run_s_max": max(runs),
             "setups": len(setups),
             "undecided_frac": f"{v['inconclusive']}/{v['records']}"}
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()}, notes


def trace(workload: str, seed: int, workdir: str,
          tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics from one traced pass, with the overhead measured
    against one untraced pass."""
    plain = run_worker(workload, seed, "pass", workdir)
    traced = run_worker(workload, seed, "traced", workdir, TRACED_HASH_SEED)
    tally.add_pass(plain, f"{workload} untraced pass")
    tally.add_pass(traced, f"{workload} traced pass")
    spans_out = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    os.replace(os.path.join(workdir, "spans.jsonl"), spans_out)

    m = dict(traced["layers"])
    v = traced["verdict"]
    m["verifier.records"] = v["records"]
    m["verifier.failed_frac"] = v["failed"] / v["attempted"]
    m["verifier.undecided_frac"] = v["inconclusive"] / v["records"]
    m["trace.spans"] = traced["spans"]
    m["trace.run_s"] = traced["run_s"]
    m["trace.untraced_run_s"] = plain["run_s"]
    m["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    scopes = traced["scopes"]
    for label in sweep_labels():
        got = eval_totals([scopes[label]]) if label in scopes \
            else {"max_entry_bits": 0, "reliable_frac": 0.0}
        m[f"sweep.{label}.max_entry_bits"] = got["max_entry_bits"]
        m[f"sweep.{label}.reliable_frac"] = got["reliable_frac"]
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in m.items()}, {"spans_file": spans_out}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_frac"):
        return "frac"
    if last == "max_entry_bits":
        return "bit"
    return "count"


def run_one(workload: str, seed: int, seconds: float,
            traced: bool) -> tuple[dict, Tally]:
    tally = Tally()
    workdir = os.path.join(OUT_DIR, f"work-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if traced:
            metrics, notes = trace(workload, seed, workdir, tally)
        else:
            metrics, notes = measure(workload, seed, seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes["failed_frac"] = f"{tally.failed}/{tally.attempted}"
    print(f"{workload} (seed {seed}; "
          + "; ".join(f"{k} {v}" for k, v in notes.items()) + ")")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for line in tally.problems:
        print(f"  check failed: {line}")
    return metrics, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=8093)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "racah", "__init__.py")):
        print(f"run.py: no racah package under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            got, tally = run_one(name, args.seed, args.seconds,
                                 bool(args.trace))
            attempted += tally.attempted
            failed += tally.failed
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in got.items()})
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
