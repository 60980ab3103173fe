"""The benchmark's workloads: inputs generated from a seed, and one pass.

A pass is a list of invocations.  Each invocation is one thing a user of
``racah`` waits on (a ``verify`` or ``jacobi`` command, or ``run_suite``
plus ``emit_report``); it yields an exit code and the JSON report bytes.
Every public ``racah`` function is looked up at call time, through its
module, so a tracer's wrappers see the calls.
"""

from __future__ import annotations

import io
import os
import random
import sys
from dataclasses import dataclass

WORKLOADS = ("verify-r4", "symbolic-r5r6", "sweep-r4")

# sweep-r4: four parameter sets per window
SWEEP_WINDOWS = (6, 8, 10, 12)
SWEEP_SETS_PER_WINDOW = 4


@dataclass(frozen=True)
class Invocation:
    label: str           # names the invocation in the checker's output
    expected: str        # expected-record file stem under perfbench/expected
    argv: tuple = ()     # racah CLI arguments; empty for a direct API call
    param_sets: tuple = ()


def sweep_labels() -> list[str]:
    return [f"set{i:02d}_w{w}"
            for i, w in enumerate(w for w in SWEEP_WINDOWS
                                  for _ in range(SWEEP_SETS_PER_WINDOW))]


def _write_params(path: str, p, window: int) -> None:
    with open(path, "w") as fh:
        for key in ("c1", "c2", "c3", "c4", "N"):
            fh.write(f"{key} = {getattr(p, key)}\n")
        fh.write(f"window = {window}\n")


def prepare(name: str, seed: int, workdir: str) -> list[Invocation]:
    """Generate the inputs of one pass from ``seed`` (same seed, same
    inputs); files go under ``workdir``."""
    from racah import representation as rep

    if name == "verify-r4":
        # exactly `racah verify --rank 4 --suites all`: the command line
        # fixes the randomized set at its default seed, and so does this
        # workload; seed-drawn sets are sweep-r4's job
        sets = rep.default_param_sets(12, rep.DEFAULT_SEED)
        for set_name, p, window in sets:
            errors = rep.validate_params(p, window)
            if errors:
                raise ValueError(f"{set_name}: {'; '.join(errors)}")
        return [Invocation("verify-r4", "verify-r4", param_sets=sets)]
    if name == "symbolic-r5r6":
        return [
            Invocation("jacobi-r5", "symbolic-r5r6-jacobi",
                       ("jacobi", "--rank", "5", "--format", "json")),
            Invocation("theorem_rn-r6", "symbolic-r5r6-theorem_rn",
                       ("verify", "--rank", "6", "--suites", "theorem_rn",
                        "--format", "json")),
        ]
    if name == "sweep-r4":
        rng = random.Random(seed)
        out = []
        for label in sweep_labels():
            window = int(label.rsplit("_w", 1)[1])
            p = rep.randomized_params(window, rng.randrange(2 ** 31))
            errors = rep.validate_params(p, window)
            if errors:
                raise ValueError(f"{label}: {'; '.join(errors)}")
            path = os.path.join(workdir, f"{label}.params")
            _write_params(path, p, window)
            out.append(Invocation(label, "sweep-r4",
                                  ("verify", "--rank", "4", "--params", path,
                                   "--suites", "casimirs", "--format", "json")))
        return out
    raise ValueError(f"unknown workload {name!r}")


def _call_cli(argv) -> tuple[int, bytes]:
    """``racah.cli.main(argv)`` with its standard output captured, as a
    separate command: the per-rank rewrite systems (and their reduce memos)
    that ``racah.core.rewrite_system`` keeps are dropped first, so every
    invocation pays the compile a command-line user pays."""
    import racah.cli
    import racah.core

    racah.core.rewrite_system.cache_clear()
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        code = racah.cli.main(list(argv))
        sys.stdout.flush()
        data = sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = saved
    return code, data


def invoke(inv: Invocation) -> tuple[int, bytes]:
    if inv.argv:
        return _call_cli(inv.argv)
    import racah.verifier as verifier

    cfg = verifier.SuiteConfig(rank=4, param_sets=inv.param_sets,
                               suites=verifier.SUITE_NAMES)
    report = verifier.run_suite(cfg)
    return report.exit_code, verifier.emit_report(report, "json")
