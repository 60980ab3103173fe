#!/usr/bin/env python3
"""Run every verification suite across the three standard parameter sets
and print the human-readable report plus a one-line verdict.

This is the long-form experiment; `pytest tests/test_acceptance.py` checks
the same content with assertions.
"""

import sys
import time

from racah.representation import default_param_sets
from racah.verifier import SUITE_NAMES, SuiteConfig, emit_report, run_suite


def main() -> int:
    t0 = time.time()
    failed = False

    for rank, suites, params in (
            (3, ("definitions", "rank1", "jacobi"), default_param_sets()),
            (4, SUITE_NAMES, default_param_sets()),
            (5, ("theorem_rn", "jacobi"), ()),
            (6, ("theorem_rn",), ()),
    ):
        print(f"== rank-index count {rank}: {', '.join(suites)}")
        cfg = SuiteConfig(rank=rank, param_sets=params, suites=suites)
        report = run_suite(cfg)
        summary = report.summary()
        print(f"   {summary['proved-zero']} proved-zero, "
              f"{summary['zero-on-window']} zero-on-window, "
              f"{summary['inconclusive']} inconclusive, "
              f"{summary['FAILED']} FAILED")
        if report.failed:
            failed = True
            sys.stdout.buffer.write(emit_report(report, "human"))

    print(f"== done in {time.time() - t0:.1f}s: "
          + ("FAILURES ABOVE" if failed else "all suites clean"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
