"""One set-up or one pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --workdir DIR

MODE is ``setup`` (import ``racah`` from the checkout's ``src`` and
generate the inputs), ``pass`` (set up, then run the workload once, timed)
or ``traced`` (the same pass with every layer wrapped in spans; the spans
are written to DIR/spans.jsonl).  A fresh process per pass means no pass
inherits an earlier pass's heap, rewrite-system compile or operator memos,
as for a user of the command line.  The last line of standard output is a
JSON object with the measurements.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_racah():
    """Import ``racah`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "racah", "__init__.py")):
        raise SystemExit(f"worker: no racah package under {SRC}")
    sys.path.insert(0, SRC)
    import racah
    import racah.cli  # noqa: F401  (imports every layer)
    if os.path.dirname(os.path.dirname(os.path.abspath(racah.__file__))) != SRC:
        raise SystemExit(f"worker: racah imported from {racah.__file__}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import_racah()
    sys.path.insert(0, ROOT)
    from perfbench import checker, workloads
    from perfbench.tracing import Tracer, summarize

    invocations = workloads.prepare(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = Tracer() if args.mode == "traced" else None
    results = []
    if tracer is not None:
        tracer.install()
    try:
        t1 = time.perf_counter()
        for inv in invocations:
            if tracer is not None:
                tracer.scope = inv.label
            results.append(workloads.invoke(inv))
        run_s = time.perf_counter() - t1
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdict = checker.Verdict()
    digests = []
    for inv, (code, data) in zip(invocations, results):
        verdict.merge(checker.check_report(
            inv.label, code, data, checker.load_expected(inv.expected)))
        digests.append(hashlib.sha256(data).hexdigest())
    out.update(run_s=run_s, peak_rss_mb=peak_rss_mb, digests=digests,
               verdict=verdict.as_dict())
    if tracer is not None:
        tracer.write(os.path.join(args.workdir, "spans.jsonl"))
        out["layers"] = summarize(tracer)
        out["scopes"] = tracer.eval_scopes
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
