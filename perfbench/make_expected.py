"""Write the expected-record files under perfbench/expected.

    python3 perfbench/make_expected.py

Runs each workload once on seed 8093 and writes the key of every record
(suite, family, payload, method, context), one tab-separated key per line.
The files are the known answer the checker holds later commits to, so
regenerate them only when a workload itself changes, and review the diff:
every record of these workloads must stay a proved or on-window verdict
of a true identity.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import checker, workloads  # noqa: E402
from perfbench.worker import import_racah  # noqa: E402


def main() -> int:
    import_racah()
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_out", "expected")
    os.makedirs(workdir, exist_ok=True)
    keys: dict[str, set] = {}
    for name in workloads.WORKLOADS:
        for inv in workloads.prepare(name, 8093, workdir):
            code, data = workloads.invoke(inv)
            if code != 0:
                raise SystemExit(f"{inv.label}: exit code {code}")
            got = {checker.record_key(r) for r in json.loads(data)["instances"]}
            if keys.setdefault(inv.expected, got) != got:
                raise SystemExit(f"{inv.label}: records differ from the "
                                 f"other invocations of {inv.expected}")
    os.makedirs(checker.EXPECTED_DIR, exist_ok=True)
    for stem, got in keys.items():
        with open(os.path.join(checker.EXPECTED_DIR, stem + ".tsv"), "w") as fh:
            for key in sorted(got):
                fh.write("\t".join(key) + "\n")
        print(f"{stem}: {len(got)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
