"""Verdict checker: compares emitted records with the known answer.

Every instance in the workloads is a true identity (catalog relations hold,
and each substituted Jacobi defect is an ideal member by construction), so
the known answer does not come from the code under test:

* a ``FAILED`` record, an expected record that is missing, a nonzero exit
  code, an unreadable report or a wrong group order is a failed check;
* an ``inconclusive`` record is undecided;
* records beyond the expected ones are allowed, so a backend that adds
  representation records does not read as a failure.

Records are keyed by (suite, family, payload, method, context).  The
expected keys live in ``perfbench/expected/<stem>.tsv``, one tab-separated
key per line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

DECIDED = ("proved-zero", "zero-on-window")
INCONCLUSIVE = "inconclusive"
FAILED = "FAILED"

# payload label -> required order, for the symmetry and pentagon records
GROUP_ORDERS = {"d5": 10, "p4": 24, "combined": 120, "order": 120}


def record_key(rec: dict) -> tuple:
    return (rec["suite"], rec["family"], rec["payload"], rec["method"],
            rec["context"])


def load_expected(stem: str) -> frozenset:
    with open(os.path.join(EXPECTED_DIR, stem + ".tsv")) as fh:
        return frozenset(tuple(line.rstrip("\n").split("\t"))
                         for line in fh if line.strip())


@dataclass
class Verdict:
    attempted: int = 0      # checks made
    failed: int = 0         # checks that failed
    records: int = 0        # records seen or expected
    decided: int = 0        # proved-zero + zero-on-window records
    inconclusive: int = 0
    problems: list = field(default_factory=list)

    def merge(self, other: "Verdict") -> "Verdict":
        self.attempted += other.attempted
        self.failed += other.failed
        self.records += other.records
        self.decided += other.decided
        self.inconclusive += other.inconclusive
        self.problems.extend(other.problems)
        return self

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def as_dict(self) -> dict:
        return dict(attempted=self.attempted, failed=self.failed,
                    records=self.records, decided=self.decided,
                    inconclusive=self.inconclusive, problems=self.problems)


def check_report(label: str, exit_code: int, data: bytes,
                 expected: frozenset) -> Verdict:
    """Check one invocation's exit code and JSON report."""
    v = Verdict()
    v.attempted += 1                        # the exit code
    if exit_code != 0:
        v.fail(f"{label}: exit code {exit_code}")
    try:
        records = json.loads(data)["instances"]
    except (ValueError, KeyError, TypeError) as exc:
        v.attempted += 1
        v.fail(f"{label}: unreadable report ({exc})")
        records = []
    seen = set()
    for rec in records:
        key = record_key(rec)
        seen.add(key)
        status = rec["status"]
        if status in DECIDED:
            v.decided += 1
        elif status == INCONCLUSIVE:
            v.inconclusive += 1
        else:
            v.fail(f"{label}: {status} {key} {rec.get('witness', '')}")
        if rec["family"] in ("group_order", "closure"):
            v.attempted += 1
            name, _, order = rec["payload"].partition("=")
            if not order.isdigit() or GROUP_ORDERS.get(name) != int(order):
                v.fail(f"{label}: group order {rec['payload']}")
    missing = expected - seen
    for key in sorted(missing):
        v.fail(f"{label}: missing {key}")
    v.records += len(seen | expected)
    v.attempted += len(seen | expected)
    return v
