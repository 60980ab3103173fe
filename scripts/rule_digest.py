#!/usr/bin/env python3
"""Compile one rank's rewrite system and print its rule count per kind, the
compile time, the saturation step count, and a SHA-256 digest of the ordered
rule list.

    PYTHONPATH=src python3 scripts/rule_digest.py --rank 6

Two builds compiled the same rules, in the same order, exactly when their
digests agree: every rule contributes its kind, its measure component, its
left-hand side and its canonically printed right-hand side, in list order.
The step count is the number of rule applications the saturation took; two
builds that agree on it as well chose their redexes in the same order.
"""

import argparse
import hashlib
import time
from collections import Counter

from racah.cli import _integer
from racah.core import RankConfig, build_rewrite_system
from racah.freealg import AlgebraError, format_poly, format_word


def rule_digest(rules) -> str:
    h = hashlib.sha256()
    for rule in rules:
        line = (f"{rule.name}\t{rule.grade_drop}\t{format_word(rule.lhs)}\t"
                f"{format_poly(rule.rhs)}\n")
        h.update(line.encode())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(
        description="rule counts and ordered-rule digest of one rank")
    parser.add_argument("--rank", type=_integer, required=True)
    args = parser.parse_args()
    try:
        RankConfig(args.rank)
    except AlgebraError as exc:
        parser.error(str(exc))
    t0 = time.perf_counter()
    rs = build_rewrite_system(args.rank)
    elapsed = time.perf_counter() - t0
    counts = Counter(rule.name for rule in rs.rules)
    print(f"rank {args.rank}: {len(rs.rules)} rules")
    for name in sorted(counts):
        print(f"  {name}: {counts[name]}")
    print(f"compile_s {elapsed:.2f}")
    print(f"steps {rs.steps}")
    print(f"sha256 {rule_digest(rs.rules)}")


if __name__ == "__main__":
    main()
