#!/usr/bin/env python3
"""Compile one rank's rewrite system and print its rule count per kind, the
compile time, the saturation step count, and a SHA-256 digest of the ordered
rule list.

    PYTHONPATH=src python3 scripts/rule_digest.py --rank 6
    PYTHONPATH=src python3 scripts/rule_digest.py --rank 6 --search [--write]

Two builds compiled the same rules, in the same order, exactly when their
digests agree: every rule contributes its kind, its measure component, its
left-hand side and its canonically printed right-hand side, in list order.

By default the system is compiled as ``racah`` compiles it, by replaying the
rank's recorded saturation schedule, and the step count is the number of
rule applications of that replay.  ``--search`` saturates the unsaturated
system by the schedule-free search instead, prints the search's steps (two
searches that agree on them chose their redexes in the same order), and
checks the schedule it found against the table in
``src/racah/saturation_schedules.py``: it exits 1 when they differ.  With
``--write`` it writes the found schedule into that table instead.
"""

import argparse
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

from racah import saturation_schedules
from racah.cli import _integer
from racah.core import (base_rewrite_system, build_rewrite_system, check_rank,
                        saturation_seeds)
from racah.freealg import AlgebraError, format_poly, format_word

TABLE = Path(saturation_schedules.__file__)

_HEADER = '''"""Recorded saturation schedules of the rewrite systems at ranks 3-9.

Generated by ``scripts/rule_digest.py --rank N --search --write``; do not
edit.  ``SCHEDULES[rank]`` holds one block of lines per saturation round,
blocks apart by an empty line.  Each entry ``index:lhs`` is a seed product:
its index among the products ``RewriteSystem.saturate`` forms from
``core.saturation_seeds(rank)``, and the left-hand side of the rule its
residual yields.  Text, not tuples, because compiling a literal of some
6,000 tuples costs an importing process about 14 MB of peak memory.
"""

'''


def rule_digest(rules) -> str:
    h = hashlib.sha256()
    for rule in rules:
        line = (f"{rule.name}\t{rule.grade_drop}\t{format_word(rule.lhs)}\t"
                f"{format_poly(rule.rhs)}\n")
        h.update(line.encode())
    return h.hexdigest()


def table_entry(schedule) -> str:
    """A schedule as ``saturate`` returns it, in the table's spelling."""
    blocks = []
    for entries in schedule:
        words = [f"{i}:{format_word(lhs)}" for i, lhs in entries]
        blocks.append("".join(" ".join(words[k:k + 6]) + "\n"
                              for k in range(0, len(words), 6)))
    return "\n" + "\n".join(blocks)


def render_table(schedules: dict) -> str:
    """The source of the schedule module holding ``schedules``."""
    return (_HEADER + "SCHEDULES = {\n"
            + "".join(f'    {rank}: """{schedules[rank]}""",\n'
                      for rank in sorted(schedules))
            + "}\n")


def main() -> None:
    parser = argparse.ArgumentParser(
        description="rule counts and ordered-rule digest of one rank")
    parser.add_argument("--rank", type=_integer, required=True)
    parser.add_argument("--search", action="store_true",
                        help="saturate by the schedule-free search and check "
                             "the schedule table against it")
    parser.add_argument("--write", action="store_true",
                        help="with --search: write the found schedule into "
                             "the table")
    args = parser.parse_args()
    try:
        check_rank(args.rank)
    except AlgebraError as exc:
        parser.error(str(exc))
    if args.write and not args.search:
        parser.error("--write needs --search")
    t0 = time.perf_counter()
    if args.search:
        rs = base_rewrite_system(args.rank)
        schedule = rs.saturate(*saturation_seeds(args.rank))
    else:
        rs = build_rewrite_system(args.rank)
    elapsed = time.perf_counter() - t0
    counts = Counter(rule.name for rule in rs.rules)
    print(f"rank {args.rank}: {len(rs.rules)} rules")
    for name in sorted(counts):
        print(f"  {name}: {counts[name]}")
    print(f"compile_s {elapsed:.2f}")
    print(f"steps {rs.steps}")
    print(f"sha256 {rule_digest(rs.rules)}")
    if not args.search:
        return
    print(f"seed products {sum(map(len, schedule))} in {len(schedule)} rounds")
    found = table_entry(schedule)
    schedules = dict(saturation_schedules.SCHEDULES)
    if args.write:
        schedules[args.rank] = found
        TABLE.write_text(render_table(schedules))
        print(f"schedule written to {TABLE.name}")
    elif schedules.get(args.rank) == found:
        print("schedule matches the table")
    else:
        print("schedule differs from the table")
        sys.exit(1)


if __name__ == "__main__":
    main()
