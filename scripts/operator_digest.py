#!/usr/bin/env python3
"""Build the five displacement letters of the representation over one window
and print, per letter, the build time and a SHA-256 digest of the operator.

    PYTHONPATH=src python3 scripts/operator_digest.py --window 12
    PYTHONPATH=src python3 scripts/operator_digest.py --params FILE

Without ``--params`` the integer parameter set is used, as by ``racah rep``;
``--window`` overrides the window (default: the file's, else the widest
window of the integer set).  Two builds gave the same operator exactly when
their digests agree: the digest covers the common denominator, every column's
integer entries and the leaking states, keyed by state position.
"""

import argparse
import hashlib
import sys
import time

from racah.cli import _rep_params, _window
from racah.freealg import AlgebraError
from racah.representation import DISPLACEMENT_LETTERS, build_operator


def operator_digest(op) -> str:
    h = hashlib.sha256(f"den {op.den}\n".encode())
    for x in sorted(op.cols):
        entries = " ".join(f"{y}:{v}" for y, v in sorted(op.cols[x].items()))
        h.update(f"{x} {entries}\n".encode())
    h.update(("leak " + " ".join(map(str, sorted(op._leak))) + "\n").encode())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(
        description="per-letter build time and operator digest of one window")
    parser.add_argument("--window", type=_window)
    parser.add_argument("--params", help="flat key=value parameter file")
    args = parser.parse_args()
    try:
        params, window = _rep_params(args)
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    print(f"{params.describe()} window {window}")
    for gen in DISPLACEMENT_LETTERS:
        t0 = time.perf_counter()
        op = build_operator(gen, params, window)
        elapsed = time.perf_counter() - t0
        print(f"{str(gen):5s} build_s {elapsed:.4f} sha256 {operator_digest(op)}")


if __name__ == "__main__":
    main()
