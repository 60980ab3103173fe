"""Command-line front end.

Exit codes: 0 all pass, 1 any FAILED record, 2 configuration error.
All numeric I/O is exact rational text p/q; decimals are rejected.
"""

from __future__ import annotations

import argparse
import sys

from . import symmetry
from .core import rewrite_system
from .expr import parse_expr, parse_letter
from .freealg import AlgebraError, format_poly
from .representation import (
    INTEGER_WINDOW,
    OperatorContext,
    RepParams,
    build_operator,
    default_param_sets,
    integer_params,
    triangle_states,
    validate_params,
    west_factor,
)
from .verifier import (
    ASCII_INTEGER,
    ConfigError,
    SuiteConfig,
    SUITE_NAMES,
    emit_report,
    params_from_config,
    parse_config,
    relation_catalog,
    run_suite,
)


def _load_params(path: str | None, window_flag: int | None):
    """Parameter sets for a run: from a config file, or the built-in three."""
    if path is None:
        return default_param_sets(12 if window_flag is None else window_flag)
    try:
        # utf-8-sig: a leading byte-order mark is not part of the first key
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    cfg = parse_config(text)
    params = params_from_config(cfg)
    # an explicit flag wins; otherwise the file's window, then a default
    window = cfg.get("window", 12) if window_flag is None else window_flag
    return (("config", params, window),)


def _rep_params(args) -> tuple[RepParams, int]:
    """The one parameter set a ``rep`` command inspects: the file's, or the
    integer set; an explicit ``--window`` applies to either."""
    if args.params is None:
        params = integer_params()
        window = INTEGER_WINDOW if args.window is None else args.window
    else:
        ((_, params, window),) = _load_params(args.params, args.window)
    errors = validate_params(params, window)
    if errors:
        raise ConfigError("; ".join(errors))
    return params, window


def _parse_state(text: str, window: int) -> tuple[int, int]:
    """A lattice state ``t,s`` (0 <= s <= t) inside the window."""
    parts = text.split(",")
    if len(parts) != 2 or not all(map(ASCII_INTEGER.fullmatch, parts)):
        raise ConfigError(f"state {text!r} is not two integers t,s")
    t, s = map(int, parts)
    if not 0 <= s <= t:
        raise ConfigError(f"|{t},{s}> is not a lattice state; need 0 <= s <= t")
    if t > window:
        raise ConfigError(f"|{t},{s}> lies outside window {window}")
    return t, s


def cmd_verify(args) -> int:
    suites = tuple(SUITE_NAMES) if args.suites == "all" \
        else tuple(s.strip() for s in args.suites.split(","))
    param_sets = ()
    if args.rank <= 4:
        param_sets = _load_params(args.params, args.window)
    elif args.params is not None:
        _load_params(args.params, args.window)  # unused, but its keys checked
    cfg = SuiteConfig(rank=args.rank, param_sets=param_sets, suites=suites)
    report = run_suite(cfg)
    # a suite asked for by name must have run; 'all' may include empty ones
    produced = {r.suite for r in report.records}
    empty = [s for s in suites if s not in produced]
    if empty and args.suites != "all":
        raise ConfigError(f"no instance at rank {args.rank} of suite "
                          + ", ".join(empty))
    sys.stdout.buffer.write(emit_report(report, args.format))
    return report.exit_code


def cmd_reduce(args) -> int:
    poly = parse_expr(args.expr, rank=args.rank)
    normal = rewrite_system(args.rank).reduce(poly)
    print(format_poly(normal))
    return 0


def cmd_list_relations(args) -> int:
    for row in relation_catalog(args.rank):
        print(f"{row['family']:20s} {row['payload']:16s} {row['anchor']}")
    return 0


def cmd_jacobi(args) -> int:
    report = run_suite(SuiteConfig(rank=args.rank, suites=("jacobi",)))
    sys.stdout.buffer.write(emit_report(report, args.format))
    return report.exit_code


def cmd_symmetry(args) -> int:
    if args.what == "closure":
        if args.generator is not None:
            raise AlgebraError("closure takes no generator")
        print(f"pentagon action alone: order {symmetry.closure_order('d5')}")
        print(f"index relabeling alone: order {symmetry.closure_order('p4')}")
        print(f"combined closure: order {symmetry.closure_order('both')}")
        print("generators: one rotation, one reflection, and the three"
              " adjacent index swaps")
        return 0
    if args.generator is None:
        raise AlgebraError("orbit needs a generator symbol, e.g. C12 or Om0")
    for name in symmetry.orbit(parse_letter(args.generator), args.group):
        print(name)
    return 0


def cmd_rep_dump(args) -> int:
    params, window = _rep_params(args)
    op = build_operator(parse_letter(args.gen), params, window)
    leaky = op.leaky
    if not op.cols and not leaky:
        # a letter acting as 0 everywhere, as rep apply prints it
        print("0")
        return 0
    for (t, s) in triangle_states(window):
        for (tt, ss), q in sorted(op.column((t, s)).items()):
            print(f"{t} {s} -> {tt} {ss}  {q}")
        # the rest of this state's image lies past the window
        if (t, s) in leaky:
            print(f"{t} {s} -> beyond window {window}")
    return 0


def cmd_rep_apply(args) -> int:
    params, window = _rep_params(args)
    t, s = _parse_state(args.state, window)
    ctx = OperatorContext(params, window)
    op = ctx.eval(parse_expr(args.expr, rank=4))
    if (t, s) in op.leaky:
        raise ConfigError(
            f"state |{t},{s}> is unreliable at window {window}; widen it")
    combo = op.column((t, s))
    if not combo:
        print("0")
        return 0
    for (tt, ss), q in sorted(combo.items()):
        print(f"{tt} {ss}  {q}")
    return 0


def cmd_rep_probe(args) -> int:
    """Scan for parameter-dependent zeros of the raising/lowering factors
    (possible invariant-subspace boundaries).  Informational only."""
    params, window = _rep_params(args)
    hits = []
    for t in range(window + 1):
        if west_factor(params, t) == 0:
            hits.append(f"west factor vanishes for every s at t={t}")
    for line in hits or ["no factor zeros in this window"]:
        print(line)
    return 0


def _integer(text: str) -> int:
    """An integer in ASCII digits; ``int`` alone also takes ``1_000`` and
    other scripts' digits."""
    if not ASCII_INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _window(text: str) -> int:
    window = _integer(text)
    if window < 0:
        raise argparse.ArgumentTypeError(f"window must be >= 0, got {window}")
    return window


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="racah",
        description="construct and mechanically verify the subset-indexed "
                    "quadratic algebras and their lattice representation")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--rank", type=_integer, default=4)
    v.add_argument("--params", help="flat key=value parameter file")
    v.add_argument("--window", type=_window,
                   help="window of the --params set (default: the file's "
                        "window, else 12); without --params, of the generic "
                        "and randomized sets (default 12), the integer set "
                        f"staying at its widest valid window {INTEGER_WINDOW}")
    v.add_argument("--suites", default="all",
                   help="comma list or 'all': " + ", ".join(SUITE_NAMES))
    v.add_argument("--format", choices=("json", "human"), default="json")
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("reduce", help="normal form of an expression")
    r.add_argument("expr")
    r.add_argument("--rank", type=_integer, default=4)
    r.set_defaults(fn=cmd_reduce)

    lr = sub.add_parser("list-relations", help="the machine-readable catalog")
    lr.add_argument("--rank", type=_integer, default=4)
    lr.set_defaults(fn=cmd_list_relations)

    j = sub.add_parser("jacobi", help="double-commutator suite")
    j.add_argument("--rank", type=_integer, default=4)
    j.add_argument("--format", choices=("json", "human"), default="human")
    j.set_defaults(fn=cmd_jacobi)

    s = sub.add_parser("symmetry", help="group actions and closure")
    s.add_argument("what", choices=("closure", "orbit"))
    s.add_argument("generator", nargs="?",
                   help="generator symbol for 'orbit', e.g. C12 or Om0")
    s.add_argument("--group", choices=("d5", "p4", "both"), default="both")
    s.set_defaults(fn=cmd_symmetry)

    rep_window = ("window of the --params set (default: the file's window, "
                  "else 12); without --params, of the integer set "
                  f"(default {INTEGER_WINDOW})")
    rp = sub.add_parser("rep", help="representation inspection")
    rsub = rp.add_subparsers(dest="repcmd", required=True)
    d = rsub.add_parser("dump", help="nonzero entries of one generator")
    d.add_argument("--gen", required=True)
    d.add_argument("--window", type=_window, help=rep_window)
    d.add_argument("--params")
    d.set_defaults(fn=cmd_rep_dump)
    a = rsub.add_parser("apply", help="apply an expression to a state")
    a.add_argument("--expr", required=True)
    a.add_argument("--state", required=True, help="t,s")
    a.add_argument("--window", type=_window, help=rep_window)
    a.add_argument("--params")
    a.set_defaults(fn=cmd_rep_apply)
    pr = rsub.add_parser("probe", help="scan for factor zeros (informational)")
    pr.add_argument("--window", type=_window, help=rep_window)
    pr.add_argument("--params")
    pr.set_defaults(fn=cmd_rep_probe)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
