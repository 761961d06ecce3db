"""Command-line front end.

Exit status: 0 on success/pass, 1 when a check found violations, 2 on usage
or parse errors.  ``--json`` switches output to one canonical JSON document
on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import search, setcore, structure, verify
from .reports import DEFAULT_SEED, render_json
from .setcore import IntSet, SetClass, SetLiteralError, profile, sum_diff_sizes

WORKERS_ENV = "MSTD_WORKERS"

FIB13_TERMS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233)
GEO10_TERMS = tuple(5**k * 3 ** (9 - k) for k in range(10))

GROWTH_PRESETS = {
    "fib13": (FIB13_TERMS, 3, 2, 5),  # terms, r, n, ell
    "geo10": (GEO10_TERMS, 2, 2, 4),
}

VERIFY_CHECKS = ("thm1", "thm2", "thm3", "prop2", "obs6", "lemma3", "deficit", "size5")
EXPLORERS = ("two-ap", "min-additions")


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


def _window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mstd", description="Exact toolkit for sum-dominant (MSTD) set theory."
    )
    top.add_argument("--json", action="store_true", help="emit JSON instead of text")
    top.add_argument(
        "--workers", type=int, default=_default_workers(),
        help=f"parallel workers (default ${WORKERS_ENV} or 1)",
    )
    top.add_argument("--seed", type=int, default=DEFAULT_SEED)
    top.add_argument("--checkpoint", help="checkpoint file for search resume")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a set literal")
    p.add_argument("set")

    p = sub.add_parser("profile", help="full profile of a set literal")
    p.add_argument("set")

    p = sub.add_parser("explain", help="gap vector and difference table")
    p.add_argument("set")

    p = sub.add_parser("search", help="search for minimal sum-dominant sets")
    p.add_argument("--diameter-min", type=int, default=0)
    p.add_argument(
        "--diameter-max", type=int, default=search.DEFAULT_SWEEP_DIAMETER
    )
    p.add_argument("--size-min", type=int)
    p.add_argument("--size-max", type=int)

    p = sub.add_parser("verify", help="run one verification check")
    p.add_argument("check", help=f"one of {', '.join(VERIFY_CHECKS)}")
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--max-diameter", type=int, default=30)
    p.add_argument("--n-max", type=int, help="thm2/deficit default 8, prop2 default 20")
    p.add_argument("--q-max", type=int)
    p.add_argument("--window", type=_window, help="interval LO:HI")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument(
        "--case", action="append", default=[],
        help="explicit grid point 'n,x[,y]' with rational x,y (thm2/deficit only)",
    )
    p.add_argument("--preset", choices=sorted(GROWTH_PRESETS), help="thm3 sequence")
    p.add_argument("--terms", help="thm3 custom terms as a set literal")
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--subset-budget", type=int, default=50)

    p = sub.add_parser("explore", help="run an open-question explorer")
    p.add_argument("explorer", help=f"one of {', '.join(EXPLORERS)}")
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--max-step", type=int, default=5)
    p.add_argument("--max-shift", type=int, default=40)
    p.add_argument("--ap", default="3,4,3", help="first,step,length")
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--window", type=_window, default=(0, 14), help="interval LO:HI")
    return top


def _emit_report(report, as_json: bool) -> int:
    if as_json:
        print(render_json(report.to_json_dict()))
    else:
        print(report.summary_line())
        for v in report.violations:
            print(f"  violation: {v['set']}  [{v['context']}]")
        for note in report.notes:
            print(f"  note: {note}")
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    a = IntSet.parse(args.set)
    nsum, ndiff = sum_diff_sizes(a)
    cls = SetClass.from_sizes(nsum, ndiff)
    if args.json:
        payload = {
            "set": str(a),
            "class": cls.value,
            "sum_size": nsum,
            "diff_size": ndiff,
        }
        print(render_json(payload))
    else:
        print(f"{cls.value} ({nsum} sums vs {ndiff} differences)")
    return 0


def _cmd_profile(args) -> int:
    a = IntSet.parse(args.set)
    prof = profile(a)
    if args.json:
        print(render_json({"set": str(a), **prof.to_json_dict()}))
    else:
        for key, val in prof.to_json_dict().items():
            print(f"{key}: {val}")
    return 0


def _cmd_explain(args) -> int:
    a = IntSet.parse(args.set)
    if len(a) < 2:
        print("set has fewer than 2 elements; no gaps to explain", file=sys.stderr)
        return 2
    gv = structure.gaps(a)
    table = structure.difference_table(a)
    if args.json:
        payload = {
            "set": str(a),
            "gaps": list(gv.gaps),
            "difference_table": [list(r) for r in table.rows],
        }
        print(render_json(payload))
    else:
        print(f"set: {a}")
        print(f"gaps: {','.join(str(g) for g in gv.gaps)}")
        print("difference table (positive differences as partial gap sums):")
        print(table.render())
    return 0


def _cmd_search(args) -> int:
    config = search.SearchConfig(
        diameter_min=args.diameter_min,
        diameter_max=args.diameter_max,
        size_min=args.size_min,
        size_max=args.size_max,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
    )
    result = search.find_min_mstd(config)
    if args.json:
        print(render_json(result.to_json_dict()))
    else:
        print(
            f"searched diameters [{config.diameter_min},{config.diameter_max}]: "
            f"{result.sets_examined} canonical sets"
        )
        if result.min_mstd_size is None:
            print("no sum-dominant set in this range")
        else:
            print(f"minimal sum-dominant cardinality: {result.min_mstd_size}")
            for w, prof in result.witnesses:
                print(f"  witness: {w}  (|A+A|={prof.sum_size}, |A-A|={prof.diff_size})")
    return 0


def _parse_cases(raw_cases, want_pair: bool):
    cases = []
    for text in raw_cases:
        parts = [t.strip() for t in text.split(",")]
        want = 3 if want_pair else 2
        if len(parts) != want:
            raise SetLiteralError(f"expected {want} fields in case {text!r}", 1)
        try:
            n = int(parts[0])
            xs = [Fraction(p) for p in parts[1:]]
        except (ValueError, ZeroDivisionError) as exc:
            raise SetLiteralError(f"bad case {text!r}: {exc}", 1) from None
        cases.append((n, *xs))
    return cases


def _cmd_verify(args) -> int:
    check = args.check
    if check == "thm1":
        report = verify.verify_small_cardinality(
            args.max_size, args.max_diameter, workers=args.workers
        )
    elif check == "thm2":
        if args.case:
            report = verify.verify_points(
                "ap-plus-two", f"{len(args.case)} explicit cases",
                verify.ap_plus_two_violation, _parse_cases(args.case, True),
            )
        else:
            report = verify.verify_ap_plus_two(
                args.n_max or 8, args.window, args.q_max or 2
            )
    elif check == "deficit":
        if args.case:
            report = verify.verify_points(
                "insertion-deficit", f"{len(args.case)} explicit cases",
                verify.insertion_deficit_violation, _parse_cases(args.case, False),
            )
        else:
            report = verify.verify_insertion_deficit(
                args.n_max or 8, args.window, args.q_max or 4
            )
    elif check == "prop2":
        report = verify.verify_proposition2(args.n_max or 20)
    elif check == "obs6":
        report = verify.verify_observation6(args.trials, seed=args.seed)
    elif check == "lemma3":
        report = verify.verify_symmetric_balanced(args.max_diameter)
    elif check == "thm3":
        if args.preset:
            terms, r, n, ell = GROWTH_PRESETS[args.preset]
        else:
            if not (args.terms and args.r is not None
                    and args.n is not None and args.ell is not None):
                print(
                    "thm3 needs --preset or all of --terms/--r/--n/--ell",
                    file=sys.stderr,
                )
                return 2
            terms = tuple(IntSet.parse(args.terms).elements)
            r, n, ell = args.r, args.n, args.ell
        seq = verify.GrowthSequence(terms, r)
        params = verify.Theorem3Params(
            r=r, n=n, ell=ell, m=args.m, window=args.window or (-50, 100)
        )
        report = verify.verify_growth_criterion(
            seq, params, subset_budget=args.subset_budget, seed=args.seed
        )
    elif check == "size5":
        report = verify.verify_size5_witnesses()
    else:
        print(
            f"unknown check {check!r}; valid checks: {', '.join(VERIFY_CHECKS)}",
            file=sys.stderr,
        )
        return 2
    return _emit_report(report, args.json)


def _cmd_explore(args) -> int:
    if args.explorer == "two-ap":
        report = search.explore_two_ap_unions(
            args.max_len, args.max_step, args.max_shift
        )
    elif args.explorer == "min-additions":
        first, step, length = (int(t) for t in args.ap.split(","))
        report = search.explore_min_additions(
            setcore.APSpec(first, step, length), args.k_max, args.window
        )
    else:
        print(
            f"unknown explorer {args.explorer!r}; valid: {', '.join(EXPLORERS)}",
            file=sys.stderr,
        )
        return 2
    return _emit_report(report, args.json)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "explore":
            return _cmd_explore(args)
        parser.error(f"unknown command {args.command!r}")
    except SetLiteralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
