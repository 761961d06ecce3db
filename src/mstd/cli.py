"""Command-line front end.

Exit status: 0 on success/pass, 1 when a check found violations, 2 on usage
or parse errors and on a checkpoint file that cannot be opened.  ``--json``
switches output to one canonical JSON document on stdout.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import search, setcore, structure, verify
from .reports import DEFAULT_SEED, render_json
from .setcore import IntSet, SetClass, SetLiteralError, profile, sum_diff_sizes


def _window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None


def _workers(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _ap(text: str) -> setcore.APSpec:
    try:
        first, step, length = (int(t) for t in text.split(","))
        return setcore.APSpec(first, step, length)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected FIRST,STEP,LENGTH with STEP, LENGTH >= 1, got {text!r}"
        ) from None


# add_argument keywords of each verify check and explorer option, by dest
OPTION_SPECS = {
    **dict.fromkeys(
        ("max_size", "max_diameter", "n_max", "q_max", "trials", "r", "n", "ell",
         "m", "subset_budget", "max_len", "max_step", "max_shift", "k_max"),
        {"type": int},
    ),
    "window": {"type": _window, "help": "interval LO:HI"},
    "case": {
        "action": "append", "help": "explicit grid point n,x[,y]; x, y integers or p/q"
    },
    "preset": {"choices": sorted(verify.GROWTH_PRESETS), "help": "growth sequence"},
    "terms": {"help": "custom growth terms as a set literal"},
    "ap": {"type": _ap, "help": "first,step,length"},
}

# Each check and explorer: the options it takes, and what it runs given the
# options the user set and the parsed arguments.  The lambdas look verify.*
# and search.* up when they run.
CHECKS = {
    "thm1": (("max_size", "max_diameter"),
             lambda o, a: verify.verify_small_cardinality(**o, workers=a.workers)),
    "thm2": (("n_max", "window", "q_max", "case"),
             lambda o, a: verify.verify_ap_plus_two(**o)),
    "thm3": (("preset", "terms", "r", "n", "ell", "m", "window", "subset_budget"),
             lambda o, a: _run_thm3(o, a.seed)),
    "prop2": (("n_max",), lambda o, a: verify.verify_proposition2(**o)),
    "obs6": (("trials",), lambda o, a: verify.verify_observation6(**o, seed=a.seed)),
    "lemma3": (("max_diameter",), lambda o, a: verify.verify_symmetric_balanced(**o)),
    "deficit": (("n_max", "window", "q_max", "case"),
                lambda o, a: verify.verify_insertion_deficit(**o)),
    "size5": ((), lambda o, a: verify.verify_size5_witnesses()),
}
EXPLORERS = {
    "two-ap": (("max_len", "max_step", "max_shift"),
               lambda o, a: search.explore_two_ap_unions(**o)),
    "min-additions": (("ap", "k_max", "window"),
                      lambda o, a: search.explore_min_additions(**o)),
}
# the checks that take --case: report name, point predicate, fields per case
CASES = {
    "thm2": ("ap-plus-two", verify.ap_plus_two_violation, 3),
    "deficit": ("insertion-deficit", verify.insertion_deficit_violation, 2),
}

# read a token with a leading minus, such as the set -3,5 or the window -2:3,
# as a value, not an option; argparse's own test admits only a lone negative
# number
_LEADING_MINUS = re.compile(r"^-\d")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built at the first call and shared by every later one.

    Callers only parse with it; one that added to it would change it for all.
    """
    top = argparse.ArgumentParser(
        prog="mstd", description="Exact toolkit for sum-dominant (MSTD) set theory."
    )
    top.add_argument("--json", action="store_true", help="emit JSON instead of text")
    top.add_argument(
        "--workers", type=_workers, default=1, help="parallel workers (default 1)"
    )
    top.add_argument("--seed", type=int, default=DEFAULT_SEED)
    top.add_argument("--checkpoint", help="checkpoint file for search resume")
    sub = top.add_subparsers(dest="command", required=True)

    for name, cmd, text in (
        ("classify", _cmd_classify, "classify a set literal"),
        ("profile", _cmd_profile, "full profile of a set literal"),
        ("explain", _cmd_explain, "gap vector and difference table"),
    ):
        p = sub.add_parser(name, help=text)
        p._negative_number_matcher = _LEADING_MINUS
        p.add_argument("set")
        p.set_defaults(cmd=cmd)

    p = sub.add_parser("search", help="search for minimal sum-dominant sets")
    p.add_argument("--diameter-min", type=int, default=0)
    p.add_argument(
        "--diameter-max", type=int, default=search.DEFAULT_SWEEP_DIAMETER
    )
    p.add_argument("--size-min", type=int)
    p.add_argument("--size-max", type=int)
    p.set_defaults(cmd=_cmd_search)

    p = sub.add_parser("verify", help="run one verification check, or all of them")
    checks = p.add_subparsers(dest="check", required=True)
    _add_runs(checks, CHECKS)
    checks.add_parser("all", allow_abbrev=False).set_defaults(cmd=_cmd_verify_all)
    p = sub.add_parser("explore", help="run an open-question explorer")
    _add_runs(p.add_subparsers(dest="explorer", required=True), EXPLORERS)
    return top


def _add_runs(sub, table: dict) -> None:
    """One subcommand per entry of ``table``, declaring only its options.

    Options default to None, and only the ones the user sets are passed on,
    so each verifier's signature holds its default grid.  No abbreviations:
    thm3's --n would otherwise be read as --n-max elsewhere.
    """
    for name, (options, run) in table.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p._negative_number_matcher = _LEADING_MINUS
        for opt in options:
            p.add_argument("--" + opt.replace("_", "-"), **OPTION_SPECS[opt])
        p.set_defaults(cmd=_cmd_run, options=options, run=run)


def _flags(names) -> str:
    return ", ".join("--" + k.replace("_", "-") for k in names)


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
    gaps = structure.gaps(a)
    table = structure.difference_table(a)
    if args.json:
        payload = {
            "set": str(a),
            "gaps": gaps,
            "difference_table": table,
        }
        print(render_json(payload))
    else:
        print(f"set: {a}")
        print(f"gaps: {','.join(str(g) for g in gaps)}")
        print("difference table (positive differences as partial gap sums):")
        print(structure.render_difference_table(table))
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


def _parse_cases(raw_cases, arity: int) -> list[tuple]:
    """Each case 'n,x[,y]' in the set-literal grammar: integers and p/q."""
    cases = []
    for text in raw_cases:
        try:
            case = setcore._parse_tokens(text, allow_rational=True)
        except SetLiteralError as exc:
            raise SetLiteralError(f"bad case {text!r}: {exc}", exc.position) from None
        if len(case) != arity:
            raise SetLiteralError(f"bad case {text!r}: expected {arity} fields", 1)
        if not isinstance(case[0], int):
            raise SetLiteralError(f"bad case {text!r}: n must be an integer", 1)
        cases.append(tuple(case))
    return cases


def _cmd_run(args) -> int:
    """Run a verify check or an explorer on the options the user set."""
    opts = {k: getattr(args, k) for k in args.options if getattr(args, k) is not None}
    cases = opts.pop("case", None)
    if cases and opts:
        raise ValueError(f"--case does not combine with {_flags(opts)}")
    if cases:
        check, predicate, arity = CASES[args.check]
        report = verify.verify_points(
            check, f"{len(cases)} explicit cases", predicate, _parse_cases(cases, arity)
        )
    else:
        report = args.run(opts, args)
    return _emit_report(report, args.json)


def _cmd_verify_all(args) -> int:
    reports = verify.verify_all(seed=args.seed, workers=args.workers)
    if args.json:
        print(render_json({"reports": [r.to_json_dict() for r in reports]}))
        return 0 if all(r.passed for r in reports) else 1
    return max([_emit_report(r, False) for r in reports])


def _run_thm3(opts: dict, seed: int):
    preset = opts.pop("preset", None)
    own = {k: opts.pop(k) for k in ("terms", "r", "n", "ell") if k in opts}
    if preset and own:
        raise ValueError(f"--preset does not combine with {_flags(own)}")
    if preset:
        terms, r, n, ell = verify.GROWTH_PRESETS[preset]
    elif len(own) == 4:
        terms = IntSet.parse(own["terms"]).elements
        r, n, ell = own["r"], own["n"], own["ell"]
    else:
        raise ValueError("thm3 needs --preset or all of --terms/--r/--n/--ell")
    params = verify.Theorem3Params(
        r, n, ell, **{k: opts.pop(k) for k in ("m", "window") if k in opts}
    )
    return verify.verify_growth_criterion(
        verify.GrowthSequence(terms, r), params, **opts, seed=seed
    )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.checkpoint is not None and args.command != "search":
            raise ValueError(f"{args.command} does not take --checkpoint; search does")
        return args.cmd(args)
    except (ValueError, OSError) as exc:
        # SetLiteralError is a ValueError: parse errors exit 2 like usage
        # errors, and so does a checkpoint path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # 128 + SIGINT, the shell's status for a command ended by Ctrl-C
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
