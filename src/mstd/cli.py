"""Command-line front end.

Exit status: 0 on success/pass, 1 when a check found violations, 2 on usage
or parse errors.  ``--json`` switches output to one canonical JSON document
on stdout.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import search, setcore, structure, verify
from .reports import DEFAULT_SEED, render_json
from .setcore import IntSet, SetClass, SetLiteralError, profile, sum_diff_sizes

# The options each verify check and explorer takes.  _given passes the ones
# the user set and refuses the rest, so no option is dropped silently.
OPTIONS = {
    "verify": {
        "thm1": ("max_size", "max_diameter"),
        "thm2": ("n_max", "window", "q_max", "case"),
        "thm3": ("preset", "terms", "r", "n", "ell", "m", "window", "subset_budget"),
        "prop2": ("n_max",),
        "obs6": ("trials",),
        "lemma3": ("max_diameter",),
        "deficit": ("n_max", "window", "q_max", "case"),
        "size5": (),
        "all": (),
    },
    "explore": {
        "two-ap": ("max_len", "max_step", "max_shift"),
        "min-additions": ("ap", "k_max", "window"),
    },
}


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


def _build_parser() -> argparse.ArgumentParser:
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

    # Verify and explore options default to None: only the options the user
    # sets are passed on, so each verifier's signature holds its default grid.
    p = sub.add_parser("verify", help="run one verification check, or all of them")
    p.add_argument("check", choices=OPTIONS["verify"])
    p.add_argument("--max-size", type=int)
    p.add_argument("--max-diameter", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--q-max", type=int)
    p.add_argument("--window", type=_window, help="interval LO:HI")
    p.add_argument("--trials", type=int)
    p.add_argument(
        "--case", action="append",
        help="explicit grid point 'n,x[,y]' with rational x,y (thm2/deficit only)",
    )
    p.add_argument(
        "--preset", choices=sorted(verify.GROWTH_PRESETS), help="thm3 sequence"
    )
    p.add_argument("--terms", help="thm3 custom terms as a set literal")
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--subset-budget", type=int)

    p = sub.add_parser("explore", help="run an open-question explorer")
    p.add_argument("explorer", choices=OPTIONS["explore"])
    p.add_argument("--max-len", type=int)
    p.add_argument("--max-step", type=int)
    p.add_argument("--max-shift", type=int)
    p.add_argument("--ap", type=_ap, help="first,step,length")
    p.add_argument("--k-max", type=int)
    p.add_argument("--window", type=_window, help="interval LO:HI")
    return top


def _flags(names) -> str:
    return ", ".join("--" + k.replace("_", "-") for k in names)


def _given(args, choice: str) -> dict:
    """The options the user set, as keyword arguments for ``choice``.

    An option that ``choice`` does not take is a usage error that names it.
    """
    table = OPTIONS[args.command]
    names = dict.fromkeys(k for opts in table.values() for k in opts)
    given = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    foreign = [k for k in given if k not in table[choice]]
    if foreign:
        raise ValueError(f"{args.command} {choice} does not take {_flags(foreign)}")
    return given


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
    opts = _given(args, check)
    if check == "all":
        reports = verify.verify_all(seed=args.seed, workers=args.workers)
        if args.json:
            print(render_json({"reports": [r.to_json_dict() for r in reports]}))
            return 0 if all(r.passed for r in reports) else 1
        return max([_emit_report(r, False) for r in reports])
    cases = opts.pop("case", None)
    if cases and opts:
        raise ValueError(f"--case does not combine with {_flags(opts)}")
    if check == "thm1":
        report = verify.verify_small_cardinality(**opts, workers=args.workers)
    elif check == "thm2":
        if cases:
            report = verify.verify_points(
                "ap-plus-two", f"{len(cases)} explicit cases",
                verify.ap_plus_two_violation, _parse_cases(cases, True),
            )
        else:
            report = verify.verify_ap_plus_two(**opts)
    elif check == "deficit":
        if cases:
            report = verify.verify_points(
                "insertion-deficit", f"{len(cases)} explicit cases",
                verify.insertion_deficit_violation, _parse_cases(cases, False),
            )
        else:
            report = verify.verify_insertion_deficit(**opts)
    elif check == "prop2":
        report = verify.verify_proposition2(**opts)
    elif check == "obs6":
        report = verify.verify_observation6(**opts, seed=args.seed)
    elif check == "lemma3":
        report = verify.verify_symmetric_balanced(**opts)
    elif check == "thm3":
        report = _run_thm3(opts, args.seed)
    else:
        report = verify.verify_size5_witnesses()
    return _emit_report(report, args.json)


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


def _cmd_explore(args) -> int:
    opts = _given(args, args.explorer)
    if args.explorer == "two-ap":
        report = search.explore_two_ap_unions(**opts)
    else:
        report = search.explore_min_additions(**opts)
    return _emit_report(report, args.json)


COMMANDS = {
    "classify": _cmd_classify,
    "profile": _cmd_profile,
    "explain": _cmd_explain,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "explore": _cmd_explore,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:
        # SetLiteralError is a ValueError: parse errors exit 2 like usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
