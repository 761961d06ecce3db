import ast
import hashlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mstd.cli import main
from mstd.reports import render_json
from conftest import A1, record_kernel


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# options the chosen check or explorer does not take, and the refusal for each:
# argparse's for an option its parser does not declare, the CLI's own for
# declared options that do not combine
FOREIGN_OPTIONS = [
    (["--json", "verify", "size5", "--n-max", "3", "--trials", "0"],
     "unrecognized arguments: --n-max 3 --trials 0"),
    (["verify", "all", "--max-size", "7"], "unrecognized arguments: --max-size 7"),
    (["explore", "two-ap", "--k-max", "3"], "unrecognized arguments: --k-max 3"),
    (["verify", "thm2", "--case", "5,6,6", "--n-max", "3"],
     "--case does not combine with --n-max"),
    (["verify", "thm3", "--preset", "fib13", "--r", "2"],
     "--preset does not combine with --r"),
]


A1_TEXT = ",".join(map(str, A1))
A1_REFLECTED = "0,2,3,7,10,11,12,14"


def _examine_100_more(rec):
    rec["tallies"]["examined"] += 100


class TestClassify:
    def test_sum_dominant_line(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "0,2,3,4,7,11,12,14")
        assert code == 0
        assert out.strip() == "sum-dominant (26 sums vs 25 differences)"

    def test_balanced(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "0,1,2,4,5")
        assert code == 0
        assert out.strip() == "balanced (11 sums vs 11 differences)"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "0,,1")
        assert code == 2
        assert "position 2" in err

    def test_rational_rejected_outside_verify(self, capsys):
        code, _, err = run_cli(capsys, "classify", "0,1/2")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "classify", "0,1,3")
        payload = json.loads(out)
        assert payload == {
            "set": "0,1,3",
            "class": "difference-dominant",
            "sum_size": 6,
            "diff_size": 7,
        }


class TestProfileExplain:
    def test_profile_json_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "profile", "0,2,3,4,7,11,12,14")
        assert code == 0
        assert render_json(json.loads(out)) == out.strip()

    def test_explain_renders_table(self, capsys):
        code, out, _ = run_cli(capsys, "explain", "0,1,3")
        assert code == 0
        assert "gaps: 1,2" in out
        lines = [l.strip() for l in out.splitlines() if l.strip()]
        assert lines[-2].split() == ["0", "1", "3"]
        assert lines[-1].split() == ["2"]

    @pytest.mark.parametrize(
        "argv, first_line",
        [
            (["classify", "-3,5"], "balanced (3 sums vs 3 differences)"),
            (["--json", "profile", "-5,0,1000,1001"],
             '{"set":"-5,0,1000,1001","size":4,"sum_size":10,"diff_size":13,'),
            (["explain", "-3,5"], "set: -3,5"),
        ],
        ids=["classify", "profile", "explain"],
    )
    def test_literal_with_a_leading_minus_is_the_set(self, capsys, argv, first_line):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out.splitlines()[0].startswith(first_line)
        assert run_cli(capsys, *argv[:-1], "--", argv[-1]) == (code, out, err)

    @pytest.mark.parametrize("command", ["classify", "profile", "explain"])
    def test_set_command_help_still_prints(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "-h")
        assert code == 0 and out.startswith(f"usage: mstd {command} [-h] set")

    def test_explain_singleton_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "explain", "5")
        assert code == 2 and out == ""
        assert err == "error: gap vector requires a set with at least 2 elements\n"


class TestVerifyCommand:
    def test_thm1_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm1", "--max-size", "5", "--max-diameter", "30"
        )
        assert code == 0
        assert "PASS" in out

    def test_unknown_check_lists_names(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nope")
        assert code == 2
        assert "thm1" in err and "size5" in err

    def test_thm2_explicit_cases_with_rationals(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "verify", "thm2",
            "--case", "5,6,6", "--case", "3,1/2,3/2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cases"] == 2 and payload["violations"] == []

    def test_deficit_case(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "deficit", "--case", "4,3/4")
        assert code == 0
        assert json.loads(out)["violations"] == []

    @pytest.mark.parametrize("case", ["5,1/2", "5,-3/2", "5,-1", "5,0", "5,5", "1,3/4"])
    def test_deficit_case_outside_the_claim_is_usage_error(self, capsys, case):
        code, out, err = run_cli(
            capsys, "verify", "deficit", "--case", "4,3/4", "--case", case
        )
        assert code == 2 and out == ""
        assert "claims nothing" in err

    @pytest.mark.parametrize(
        "case, message",
        [("4,0.75", "invalid token '0.75' at position 2"),
         ("4,1e-1", "invalid token '1e-1' at position 2"),
         ("4/1,3/4", "n must be an integer"),
         ("4,3/4,1", "expected 2 fields")],
        ids=["decimal", "exponent", "rational-n", "three-fields"],
    )
    def test_case_takes_the_set_literal_grammar(self, capsys, case, message):
        # integers and p/q only, as in a rational set literal
        code, out, err = run_cli(capsys, "verify", "deficit", "--case", case)
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad case {case!r}: {message}")

    def test_thm2_case_needs_a_segment(self, capsys):
        code, _, err = run_cli(capsys, "verify", "thm2", "--case", "0,1,2")
        assert code == 2 and "n >= 1" in err

    def test_case_path_uses_the_grid_predicate(self, capsys, monkeypatch):
        # the --case path and the grid reach one predicate, which classifies
        # with sizes_of: forcing it makes both report a violation
        from mstd import verify

        record_kernel(monkeypatch, verify, "sizes_of", force=True)
        code, out, _ = run_cli(capsys, "--json", "verify", "deficit", "--case", "4,3/4")
        assert code == 1
        violation = json.loads(out)["violations"][0]
        assert (violation["set"], violation["context"]) == ("0,3,4,8,12", "n=4 x=3/4")
        assert not verify.verify_insertion_deficit(2, window=(3, 3), q_max=1).passed

    def test_size5(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "size5")
        payload = json.loads(out)
        assert code == 0 and payload["cases"] == 2

    def test_obs6_seed_echoed(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "--seed", "99", "verify", "obs6", "--trials", "500"
        )
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_thm3_preset(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "thm3", "--preset", "fib13")
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == []
        assert any("45" in n for n in payload["notes"])

    def test_thm3_needs_params(self, capsys):
        code, _, err = run_cli(capsys, "verify", "thm3")
        assert code == 2

    def test_report_json_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "--json", "verify", "prop2")
        assert render_json(json.loads(out)) == out.strip()

    @pytest.mark.parametrize("argv", [
        ["verify", "prop2", "--n-max", "0"],
        ["verify", "thm2", "--q-max", "0"],
        ["verify", "thm2", "--n-max", "0", "--window", "0:1"],
        ["verify", "deficit", "--q-max", "0"],
        ["verify", "thm2", "--window", "10:0"],
        ["verify", "deficit", "--window", "10:0"],
        ["explore", "min-additions", "--window", "14:0"],
        ["verify", "thm3", "--terms", "0,1,2,3,5,8,13,21,34,55,89,144,233,377,610",
         "--r", "3", "--n", "2", "--ell", "5", "--subset-budget", "-3"],
        ["verify", "thm3", "--terms",
         "0,1,3,7,15,31,63,127,255,511,1023,2047,4095,8191,16383,32767,65535",
         "--r", "1", "--n", "5", "--ell", "10", "--m", "2", "--window", "0:0"],
    ], ids=" ".join)
    def test_empty_grid_is_usage_error(self, capsys, argv):
        # explicit zeros reach the verifier instead of falling back to its
        # default, a window with lo > hi is refused rather than passing over
        # 0 cases, a negative subset budget is refused, not run as 0, and so
        # is a window too small to sample m distinct insertions from
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv,refusal", FOREIGN_OPTIONS, ids=[" ".join(a) for a, _ in FOREIGN_OPTIONS]
    )
    def test_option_the_check_does_not_take_is_usage_error(self, capsys, argv, refusal):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        # argparse prints the usage line before its refusal
        assert err.endswith(f"error: {refusal}\n")
        assert err.startswith("usage: mstd ") == refusal.startswith("unrecognized")

    @pytest.mark.parametrize(
        "argv",
        [["thm2", "--n", "2"], ["deficit", "--n", "2"], ["prop2", "--n", "2"],
         ["thm2", "--q", "1"], ["thm1", "--max-s", "3"]],
        ids=" ".join,
    )
    def test_check_options_do_not_abbreviate(self, capsys, argv):
        # thm3's --n is not --n-max, and no prefix stands for an option
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[1:])}\n")

    def test_check_help_lists_only_its_options(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm2", "-h")
        assert code == 0
        assert all(f in out for f in ("--n-max", "--q-max", "--window", "--case"))
        assert not any(f in out for f in ("--trials", "--preset", "--max-size"))

    def test_no_flags_run_the_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "lemma3")
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"].endswith("diameter<=30")
        assert payload["cases"] == 98_302

    def test_verify_all(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "verify", "all")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["check"] for r in reports] == [
            "small-cardinality", "small-cardinality", "ap-plus-two",
            "insertion-deficit", "insertion-delta-exactness",
            "equal-pair-inequality", "symmetric-balanced", "growth-criterion",
            "growth-criterion", "size5-witnesses", "two-ap-unions", "min-additions",
        ]
        assert [r["cases"] for r in reports] == [
            14_891, 29_982, 10_748, 833, 190, 104_096,
            3_070, 7_250, 999, 2, 43_740, 940,
        ]
        assert all(r["violations"] == [] for r in reports)
        # pins every grid, note and seed: the sha256 of the document without
        # elapsed_ms, recorded while thm2 and deficit scaled through RationalSet
        for r in reports:
            del r["elapsed_ms"]
        doc = render_json({"reports": reports}).encode()
        assert hashlib.sha256(doc).hexdigest() == (
            "98ada159fed7bc22ae24e7c3ff26e8e8da4e6c3624c7e38ef13c05b286b985eb"
        )

    def test_verify_all_fails_if_any_report_fails(self, capsys, monkeypatch):
        from mstd import IntSet, verify
        from mstd.reports import VerificationReport

        clean = VerificationReport(check="clean", grid="g", cases=1)
        dirty = VerificationReport(check="dirty", grid="g", cases=1)
        dirty.add_violation(IntSet((0, 2, 3, 4, 7, 11, 12, 14)), "forced")
        monkeypatch.setattr(verify, "verify_all", lambda seed, workers: [clean, dirty])
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 1
        summaries = [l for l in out.splitlines() if not l.startswith(" ")]
        assert summaries == [clean.summary_line(), dirty.summary_line()]

    def test_exit_code_is_pure_function_of_report(self, capsys):
        from mstd import IntSet
        from mstd.cli import _emit_report
        from mstd.reports import VerificationReport

        clean = VerificationReport(check="x", grid="g", cases=1)
        assert _emit_report(clean, as_json=False) == 0
        dirty = VerificationReport(check="x", grid="g", cases=1)
        dirty.add_violation(IntSet((0, 2, 3, 4, 7, 11, 12, 14)), "forced")
        assert _emit_report(dirty, as_json=True) == 1
        capsys.readouterr()


class TestSearchCommand:
    def test_search_diameter14(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "search", "--diameter-max", "14")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_mstd_size"] == 8
        assert payload["witnesses"][0]["set"] == "0,2,3,4,7,11,12,14"
        assert payload["config"]["diameter_max"] == 14

    def test_search_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--diameter-max", "13")
        assert code == 0
        assert "no sum-dominant set" in out

    @pytest.mark.skipif(os.name != "posix", reason="signals a POSIX process group")
    def test_ctrl_c_exits_130_and_the_resume_matches_a_fresh_sweep(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        search = [sys.executable, "-m", "mstd", "--json", "--workers", "2"]
        argv = ["search", "--diameter-max", "26"]
        resumable = [*search, "--checkpoint", str(path), *argv]
        # its own process group, which SIGINT reaches whole, as Ctrl-C
        # reaches a terminal's foreground group: the workers see it too
        proc = subprocess.Popen(
            resumable, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        deadline = time.monotonic() + 60
        # the header and one partition: the sweep is under way
        while not (path.exists() and path.read_bytes().count(b"\n") >= 2):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (130, "", "interrupted\n")
        resumed = subprocess.run(resumable, capture_output=True, text=True)
        fresh = subprocess.run([*search, *argv], capture_output=True, text=True)
        assert resumed.returncode == fresh.returncode == 0
        assert resumed.stdout == fresh.stdout
        assert json.loads(fresh.stdout)["sets_examined"] == 33_562_330

    @pytest.mark.parametrize(
        "where, message",
        [("no/such/dir/x.jsonl", "[Errno 2] No such file or directory"),
         ("", "[Errno 21] Is a directory")],
        ids=["missing-directory", "directory"],
    )
    def test_checkpoint_that_cannot_be_opened_exits_2(self, tmp_path, where, message):
        path = tmp_path / where
        proc = subprocess.run(
            [sys.executable, "-m", "mstd", "--checkpoint", str(path),
             "search", "--diameter-max", "5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {message}: '{path}'\n"
        assert "Traceback" not in proc.stderr

    def test_checkpoint_of_another_config_exits_2(self, capsys, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        argv = ["--checkpoint", path, "search", "--diameter-max", "10"]
        assert run_cli(capsys, *argv, "--size-max", "5")[0] == 0
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "another search" in err

    def test_checkpoint_of_format_2_exits_2(self, capsys, tmp_path):
        # format 2 partitioned on the smallest elements; its records name
        # other partitions, so the file is refused before any of them is read
        path = tmp_path / "ck.jsonl"
        argv = ["--checkpoint", str(path), "search", "--diameter-max", "10"]
        assert run_cli(capsys, *argv)[0] == 0
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == 3
        header["format"] = 2
        written = "\n".join([json.dumps(header), *lines[1:]]) + "\n"
        path.write_text(written)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (
            f"error: checkpoint {path} has format 2; this version reads "
            "format 3 only; use a new file\n"
        )
        assert path.read_text() == written

    @pytest.mark.parametrize("bad", ['{"oops": 1}', "5"], ids=["no-fields", "int"])
    def test_malformed_checkpoint_record_exits_2(self, capsys, tmp_path, bad):
        path = tmp_path / "ck.jsonl"
        argv = ["--checkpoint", str(path), "search", "--diameter-max", "6"]
        assert run_cli(capsys, *argv)[0] == 0
        lines = path.read_text().splitlines()
        lines[2] = bad
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error: checkpoint" in err and "line 3 is not a partition record" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_examine_100_more, "line 9 repeats partition 6/0"),
            (lambda rec: rec.update(partition_id="99/0"),
             "line 9 is not a partition of this search"),
        ],
        ids=["repeated", "foreign"],
    )
    def test_checkpoint_record_of_no_new_partition_exits_2(
        self, capsys, tmp_path, edit, message
    ):
        path = tmp_path / "ck.jsonl"
        argv = ["--json", "--checkpoint", str(path), "search", "--diameter-max", "6"]
        assert run_cli(capsys, *argv)[0] == 0
        lines = path.read_text().splitlines()
        rec = json.loads(lines[-1])
        edit(rec)
        path.write_text("\n".join([*lines, json.dumps(rec)]) + "\n")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"error: checkpoint {path}: {message}" in err


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.update(sum_dominant=["0,1,2"]),
             "line 8 lists '0,1,2', not a sum-dominant set of diameter 6"),
            (lambda t: t.update(examined=-30), "line 8 examined -30 sets but lists 0"),
            (lambda t: t.update(sum_dominant=["x"]), "line 8 lists 'x': invalid token"),
        ],
        ids=["balanced-set", "negative-examined", "unparseable-set"],
    )
    def test_checkpoint_record_with_unsound_tallies_exits_2(
        self, capsys, tmp_path, edit, message
    ):
        path = tmp_path / "ck.jsonl"
        argv = ["--json", "--checkpoint", str(path), "search", "--diameter-max", "6"]
        assert run_cli(capsys, *argv)[0] == 0
        lines = path.read_text().splitlines()
        rec = json.loads(lines[-1])
        edit(rec["tallies"])
        path.write_text("\n".join([*lines[:-1], json.dumps(rec)]) + "\n")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"error: checkpoint {path}: {message}" in err

    @pytest.mark.parametrize(
        "listed, message",
        [
            ([A1_TEXT, A1_TEXT, A1_REFLECTED],
             f"line 16 lists '{A1_TEXT}' twice or out of order"),
            ([A1_REFLECTED],
             f"line 16 lists '{A1_REFLECTED}', not a canonical class of "
             "partition 14/0"),
        ],
        ids=["duplicate", "reflection"],
    )
    def test_checkpoint_record_listing_a_set_the_walk_does_not_exits_2(
        self, capsys, tmp_path, listed, message
    ):
        # each listed set is sum-dominant and of the record's diameter, but
        # a resume that took them would count A1 more than once
        path = tmp_path / "ck.jsonl"
        argv = ["--json", "--checkpoint", str(path), "search", "--diameter-max", "14"]
        assert run_cli(capsys, *argv)[0] == 0
        lines = path.read_text().splitlines()
        rec = json.loads(lines[-1])
        assert rec["partition_id"] == "14/0"
        assert A1_TEXT in rec["tallies"]["sum_dominant"]
        rec["tallies"]["sum_dominant"] = listed
        path.write_text("\n".join([*lines[:-1], json.dumps(rec)]) + "\n")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"error: checkpoint {path}: {message}" in err

    def test_checkpoint_record_of_a_set_outside_its_partition_exits_2(
        self, capsys, tmp_path
    ):
        # at d = 17 the key decides the pair (1, 16): 17/0 holds the classes
        # with neither, 17/1 those with 1 alone and 17/3 those with both
        listed = "0,1,2,3,5,6,11,14,15,16,17"  # sum-dominant, canonical
        space = {"diameter_min": 17, "diameter_max": 17}
        records = [
            {"format": 3, "config": {**space, "size_min": None, "size_max": None}},
            {"partition_id": "17/0", "diameter": 17,
             "tallies": {"examined": 8255, "sum_dominant": [listed]}},
        ]
        path = tmp_path / "ck.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, out, err = run_cli(
            capsys, "--json", "--checkpoint", str(path),
            "search", "--diameter-min", "17", "--diameter-max", "17",
        )
        assert code == 2 and out == ""
        assert (
            f"error: checkpoint {path}: line 2 lists '{listed}', "
            "not a canonical class of partition 17/0"
        ) in err

    def test_checkpoint_record_of_a_set_outside_the_size_bounds_exits_2(
        self, capsys, tmp_path
    ):
        # A1 is a sum-dominant canonical class of partition 14/0, but it has 8
        # elements: a resume that took it would report it from a size <= 7 search
        path = tmp_path / "ck.jsonl"
        argv = ["--json", "--checkpoint", str(path), "search",
                "--diameter-max", "14", "--size-max", "7"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["min_mstd_size"] is None
        lines = path.read_text().splitlines()
        rec = json.loads(lines[-1])
        assert rec["partition_id"] == "14/0"
        rec["tallies"]["sum_dominant"] = [A1_TEXT]
        path.write_text("\n".join([*lines[:-1], json.dumps(rec)]) + "\n")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert (
            f"error: checkpoint {path}: line 16 lists '{A1_TEXT}', "
            "of size outside 1..7"
        ) in err

    @pytest.mark.parametrize(
        "argv",
        [["verify", "thm1", "--max-size", "3", "--max-diameter", "5"],
         ["classify", "0,1,3"]],
        ids=" ".join,
    )
    def test_checkpoint_outside_search_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "ck.jsonl"
        code, out, err = run_cli(capsys, "--checkpoint", str(path), *argv)
        assert code == 2 and out == ""
        assert err == f"error: {argv[0]} does not take --checkpoint; search does\n"
        assert not path.exists()


class TestExploreCommand:
    def test_min_additions(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "explore", "min-additions",
            "--ap", "3,4,3", "--k-max", "2", "--window", "0:14",
        )
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_two_ap_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "explore", "two-ap",
            "--max-len", "3", "--max-step", "2", "--max-shift", "5",
        )
        assert code == 0

    def test_unknown_explorer(self, capsys):
        code, _, err = run_cli(capsys, "explore", "nope")
        assert code == 2
        assert "two-ap" in err


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mstd", "classify", "0,1,3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "difference-dominant" in proc.stdout

    def test_parser_is_built_once(self):
        from mstd.cli import _build_parser

        assert _build_parser() is _build_parser()

    def test_workers_default_ignores_the_environment(self, monkeypatch):
        from mstd.cli import _build_parser

        monkeypatch.setenv("MSTD_WORKERS", "4")
        assert _build_parser().parse_args(["classify", "0,1"]).workers == 1

    @pytest.mark.parametrize(
        "argv",
        [["classify", "0,1"], ["verify", "size5"], ["search", "--diameter-max", "3"]],
        ids=" ".join,
    )
    def test_workers_below_1_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "--workers", "0", *argv)
        assert code == 2 and out == ""
        assert "argument --workers: must be >= 1, got 0" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--workers", "x", "verify", "size5"], "--workers"),
            (["verify", "thm2", "--window", "x"], "--window"),
            (["explore", "min-additions", "--ap", "1,2"], "--ap"),
        ],
        ids=["workers", "window", "ap"],
    )
    def test_bad_option_value_names_the_option(self, capsys, argv, option):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"argument {option}: expected " in err
        assert not any(name in err for name in ("_workers", "_window", "_ap"))

    @pytest.mark.parametrize(
        "argv, grid",
        [
            (["verify", "thm2", "--window", "-2:3", "--n-max", "3"], "x,y in [-2,3]"),
            (["verify", "deficit", "--window", "-2:3", "--n-max", "3"],
             "x in [-2,3]"),
            (["verify", "thm3", "--preset", "fib13", "--window", "-2:3"],
             "window=[-2,3]"),
            (["explore", "min-additions", "--k-max", "1", "--window", "-2:3"],
             "window=[-2,3]"),
            (["explore", "min-additions", "--ap", "-3,4,3", "--k-max", "1"],
             "AP(-3,4,3)"),
        ],
        ids=["thm2-window", "deficit-window", "thm3-window",
             "min-additions-window", "min-additions-ap"],
    )
    def test_option_value_with_a_leading_minus(self, capsys, argv, grid):
        # a value such as -2:3 after its option, with a space, is the value
        code, out, err = run_cli(capsys, "--json", *argv)
        assert code == 0, err
        assert grid in json.loads(out)["grid"]

    def test_negative_window_token(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "explore", "min-additions",
            "--ap", "0,1,3", "--k-max", "1", "--window=-5:10",
        )
        assert code == 0
        assert "[-5,10]" in json.loads(out)["grid"]

    def test_readme_commands_parse(self):
        # every shell line in the README is pip, pytest or an mstd command
        # that the parser accepts; nothing is run
        from mstd.cli import _build_parser

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
        lines = [
            line for block in blocks for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        parser = _build_parser()
        commands = 0
        for line in lines:
            prog, *argv = shlex.split(line, comments=True)
            if prog in ("pip", "pytest"):
                continue
            assert prog == "mstd", f"README runs {prog!r}: {line}"
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")
            commands += 1
        assert commands >= 10

    def test_readme_library_block_runs(self):
        # the Library example runs as written and gives the values its
        # comments state
        from mstd import SetClass

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
        ns, values = {}, {}
        for stmt in ast.parse(block).body:
            code = ast.get_source_segment(block, stmt)
            if isinstance(stmt, ast.Expr):
                values[code] = eval(code, ns)
            else:
                exec(code, ns)
        assert values["classify(a)"] is SetClass.SUM_DOMINANT
        prof = values["profile(a)"]
        assert (prof.size, prof.sum_size, prof.diff_size) == (8, 26, 25)
        assert values["ap_plus_two_decomposition(a)"] is None
        assert values["result.min_mstd_size"] == 8

    def test_every_exported_name_resolves(self):
        import mstd

        ns = {}
        exec("from mstd import *", ns)
        assert sorted(set(mstd.__all__)) == sorted(mstd.__all__)
        assert all(name in ns for name in mstd.__all__)

    def test_search_json_identical_across_processes(self):
        cmd = [sys.executable, "-m", "mstd", "--json", "search", "--diameter-max", "12"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
