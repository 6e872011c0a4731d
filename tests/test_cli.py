import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crspec import (
    ScenarioParseError,
    ScenarioValidationError,
    ShiftSpace,
    Specification,
    TraceEntry,
    TraceReport,
    check_trace,
    specifications,
    verdicts,
)
from crspec.cli import WORD_SYMBOLS, json_text, main, render_json, run
from crspec.randgen import (
    random_box_relation,
    random_finite_relation,
    random_finite_space,
    random_point,
    random_spaced_triples,
)
from crspec.scenario import MAX_N0, MAX_REFUTED_VALUES, MAX_SPEC_ENTRIES, MAX_SUITE_COUNT, parse_scenario

F = Fraction

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
ambient interval 0 1
box 0 1 1 1
certify trivial-fiber expect certificate
"""

MONICA_HEADER = """ambient interval 0 1
box 0 1/2 0 0
box 1/2 1 1 1
box 1 1 0 1
spec S
  segment 0 k 2 l 3
  segment 1 k 9 l 10
end
"""

INTERVAL = "ambient interval 0 1\nbox 0 1 0 1\n"

TWO_POINTS = """ambient finite 2
matrix metric
  0 1
  1 0
end
matrix adjacency
  1 1
  1 1
end
"""

# SHA-256 of the human report and of the --emit JSON report of each bundled
# scenario at the default seed.  Any change to what the library computes or
# how the CLI renders it shows up here.
REPORT_DIGESTS = {
    "constant.scn": (
        "3b74a23a99b9a5e1d90d852935278886698024efa46f508bb4d7ec2c0134c321",
        "ca904b7024728279025771c67e359fe895014475ba5b15c2fb39f473a7f80fe8",
    ),
    "ex3.scn": (
        "74beeb558b2b0f84dabef5733c011a8d109a9dd00a4393b391bf6b673295f77f",
        "cdda35a0125a3dc89d9abbbdf7c8a49ceb88680cfafe50119755fbc94662c6cd",
    ),
    "exi.scn": (
        "ac862fdd2eacbc9e0634b484e25b09a119d14d49e22ed005cbc1a67bff784c60",
        "6b57d49706288bc44a7b24c45f1e7a37b7231c1ca45eeb131b4c555e6dfd580b",
    ),
    "goldenmean.scn": (
        "936c1534377986f72157d0ac5b853853869788b820b00c4cf9b67fe4e4cb80b6",
        "2cc4422f6bac4f18d2e5515ccc7178db3dc1b28103ed2ed0f86393a3c3d12820",
    ),
    "monica.scn": (
        "afa6a8c27c32b7a1405113b88ba4a595e04f6016de5b11143840d881580b76c8",
        "ab37e1e5d187a0c66c601a2b7f6902b3838f879ef0341223446e22b9ae5e145f",
    ),
    "suite.scn": (
        "96d50e11dbfda8c210eb601f4397b07678391ea7cd6af0550d0a1811e3ecf57b",
        "3288a2da0269c42ea82c9092968acadb7f1b4cc25437b2e4429616ebcaf3b2be",
    ),
}


class TestParsing:
    def test_minimal_scenario(self):
        scenario = parse_scenario(MINIMAL)
        assert len(scenario.commands) == 1

    def test_decimal_literals_rejected(self):
        text = "ambient interval 0 1\nbox 0 0.5 1 1\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert err.value.line == 2

    def test_empty_file_rejected(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("# nothing here\n")

    def test_unknown_keyword_carries_line_number(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario("ambient interval 0 1\nbogus 1 2\n")
        assert err.value.line == 2

    def test_dangling_spec_name(self):
        text = MINIMAL + "trace missing eps 1/4 mode plain\n"
        with pytest.raises(ScenarioValidationError):
            parse_scenario(text)

    def test_bad_metric_rejected(self):
        text = """
ambient finite 2
matrix metric
  0 1
  2 0
end
matrix adjacency
  1 1
  1 1
end
"""
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(text)
        assert "symmetry" in err.value.reason

    def test_box_outside_ambient(self):
        with pytest.raises(ScenarioValidationError):
            parse_scenario("ambient interval 0 1\nbox 0 2 0 1\n")

    def test_inadmissible_sequence(self):
        text = """
ambient finite 2
matrix metric
  0 1
  1 0
end
matrix adjacency
  1 1
  1 0
end
seq BAD cycle 1 1
"""
        with pytest.raises(ScenarioValidationError):
            parse_scenario(text)

    @pytest.mark.parametrize("symbols", ["cycle 2", "pre -1 cycle 0", "pre 0 cycle 1 5"])
    def test_sequence_symbol_outside_the_space_rejected_at_its_line(self, symbols):
        with pytest.raises(ScenarioValidationError, match="out of range 0..1") as err:
            parse_scenario(TWO_POINTS + f"seq A {symbols}\n")
        assert err.value.line == 10

    @pytest.mark.parametrize(
        "line",
        [
            "trace S eps mode plain",
            "suite count",
            "certify eventual-hausdorff eps n0max 3",
            "trace S y 1/4 1/2 eps 1/4 mode plain",
            "seq A pre cycle 0",
        ],
    )
    def test_key_without_its_values_rejected(self, line):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(MONICA_HEADER + line + "\n")
        assert err.value.line == 9

    def test_refute_segment_without_base_rejected(self):
        text = MONICA_HEADER + "refute HSP eps 1/4 n 1 2\n  segment\nend\n"
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(text)
        assert err.value.line == 10

    def test_missing_end_reported(self):
        text = "ambient interval 0 1\nbox 0 1 1 1\nspec S\n  segment 0 k 0 l 1\n"
        with pytest.raises(ScenarioParseError):
            parse_scenario(text)


class TestRun:
    def test_expectation_mismatch_fails_the_run(self):
        text = """
ambient interval 0 1
box 0 1 1 1
spec S
  segment 0 k 0 l 1
end
trace S y 1 eps 1/8 mode plain expect pass
"""
        report = run(parse_scenario(text))
        assert not report.ok
        assert report.results[0].outcome == "fail"

    def test_domain_error_rendered_not_raised(self):
        # p1(F) != X: the certifier's orbit dies at run time and the report
        # carries an error outcome instead of raising
        text = """
ambient interval 0 1
box 0 1/2 3/4 1
certify common-image n0max 3
"""
        report = run(parse_scenario(text))
        assert report.results[0].outcome == "error"
        assert "empty" in report.results[0].error
        assert not report.ok

    def test_json_contains_replay_distances(self):
        report = run(parse_scenario(MINIMAL))
        doc = json.loads(render_json(report))
        assert doc["ok"] is True
        assert doc["commands"][0]["outcome"] == "certificate"

    def test_machine_report_replays_through_the_library(self):
        # every distance in the emitted trace tables must reproduce when the
        # same check is run directly, with no CLI in the loop
        from fractions import Fraction

        from crspec import Specification, check_trace

        text = (SCENARIOS / "monica.scn").read_text()
        scenario = parse_scenario(text)
        doc = json.loads(render_json(run(scenario)))
        traced = next(
            c for c in doc["commands"]
            if c["kind"] == "trace" and c["data"].get("y") == "1/4"
        )
        spec = scenario.specs["S"]
        assert isinstance(spec, Specification)
        replay = check_trace(
            scenario.relation, spec, Fraction("1/4"), Fraction("1/4"), "hausdorff"
        )
        got = [e["distance"] for e in traced["data"]["entries"]]
        assert got == ["0", "0", "1", "1"]
        assert [e.distance for e in replay.entries] == [0, 0, 1, 1]


class TestMain:
    @pytest.mark.parametrize("name", [p.name for p in sorted(SCENARIOS.glob("*.scn"))])
    def test_bundled_scenarios_meet_expectations(self, name, capsys, tmp_path):
        emit = tmp_path / "out.json"
        code = main(
            ["--scenario", str(SCENARIOS / name), "--seed", "3", "--emit", str(emit)]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert emit.exists()

    def test_exit_one_on_missed_expectation(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(
            "ambient interval 0 1\nbox 0 1 1 1\ncertify full-image n0max 3 expect certificate\n"
        )
        assert main(["--scenario", str(bad), "--quiet"]) == 1
        capsys.readouterr()

    def test_exit_two_on_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("ambient interval 0 1\nbox 0 0.3 1 1\n")
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    @pytest.mark.parametrize(
        "line",
        ["trace S eps mode plain", "suite count", "certify eventual-hausdorff eps n0max 3"],
    )
    def test_exit_two_on_dangling_key(self, line, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(MONICA_HEADER + line + "\n")
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        assert "line 9" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, line",
        [
            pytest.param("spec T\n  segment 0 k -1 l 2\nend\n", 10, id="spec-k"),
            pytest.param(
                "ispec T gaps 1\n  segment 0 l -1\n  segment 1 l 1\nend\n", 10, id="ispec-l"
            ),
            pytest.param(
                "refute HSP eps 1/4 n 1 2\n  segment 0 k -1 l 2\n  segment 1 len 1\nend\n",
                10,
                id="refute-head-k",
            ),
            pytest.param(
                "refute HSP eps 1/4 n 1 2\n  segment 0 k 2 l 3\n  segment 1 len -3\nend\n",
                11,
                id="refute-tail-len",
            ),
        ],
    )
    def test_exit_two_on_negative_exponent(self, block, line, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(MONICA_HEADER + block + "trace S y 0 eps 1 mode plain\n")
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        assert f"line {line}: segment exponents must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, key",
        [
            ("mahavier words maxlen -2 expect pass", "maxlen"),
            ("suite count -1 expect pass", "count"),
            ("certify full-image n0max -1", "n0max"),
            ("mahavier mixing tmax -1", "tmax"),
        ],
    )
    def test_exit_two_on_negative_count(self, line, key, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(TWO_POINTS + line + "\n")
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        assert f"line 10: {key!r} must be non-negative" in capsys.readouterr().err

    def test_word_enumeration_is_bounded(self, tmp_path, capsys, monkeypatch):
        # The full 2-shift has 2^L words of length L; the counts come from the
        # successor recurrence and only short lengths are enumerated.
        lengths = []
        original = ShiftSpace.admissible_words

        def recording(space, length):
            lengths.append(length)
            return original(space, length)

        monkeypatch.setattr(ShiftSpace, "admissible_words", recording)
        path, emit = tmp_path / "full.scn", tmp_path / "out.json"
        path.write_text(TWO_POINTS + "mahavier words maxlen 40 expect pass\n")
        assert main(["--scenario", str(path), "--emit", str(emit)]) == 0
        data = json.loads(emit.read_text())["commands"][0]["data"]
        assert data["matrix_counts"] == [2**k for k in range(1, 41)]
        counts = data["counts"]
        assert 0 < len(counts) < 40 and counts == data["matrix_counts"][: len(counts)]
        assert lengths == list(range(1, len(counts) + 1))
        built = sum(i * 2**i for k in lengths for i in range(1, k + 1))
        assert built <= WORD_SYMBOLS
        assert f"enumeration stopped after length {len(counts)}" in capsys.readouterr().out

    def test_word_length_is_capped(self, tmp_path, capsys):
        # 2^1000 prints in full; a count past 4,300 digits would end in a traceback
        path, emit = tmp_path / "full.scn", tmp_path / "out.json"
        path.write_text(TWO_POINTS + "mahavier words maxlen 1000 expect pass\n")
        assert main(["--scenario", str(path), "--quiet", "--emit", str(emit)]) == 0
        assert json.loads(emit.read_text())["commands"][0]["data"]["matrix_counts"][-1] == 2**1000
        path.write_text(TWO_POINTS + "mahavier words maxlen 1001\n")
        assert main(["--scenario", str(path), "--quiet"]) == 2
        assert "line 10: 'maxlen' must be at most 1000" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "prop, key, body",
        [
            ("HSP", "n", "  segment 0 k 2 l 3\n  segment 1 len 1\n"),
            ("ISP", "gaps", "  segment 0 l 1\n  segment 3/4 l 1\n"),
        ],
    )
    def test_refuted_range_is_capped(self, tmp_path, capsys, prop, key, body):
        # every tested value gets its own table in the report, so the range is bounded
        assert MAX_REFUTED_VALUES == 10_000
        head = "ambient interval 0 1\nbox 0 1/2 0 0\nbox 1/2 1 1 1\nbox 1 1 0 1\n"

        def text(lo, hi):
            return f"{head}refute {prop} eps 1/4 {key} {lo} {hi}\n{body}end\n"

        command = parse_scenario(text(5, 10_004)).commands[0]
        assert command.params["range"] == (5, 10_004)
        path = tmp_path / "wide.scn"
        path.write_text(text(5, 10_005))
        assert main(["--scenario", str(path), "--quiet"]) == 2
        assert "line 5: a refuted range holds at most 10000 values" in capsys.readouterr().err

    def test_refutation_tables_are_built_only_for_a_json_report(self, tmp_path, monkeypatch):
        # without --emit a refute line measures only its searches' tables, whatever its range
        calls = []
        original = specifications._report

        def counting(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(specifications, "_report", counting)
        path = tmp_path / "refute.scn"
        counts = []
        for hi in (20, 10_000):
            calls.clear()
            path.write_text(
                MONICA_HEADER + f"refute HSP eps 1/4 n 1 {hi}\n  segment 0 k 2 l 3\n  segment 1 len 1\nend\n"
            )
            assert main(["--scenario", str(path), "--quiet"]) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_detail_lines_are_built_only_for_a_human_report(self, capsys, monkeypatch):
        # each failing region's line reads its report's worst entry, and each
        # witness's lines every entry; --quiet prints none of them, so none is built
        reads = []
        worst = specifications.TraceReport.worst.fget

        def counting(report):
            reads.append(None)
            return worst(report)

        monkeypatch.setattr(specifications.TraceReport, "worst", property(counting))
        scenario = str(SCENARIOS / "monica.scn")
        assert main(["--scenario", scenario, "--quiet"]) == 0
        assert reads == [] and capsys.readouterr().out == ""
        assert main(["--scenario", scenario]) == 0
        assert len(reads) > 10 and "worst: 1 at (i=2, j=9)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "head, block, at_cap",
        [
            (INTERVAL, "spec S\n  segment 0 k 0 l 4999\n  segment 1 k 1 l {}\n", 5000),
            (INTERVAL, "ispec S gaps 1\n  segment 0 l 4999\n  segment 1 l {}\n", 4999),
            (TWO_POINTS + "seq z cycle 0\n", "mspec M\n  segment z k 0 l 4999\n  segment z k 1 l {}\n", 5000),
            (INTERVAL, "refute HSP eps 1/4 n 1 1\n  segment 0 k 0 l 4999\n  segment 1 len {}\n", 4999),
            (INTERVAL, "refute ISP eps 1/4 gaps 1 1\n  segment 0 l 4999\n  segment 1 l {}\n", 4999),
        ],
        ids=["spec", "ispec", "mspec", "refute-spaced", "refute-initial"],
    )
    def test_spec_entries_are_capped(self, tmp_path, capsys, head, block, at_cap):
        # a check reports every (segment, step) entry of its block, so their number is
        # bounded; each block holds 5,000 entries in its first segment, at_cap in its second
        assert MAX_SPEC_ENTRIES == 10_000
        parse_scenario(head + block.format(at_cap) + "end\n")
        path = tmp_path / "long.scn"
        path.write_text(head + block.format(at_cap + 1) + "end\n")
        assert main(["--scenario", str(path), "--quiet"]) == 2
        line = head.count("\n") + 1
        err = capsys.readouterr().err
        assert f"line {line}: a block's segments hold at most 10000 (segment, step) entries" in err

    def test_certify_lines_reach_the_verdicts_module(self, monkeypatch):
        # the certifier is looked up when its line runs, so a wrapper installed later sees it
        calls = []
        original = verdicts.certify_common_image

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(verdicts, "certify_common_image", counting)
        assert main(["--scenario", str(SCENARIOS / "monica.scn"), "--quiet"]) == 0
        assert len(calls) == 1

    def test_suite_count_is_capped(self, tmp_path, capsys):
        assert MAX_SUITE_COUNT == 10_000
        assert parse_scenario(INTERVAL + "suite count 10000 seed 7\n").commands[0].params["count"] == 10_000
        path = tmp_path / "many.scn"
        path.write_text(INTERVAL + "suite count 10001 seed 7\n")
        assert main(["--scenario", str(path), "--quiet"]) == 2
        assert "line 3: 'count' must be at most 10000" in capsys.readouterr().err

    def test_certify_n0max_is_capped(self, tmp_path, capsys):
        assert MAX_N0 == 10_000
        assert parse_scenario(INTERVAL + "certify full-image n0max 10000\n").commands[0].params["n0max"] == 10_000
        path = tmp_path / "far.scn"
        path.write_text(INTERVAL + "certify full-image n0max 10001\n")
        assert main(["--scenario", str(path), "--quiet"]) == 2
        assert "line 3: 'n0max' must be at most 10000" in capsys.readouterr().err

    def test_bad_segment_base_names_only_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("ambient interval 0 1\nbox 0 1 0 1\nspec S\n  segment 2 k 0 l 1\nend\n")
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "line 4: point 2 outside the ambient interval" in err
        assert "line 3" not in err

    @pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
    def test_bundled_reports_are_pinned(self, name, tmp_path, capsys):
        emit = tmp_path / "out.json"
        assert main(["--scenario", str(SCENARIOS / name), "--emit", str(emit)]) == 0
        human = capsys.readouterr().out.encode("utf-8")
        digests = (hashlib.sha256(human).hexdigest(), hashlib.sha256(emit.read_bytes()).hexdigest())
        assert digests == REPORT_DIGESTS[name]

    def test_calls_in_one_process_keep_their_own_flags(self, tmp_path, capsys):
        # the parser is built once; each call's flags must reach that call alone
        scenario = str(SCENARIOS / "monica.scn")
        emit = tmp_path / "out.json"
        for flagged in (True, False, True, False):
            emit.unlink(missing_ok=True)
            extra = ["--quiet", "--emit", str(emit)] if flagged else []
            assert main(["--scenario", scenario, *extra]) == 0
            out = capsys.readouterr().out
            assert emit.exists() == flagged
            assert (out == "") == flagged and ("all expectations met" in out) != flagged
        assert main(["--scenario", scenario, "--seed", "7", "--quiet"]) == 0
        assert main(["--scenario", scenario]) == 0
        assert "(seed 0)" in capsys.readouterr().out

    def test_exit_two_on_missing_file(self, tmp_path, capsys):
        assert main(["--scenario", str(tmp_path / "nope.scn"), "--quiet"]) == 2
        capsys.readouterr()

    def test_exit_two_on_a_file_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_bytes(b"# \xff\n" + MINIMAL.encode())
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("cannot read scenario: ")

    def test_exit_two_on_an_unwritable_report(self, tmp_path, capsys):
        path = tmp_path / "ok.scn"
        path.write_text(MINIMAL)
        emit = tmp_path / "missing" / "r.json"
        assert main(["--scenario", str(path), "--emit", str(emit)]) == 2
        captured = capsys.readouterr()
        assert "all expectations met" in captured.out
        assert captured.err.startswith("cannot write report: ")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python reads int literals of any length",
    )
    @pytest.mark.parametrize(
        "block, line",
        [
            pytest.param("trace S eps 1{} mode plain\n", 9, id="eps"),
            pytest.param("suite count 1{}\n", 9, id="count"),
            pytest.param("spec T\n  segment 0 k 0 l 1{}\nend\n", 10, id="exponent"),
        ],
    )
    def test_literal_past_the_digit_limit_exits_two(self, block, line, tmp_path, capsys):
        zeros = "0" * sys.get_int_max_str_digits()
        bad = tmp_path / "bad.scn"
        bad.write_text(MONICA_HEADER + block.format(zeros))
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: " in err
        assert "Traceback" not in err and zeros not in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python prints ints of any length",
    )
    @pytest.mark.parametrize(
        "d1, d2, line",
        [
            pytest.param(10**3000, 3 * 10**3000 + 7, 4, id="two-long-denominators"),
            pytest.param(None, None, 2, id="four-literals-past-the-cap"),
        ],
    )
    def test_a_value_too_long_to_print_exits_two(self, d1, d2, line, tmp_path, capsys):
        # each alone prints, but |1/d1 - 1/d2| or the worst case below would not
        if d1 is None:
            text = _four_literal_witness((sys.get_int_max_str_digits() - 1) // 4 + 1)
        else:
            text = (
                f"ambient interval 0 1\nbox 0 1 0 1\nspec S\n  segment 1/{d2} k 0 l 0\nend\n"
                f"trace S y 1/{d1} eps 1 mode plain\n"
            )
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: " in err and "too many digits" in err
        assert "Traceback" not in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python prints ints of any length",
    )
    def test_the_worst_printed_value_fits_at_the_cap(self, tmp_path, capsys):
        cap = (sys.get_int_max_str_digits() - 1) // 4
        path = tmp_path / "worst.scn"
        path.write_text(_four_literal_witness(cap))
        assert main(["--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "witness y = " in out
        # the distance from y to the first base has a denominator of 4 * cap + 1 digits
        assert max(map(len, re.findall(r"\d+", out))) == 4 * cap + 1

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python prints ints of any length",
    )
    def test_a_seq_past_the_symbol_cap_exits_two(self, tmp_path, capsys):
        # the first difference from (0)* at position 14,401 weighs 2^-14401, which
        # has more digits than Python prints; the cap refuses the seq line instead
        bad = tmp_path / "bad.scn"
        bad.write_text(_late_difference(TWO_POINTS, 14_400))
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "line 10: a seq holds at most" in err and "Traceback" not in err
        cap = int(re.search(r"at most (\d+) symbols", err).group(1))
        bad.write_text(_late_difference(TWO_POINTS, cap))
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        assert f"line 10: a seq holds at most {cap} symbols" in capsys.readouterr().err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python prints ints of any length",
    )
    def test_a_trace_at_the_symbol_cap_prints(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        digits = (limit - 1) // 4
        cap = (10 ** (limit - 3 * digits)).bit_length() // 2
        # d(0, 1) = 1/b and the diameter c, both literals at the digit cap
        b, c = 10**digits - 1, 10**digits - 3
        metric = f"ambient finite 3\nmatrix metric\n  0 1/{b} {c}\n  1/{b} 0 {c}\n  {c} {c} 0\nend\n"
        header = metric + "matrix adjacency\n  1 1 1\n  1 1 1\n  1 1 1\nend\n"
        path = tmp_path / "cap.scn"
        path.write_text(_late_difference(header, cap - 1))
        assert main(["--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        # Y and Z first differ at position cap, by 1/b, scaled by c and 2^cap
        distance = Fraction(1, b * c * 2**cap)
        assert f"distance {distance}\n" in out
        assert len(str(distance.denominator)) > 2 * digits + cap // 4

    def test_reports_are_byte_identical_across_runs(self, tmp_path, capsys):
        outs = []
        jsons = []
        for i in range(2):
            emit = tmp_path / f"r{i}.json"
            code = main(
                [
                    "--scenario",
                    str(SCENARIOS / "suite.scn"),
                    "--seed",
                    "11",
                    "--emit",
                    str(emit),
                ]
            )
            assert code == 0
            outs.append(capsys.readouterr().out.encode())
            jsons.append(emit.read_bytes())
        assert outs[0] == outs[1]
        assert jsons[0] == jsons[1]

    def test_human_report_echoes_seed(self, capsys):
        code = main(["--scenario", str(SCENARIOS / "monica.scn"), "--seed", "9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "seed 9" in out


# Small integers, negatives included, small fractions (zero denominators too),
# and one literal past Python's default limit of 4,300 digits for an int.
SMALL = st.integers(-3, 8)
NUMBERS = st.one_of(
    SMALL.map(str), st.builds("{}/{}".format, SMALL, st.integers(0, 8)), st.just("1" + "0" * 5000)
)
NUMERIC = re.compile(r"^-?\d+(?:/\d+)?$")
FUZZED = ["monica.scn", "constant.scn", "exi.scn", "goldenmean.scn"]
COUNT_KEYS = ("maxlen", "tmax", "n0max", "count")


class TestFuzz:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_mutated_numbers_never_raise(self, data, tmp_path_factory):
        # suite.scn is left out: its implication suites are slow and parse no
        # scenario-specific numbers beyond count and seed
        name = data.draw(st.sampled_from(FUZZED))
        text = (SCENARIOS / name).read_text()
        rows = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
        slots = [
            (i, j) for i, row in enumerate(rows) for j, tok in enumerate(row) if NUMERIC.match(tok)
        ]
        # half the draws go to the values of count keys, which must never be negative
        counts = [(i, j) for i, j in slots if j and rows[i][j - 1] in COUNT_KEYS]
        slot = st.sampled_from(slots)
        if counts:
            slot = st.one_of(st.sampled_from(counts), slot)
        changes = st.lists(st.tuples(slot, NUMBERS), min_size=1, max_size=3)
        for (i, j), value in data.draw(changes):
            rows[i][j] = value
        path = tmp_path_factory.mktemp("fuzz") / name
        path.write_text("\n".join(" ".join(row) for row in rows) + "\n")
        negative_count = any(rows[i][j].startswith("-") for i, j in counts)
        assert main(["--scenario", str(path), "--quiet"]) in ((2,) if negative_count else (0, 1, 2))


# the strings a report could hold, and the ones a JSON writer gets wrong
TEXT = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é ü ∅", "\u2028", "😀", ""])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=25,
)


class TestJsonText:
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [0.5, (1, 2), {1: "a"}, [{"a": {3}}]], ids=repr)
    def test_refuses_what_a_report_never_holds(self, value):
        with pytest.raises(TypeError):
            json_text(value)

    @given(st.fractions())
    def test_a_distance_needs_no_escape(self, value):
        # entry tables write str(distance) between quotes as it stands
        text = str(value)
        assert re.fullmatch(r"-?\d+(/\d+)?", text) and json.dumps(text) == f'"{text}"'


def _entry_dict(entry):
    """A trace entry as the JSON report reads it: one dict, keys in any order."""
    if not isinstance(entry, TraceEntry):
        raise TypeError(f"{type(entry).__name__} does not belong in a report")
    return {
        "segment": entry.segment,
        "step": entry.step,
        "power": entry.tracer_power,
        "distance": str(entry.distance),
    }


def _seeded_scenario(rng, kind):
    """Scenario text over a seeded box, finite or shift-space relation, with a
    trace at y, a search, a spaced and an initial refutation, and for the shift
    space a ``mahavier trace``: every command whose payload holds a report."""
    eps = rng.choice(["0", "1/8", "1/4", "1/2"])
    if kind == "box":
        relation = random_box_relation(rng, max_boxes=4, max_den=6)
        lines = ["ambient interval 0 1"]
        lines += [f"box {a.lo} {a.hi} {b.lo} {b.hi}" for a, b in relation.boxes]
    else:
        space = random_finite_space(rng, rng.randrange(2, 5))
        relation = random_finite_relation(rng, space, density=0.5)
        n = space.n
        lines = [f"ambient finite {n}", "matrix metric"]
        lines += ["  " + " ".join(map(str, row)) for row in space.dist]
        lines += ["end", "matrix adjacency"]
        lines += ["  " + " ".join("1" if a else "0" for a in row) for row in relation.adjacency]
        lines.append("end")
    x1, x2, y, h1, h2, i1, i2 = (random_point(rng, relation) for _ in range(7))
    k = rng.randrange(3)
    lines += ["spec S", f"  segment {x1} k {k} l {k + rng.randrange(3)}"]
    lines += [f"  segment {x2} k {k + 4} l {k + 4 + rng.randrange(4)}", "end"]
    for mode in ("plain", "hausdorff"):
        lines += [f"trace S y {y} eps {eps} mode {mode}", f"trace S eps {eps} mode {mode}"]
    lines += [f"refute HSP eps {eps} n 1 4", f"  segment {h1} k 0 l 1", f"  segment {h2} len 2", "end"]
    lines += [f"refute ISP eps {eps} gaps 1 3", f"  segment {i1} l 1", f"  segment {i2} l 2", "end"]
    if kind == "shift":
        successors = relation.successors
        for name in "ABC":
            # follow random successors until a symbol repeats: a preperiod, then a cycle
            path = [rng.randrange(len(successors))]
            while path.count(path[-1]) == 1:
                path.append(rng.choice(successors[path[-1]]))
            start = path.index(path[-1])
            pre = f"pre {' '.join(map(str, path[:start]))} " if start else ""
            lines.append(f"seq {name} {pre}cycle {' '.join(map(str, path[start:-1]))}")
        lines += ["mspec M", "  segment A k 0 l 2", f"  segment B k 3 l {3 + rng.randrange(4)}", "end"]
        lines.append(f"mahavier trace M y C eps {eps}")
    return "\n".join(lines) + "\n"


class TestEntryTables:
    """A report's entries go to the JSON writer as one table and come out one row
    per entry; the text is json.dumps's with each entry read as its dict."""

    def test_every_payload_writes_as_json_dumps(self):
        rng = random.Random(24)
        outcomes = set()
        for trial in range(36):
            kind = ("box", "finite", "shift")[trial % 3]
            report = run(parse_scenario(_seeded_scenario(rng, kind)))
            for result in report.results:
                payload = result.payload
                assert result.error is None, result.error
                expected = json.dumps(payload, indent=2, sort_keys=True, default=_entry_dict)
                assert json_text(payload) == expected
                outcomes.add((result.kind, result.outcome))
            text = render_json(report)
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert {("trace", "witness"), ("trace", "notracer")} <= outcomes
        assert {("refute", "refutation"), ("refute", "inconclusive")} <= outcomes
        assert {("trace", "pass"), ("trace", "fail")} <= outcomes
        assert {("mahavier", "pass"), ("mahavier", "fail")} <= outcomes

    def test_worst_is_the_entry_max_returns(self):
        # max keeps the first of equal distances; ties and zeros are drawn on purpose
        rng = random.Random(24)
        distances = [F(0), F(0), F(1, 3), F(2, 6), F(1, 2), F(1), F(7, 5), F(14, 10)]
        ties = 0
        for _ in range(400):
            drawn = distances[: rng.randrange(1, len(distances) + 1)]
            entries = tuple(
                TraceEntry(1 + j % 2, j, j, rng.choice(drawn), None, None)
                for j in range(rng.randrange(1, 9))
            )
            worst = max(entries, key=lambda e: e.distance)
            assert TraceReport("plain", F(1, 4), entries).worst is worst
            ties += sum(e.distance == worst.distance for e in entries) > 1
        for _ in range(60):
            relation = random_box_relation(rng) if rng.random() < 0.5 else random_finite_relation(
                rng, random_finite_space(rng, 4)
            )
            spec = Specification.build(relation, random_spaced_triples(rng, relation, 2, 2))
            for mode in ("plain", "hausdorff"):
                report = check_trace(relation, spec, random_point(rng, relation), F(1, 4), mode)
                worst = max(report.entries, key=lambda e: e.distance)
                assert report.worst is worst
                ties += sum(e.distance == worst.distance for e in report.entries) > 1
        assert ties > 100


class TestLineNumbers:
    """Validation errors and negative eps exit 2 and name the line at fault."""

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            pytest.param(
                "ambient interval 0 1\nbox 0 1/2 0 0\n\nbox 0 2 0 1\n",
                4,
                "box [0, 2] x [0, 1] leaves the ambient space [0, 1]",
                id="box-outside",
            ),
            pytest.param(
                "ambient interval -1 1\nbox -2 0 0 1\n",
                2,
                "box [-2, 0] x [0, 1] leaves the ambient space [-1, 1]",
                id="box-outside-at-a-lo",
            ),
            pytest.param(
                "ambient interval -1 1\nbox -1 1 -3/2 1\n",
                2,
                "box [-1, 1] x [-3/2, 1] leaves the ambient space [-1, 1]",
                id="box-outside-at-b-lo",
            ),
            pytest.param(
                "ambient interval -1 1\nbox 0 1/2 1/2 5/4\n",
                2,
                "box [0, 1/2] x [1/2, 5/4] leaves the ambient space [-1, 1]",
                id="box-outside-at-b-hi",
            ),
            pytest.param(
                "ambient finite 2\n# a metric that is not symmetric\nmatrix metric\n  0 1\n  2 0\nend\n"
                "matrix adjacency\n  1 1\n  1 1\nend\n",
                3,
                "metric axiom violated: symmetry",
                id="metric-symmetry",
            ),
            pytest.param(
                "ambient interval 0 1\nbox 0 1 0 1\ncertify trivial-fiber\nmahavier words maxlen 3\n"
                "mahavier mixing tmax 3\n",
                4,
                "shift-space declarations need a finite ambient",
                id="mahavier-on-interval",
            ),
            pytest.param(
                "ambient interval 0 1\nbox 0 1 0 1\nmahavier mixing tmax 3\nseq A cycle 0\n",
                3,
                "shift-space declarations need a finite ambient",
                id="first-is-a-command",
            ),
            pytest.param(
                "ambient interval 0 1\nbox 0 1 0 1\nmspec M\n  segment A k 0 l 1\nend\nseq A cycle 0\n",
                3,
                "shift-space declarations need a finite ambient",
                id="first-is-an-mspec",
            ),
        ],
    )
    def test_validation_error_names_its_line(self, text, line, reason, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(text)
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: {reason}" in err
        assert "line 0" not in err

    @pytest.mark.parametrize(
        "header, line",
        [
            pytest.param(MONICA_HEADER, "trace S eps -1 mode plain", id="trace"),
            pytest.param(MONICA_HEADER, "trace S y 0 eps -1/4 mode hausdorff", id="trace-at-y"),
            pytest.param(
                MONICA_HEADER,
                "refute HSP eps -1/4 n 1 2\n  segment 0 k 2 l 3\n  segment 1 len 1\nend",
                id="refute",
            ),
            pytest.param(
                MONICA_HEADER, "certify eventual-hausdorff eps -1 n0max 3", id="certify"
            ),
            pytest.param(
                TWO_POINTS + "seq A cycle 0\nmspec M\n  segment A k 0 l 1\nend\n",
                "mahavier trace M y A eps -1/2",
                id="mahavier-trace",
            ),
        ],
    )
    def test_negative_eps_exits_two_at_its_line(self, header, line, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(header + line + "\n")
        lineno = header.count("\n") + 1
        assert main(["--scenario", str(bad), "--quiet"]) == 2
        assert f"line {lineno}: 'eps' must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "trace S eps 0 mode plain expect witness",
            "certify eventual-hausdorff eps 0 n0max 3 expect notfound",
        ],
    )
    def test_eps_zero_stays_legal(self, line, tmp_path, capsys):
        path = tmp_path / "zero.scn"
        path.write_text(MONICA_HEADER + line + "\n")
        assert main(["--scenario", str(path), "--quiet"]) == 0
        capsys.readouterr()


def _four_literal_witness(digits):
    """A scenario whose witness distance combines four literals of the given digits.

    Bases x1 ~ 3/10 and x2 ~ 1/2 with eps ~ 3/20 pin y to [x2 - eps, x1 + eps],
    which the cell [0, c), c ~ 2/5, cuts at c; x1 lies outside, so the witness
    is the midpoint (x2 - eps + c) / 2, and its distance to x1 reads c, x1, x2
    and eps.  Each denominator is the largest below 10^digits that is coprime to
    the ones before it.
    """
    dens: list[int] = []
    den = 10**digits
    while len(dens) < 4:
        den -= 1
        if all(math.gcd(den, d) == 1 for d in dens):
            dens.append(den)
    values = []
    for den, twentieths in zip(dens, (6, 10, 8, 3)):
        num = den * twentieths // 20
        while math.gcd(num, den) != 1:
            num += 1
        values.append(f"{num}/{den}")
    x1, x2, c, eps = values
    return (
        f"ambient interval 0 1\nbox 0 {c} 0 0\nbox {c} 1 1 1\n"
        f"spec S\n  segment {x1} k 0 l 0\n  segment {x2} k 0 l 0\nend\n"
        f"trace S eps {eps} mode plain\n"
    )


def _late_difference(header, zeros):
    """A ``mahavier trace`` of Y = 0^zeros (1)* against Z = (0)* on the header's space.

    Y holds zeros + 1 symbols, and the two first differ at position zeros + 1.
    """
    return header + (
        f"seq Y pre{' 0' * zeros} cycle 1\nseq Z cycle 0\n"
        "mspec M\n  segment Z k 0 l 0\nend\nmahavier trace M y Y eps 1/4\n"
    )
