"""CLI tests."""

import json

import pytest

from repro.cli import extract_invariant_annotations, main, parse_valuation

PROGRAM = """
# @invariant 1: x >= 0
# @invariant 2: x >= 1
var x;
while x >= 1 do
    x := x + (1, -1) : (0.25, 0.75);
    tick(1)
od
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "walk.prob"
    path.write_text(PROGRAM)
    return str(path)


class TestHelpers:
    def test_parse_valuation(self):
        assert parse_valuation("x=100, y=-2.5") == {"x": 100.0, "y": -2.5}

    def test_parse_valuation_empty(self):
        assert parse_valuation(None) == {}
        assert parse_valuation("") == {}

    def test_parse_valuation_malformed(self):
        with pytest.raises(ValueError):
            parse_valuation("x:3")

    def test_extract_annotations(self):
        anns = extract_invariant_annotations(PROGRAM)
        assert anns == {1: "x >= 0", 2: "x >= 1"}


class TestCommands:
    def test_analyze(self, program_file, capsys):
        code = main(["analyze", program_file, "--init", "x=100", "--degree", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "upper:" in out and "2*x" in out

    def test_analyze_with_cli_invariant(self, program_file, capsys):
        code = main(
            ["analyze", program_file, "--init", "x=50", "--degree", "1", "--invariant", "3: x >= 0"]
        )
        assert code == 0

    def test_analyze_no_lower(self, program_file, capsys):
        main(["analyze", program_file, "--init", "x=10", "--no-lower"])
        assert "lower:" not in capsys.readouterr().out

    def test_simulate(self, program_file, capsys):
        code = main(["simulate", program_file, "--init", "x=10", "--runs", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean cost:" in out
        assert "termination rate: 1.000" in out

    def test_simulate_refuses_nondet(self, tmp_path, capsys):
        path = tmp_path / "nd.prob"
        path.write_text("var x; if * then tick(1) fi")
        code = main(["simulate", str(path), "--init", "x=0"])
        assert code == 1
        assert "nondeterministic" in capsys.readouterr().err

    def test_cfg(self, program_file, capsys):
        assert main(["cfg", program_file]) == 0
        out = capsys.readouterr().out
        assert "branch" in out and "tick" in out

    def test_bench(self, capsys):
        assert main(["bench", "simple_loop"]) == 0
        out = capsys.readouterr().out
        assert "paper upper" in out

    def test_bench_with_init_override(self, capsys):
        # One path and one renderer whatever the flags: the same bounds,
        # paper lines and table (bar the wall-clock `time` column).
        outputs = []
        for flags in ([], ["--timeout", "100"], ["--degree", "auto"]):
            assert main(["bench", "random_walk", "--init", "x=4,n=20,y=0", *flags]) == 0
            lines = capsys.readouterr().out.splitlines()
            # Lines 1-3 are the report table; `time` is its last column.
            lines[1:4] = [line.rsplit(None, 1)[0] for line in lines[1:4]]
            outputs.append(lines)
        first = outputs[0]
        assert first[0] == "# Random Walk (Figure 11)"
        assert "-40" in first[3].split()
        assert first[4:] == [
            "upper: 2.5*x - 2.5*n",
            "lower: 2.5*x - 2.5*n - 2.5",
            "paper upper: 2.5*x - 2.5*n",
            "paper lower: 2.5*x - 2.5*n - 2.5",
        ]
        assert outputs[1] == first and outputs[2] == first

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bitcoin_mining" in out and "[nondet]" in out
        assert out.count("\n") == 30


NONTERMINATING = """
var x;
while x >= 0 do
    x := x + 1;
    tick(1)
od
"""


class TestInvariantsCommand:
    COUPLED = (
        "var x, y;\n"
        "while x + y >= 1 do\n"
        "  if prob(0.5) then x := x - 1 else y := y - 1 fi;\n"
        "  tick(1)\n"
        "od\n"
    )

    @pytest.fixture
    def coupled_file(self, tmp_path):
        path = tmp_path / "coupled.prob"
        path.write_text(self.COUPLED)
        return str(path)

    def test_text_dump_interval(self, program_file, capsys):
        code = main(["invariants", program_file, "--init", "x=100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "domain: interval" in out
        assert "label 1:" in out and ">= 0" in out

    def test_octagon_emits_relational_rows(self, coupled_file, capsys):
        code = main(
            ["invariants", coupled_file, "--init", "x=5,y=5", "--domain", "octagon"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "domain: octagon" in out
        assert "y + x - 1 >= 0" in out  # the coupled-guard row

    def test_json_payload(self, coupled_file, capsys):
        import json

        code = main(
            [
                "invariants",
                coupled_file,
                "--init",
                "x=5,y=5",
                "--domain",
                "octagon",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-invariants/v1"
        assert payload["domain"] == "octagon"
        assert any("y + x" in row for rows in payload["labels"].values() for row in rows)

    def test_unreachable_label_marked(self, tmp_path, capsys):
        path = tmp_path / "dead.prob"
        path.write_text("var x;\nx := 1;\nif x <= 0 then\n  tick(5)\nelse\n  skip\nfi\n")
        code = main(["invariants", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "unreachable" in out


class TestErrorExits:
    """Malformed user input exits 2 with a one-line error (no traceback)."""

    def test_invariant_without_colon(self, program_file, capsys):
        code = main(["analyze", program_file, "--init", "x=5", "--invariant", "abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "LABEL:COND" in err

    def test_invariant_nonnumeric_label(self, program_file, capsys):
        code = main(["analyze", program_file, "--invariant", "foo: x >= 0"])
        assert code == 2
        assert "integer CFG label" in capsys.readouterr().err

    def test_malformed_init_assignment(self, program_file, capsys):
        code = main(["analyze", program_file, "--init", "x:3"])
        assert code == 2
        assert "invalid --init" in capsys.readouterr().err

    def test_non_numeric_init_value(self, program_file, capsys):
        code = main(["simulate", program_file, "--init", "x=ten"])
        assert code == 2
        assert "not a number" in capsys.readouterr().err

    def test_bad_degree(self, program_file, capsys):
        code = main(["analyze", program_file, "--degree", "two"])
        assert code == 2
        assert "--degree" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.prob")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_benchmark_name(self, capsys):
        code = main(["bench", "no_such_bench"])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_parse_error_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "broken.prob"
        path.write_text("var x; while x >= 1 do")
        code = main(["analyze", str(path)])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err


class TestSimulateTruncation:
    def test_truncation_warning_printed(self, tmp_path, capsys):
        path = tmp_path / "diverge.prob"
        path.write_text(NONTERMINATING)
        code = main(["simulate", str(path), "--init", "x=0", "--runs", "20", "--max-steps", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "termination rate: 0.000" in out
        assert "warning: 20 of 20 runs were truncated" in out

    def test_no_warning_when_all_terminate(self, program_file, capsys):
        code = main(["simulate", program_file, "--init", "x=5", "--runs", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "truncated" not in out


class TestDegreeAuto:
    def test_analyze_degree_auto(self, program_file, capsys):
        code = main(["analyze", program_file, "--init", "x=100", "--degree", "auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert "degree:  1 (auto)" in out
        assert "upper:" in out

    def test_bench_degree_and_cap_plumbed(self, capsys):
        code = main(["bench", "simple_loop", "--degree", "2", "--max-multiplicands", "3"])
        assert code == 0
        assert "upper:" in capsys.readouterr().out


class TestBenchAll:
    def test_bench_all_lists_every_benchmark(self, capsys):
        code = main(["bench", "--all"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") >= 32  # 30 benchmarks + header + rule
        assert "bitcoin_mining" in out and "trader" in out

    def test_bench_all_rejects_name(self, capsys):
        code = main(["bench", "rdwalk", "--all"])
        assert code == 2
        assert "either" in capsys.readouterr().err


class TestBatchCommand:
    def test_batch_runs_spec(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "defaults": {"degree": "auto"},
                    "tasks": [{"benchmark": "rdwalk"}, {"benchmark": "ber"}],
                }
            )
        )
        out_path = tmp_path / "report.json"
        code = main(
            ["batch", str(spec), "--jobs", "2", "--output", str(out_path), "--quiet"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "rdwalk" in captured.out and "ber" in captured.out
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "repro-batch/v2"
        assert payload["failed"] == 0
        assert len(payload["reports"]) == 2
        assert all(r["status"] == "ok" for r in payload["reports"])

    def test_batch_failure_exit_code(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"benchmark": "does_not_exist"}]))
        code = main(["batch", str(spec), "--quiet"])
        assert code == 1
        assert "unknown benchmark" in capsys.readouterr().err

    def test_batch_missing_spec(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_batch_invalid_json(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{not json")
        code = main(["batch", str(spec)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestBenchmarkSuggestions:
    """Typo'd names get difflib suggestions in the one-line exit-2 error."""

    def test_bench_typo_suggests_nearest(self, capsys):
        code = main(["bench", "rdwlk"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "did you mean" in err and "rdwalk" in err

    def test_batch_spec_typo_suggests_nearest(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"benchmark": "bitcon_mining"}]))
        code = main(["batch", str(spec), "--quiet", "--no-cache"])
        assert code == 1
        assert "did you mean bitcoin_mining" in capsys.readouterr().err

    def test_far_off_name_lists_registry(self, capsys):
        code = main(["bench", "zzzzqqqq"])
        assert code == 2
        err = capsys.readouterr().err
        assert "known:" in err and "rdwalk" in err


class TestCacheCommands:
    def test_stats_on_empty_cache(self, tmp_path, capsys):
        code = main(["cache", "stats", "--cache-dir", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 0
        assert "entries: 0" in out

    def test_batch_populates_then_stats_then_clear(self, tmp_path, capsys):
        import json

        cache_dir = str(tmp_path / "cache")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"benchmark": "rdwalk"}, {"benchmark": "ber"}]))
        code = main(["batch", str(spec), "--quiet", "--cache-dir", cache_dir])
        captured = capsys.readouterr()
        assert code == 0
        assert "cache: 0 hits, 2 misses" in captured.err

        # Warm re-run: all hits, identical table.
        code = main(["batch", str(spec), "--quiet", "--cache-dir", cache_dir])
        warm = capsys.readouterr()
        assert code == 0
        assert "cache: 2 hits, 0 misses" in warm.err
        assert warm.out == captured.out

        code = main(["cache", "stats", "--json", "--cache-dir", cache_dir])
        stats = json.loads(capsys.readouterr().out)
        assert code == 0 and stats["entries"] == 2

        code = main(["cache", "clear", "--cache-dir", cache_dir])
        assert code == 0
        assert "removed 2" in capsys.readouterr().out
        main(["cache", "stats", "--json", "--cache-dir", cache_dir])
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_no_cache_opt_out(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"benchmark": "rdwalk"}]))
        code = main(["batch", str(spec), "--quiet", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 0
        assert "cache:" not in captured.err

    def test_bench_cache_dir_routes_through_engine(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "bench-cache")
        assert main(["bench", "rdwalk", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr()
        assert "cache: 0 hits, 1 misses" in first.err
        assert main(["bench", "rdwalk", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr()
        assert "cache: 1 hits, 0 misses" in second.err
        assert second.out == first.out


class TestServeArgValidation:
    def test_bad_port_rejected(self, capsys):
        code = main(["serve", "--port", "70000"])
        assert code == 2
        assert "--port" in capsys.readouterr().err

    def test_bad_jobs_rejected(self, capsys):
        code = main(["serve", "--jobs", "0"])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err


class TestReviewRegressions:
    def test_bench_timeout_enforced_on_fixed_degree_path(self, capsys):
        code = main(["bench", "bitcoin_pool", "--timeout", "0.0001"])
        out = capsys.readouterr().out
        assert code == 1
        assert "timeout" in out

    def test_batch_unwritable_output_fails_fast(self, tmp_path, capsys):
        import json

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"benchmark": "rdwalk"}]))
        code = main(["batch", str(spec), "--output", str(tmp_path / "no_dir" / "out.json")])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestNoSolverFlag:
    """HiGHS is the one LP solver: no parser offers ``--solver``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "p.prob", "--solver", "highs"],
            ["bench", "rdwalk", "--solver", "highs"],
            ["batch", "spec.json", "--solver", "highs"],
            ["serve", "--solver", "highs"],
        ],
        ids=["analyze", "bench", "batch", "serve"],
    )
    def test_cli_rejects_solver(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --solver" in capsys.readouterr().err

    def test_table_drivers_reject_solver(self):
        import argparse

        from repro.experiments.common import add_driver_args

        parser = argparse.ArgumentParser()
        add_driver_args(parser)
        with pytest.raises(SystemExit):
            parser.parse_args(["--solver", "highs"])


def _exit_status(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a value outside a flag's choices
        return exc.code


#: verb -> the arguments before its analysis flags.
_VERB_ARGS = {
    "analyze": ["analyze", "{file}"],
    "simulate": ["simulate", "{file}"],
    "invariants": ["invariants", "{file}"],
    "lint": ["lint", "{file}"],
    "bench": ["bench", "rdwalk"],
    "batch": ["batch", "{spec}", "--quiet", "--no-cache"],
    "fuzz": ["fuzz", "--count", "1"],
}

#: (verb, flag, bad value, expected stderr substring) for every flag a
#: verb takes that sets an AnalysisOptions field and has a bad value.
_BAD_FLAG_VALUES = [
    ("analyze", "--init", "x:3", "invalid --init"),
    ("analyze", "--degree", "two", "--degree"),
    ("analyze", "--degree", "0", "--degree"),
    ("analyze", "--max-degree", "0", "--max-degree"),
    ("analyze", "--mode", "strict", "--mode"),
    ("analyze", "--invariant", "abc", "LABEL:COND"),
    ("analyze", "--invariant", "foo: x >= 0", "integer CFG label"),
    ("analyze", "--max-multiplicands", "0", "--max-multiplicands"),
    ("analyze", "--tail-horizon", "0", "--tail-horizon"),
    ("analyze", "--tail-probes", "-1", "--tail-probes"),
    ("analyze", "--tail-probes", "a,b", "--tail-probes"),
    ("analyze", "--invariant-domain", "polyhedra", "--invariant-domain"),
    ("simulate", "--init", "x=ten", "not a number"),
    ("simulate", "--runs", "0", "--runs"),
    ("simulate", "--seed", "-1", "--seed"),
    ("simulate", "--max-steps", "0", "--max-steps"),
    ("simulate", "--engine", "turbo", "--engine"),
    ("invariants", "--init", "x:3", "invalid --init"),
    ("invariants", "--domain", "polyhedra", "--domain"),
    ("lint", "--init", "x:3", "invalid --init"),
    ("lint", "--invariant", "foo: x >= 0", "integer CFG label"),
    ("lint", "--invariant-domain", "polyhedra", "--invariant-domain"),
    ("bench", "--init", "x:3", "invalid --init"),
    ("bench", "--degree", "0", "--degree"),
    ("bench", "--max-degree", "0", "--max-degree"),
    ("bench", "--max-multiplicands", "0", "--max-multiplicands"),
    ("bench", "--timeout", "0", "--timeout"),
    ("bench", "--invariant-domain", "polyhedra", "--invariant-domain"),
    ("batch", "--timeout", "0", "--timeout"),
    ("batch", "--timeout", "-5", "--timeout"),
    ("batch", "--invariant-domain", "polyhedra", "--invariant-domain"),
    ("fuzz", "--invariant-domain", "polyhedra", "--invariant-domain"),
]


class TestAnalysisFlags:
    """The analysis flags come from one table over AnalysisOptions: the
    record checks their values, and a bad one exits 2 naming the flag."""

    @pytest.mark.parametrize(
        "verb,flag,value,expected",
        _BAD_FLAG_VALUES,
        ids=[f"{verb}{flag}={value}" for verb, flag, value, _ in _BAD_FLAG_VALUES],
    )
    def test_bad_value_exits_2_naming_the_flag(
        self, program_file, tmp_path, capsys, verb, flag, value, expected
    ):
        spec = tmp_path / "spec.json"
        # Every task sets its own timeout: --timeout is still checked.
        spec.write_text(json.dumps([{"benchmark": "rdwalk", "timeout_s": 30}]))
        argv = [arg.format(file=program_file, spec=spec) for arg in _VERB_ARGS[verb]]
        assert _exit_status([*argv, flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and expected in err

    def test_choices_are_the_option_constants(self):
        from repro.api.options import INVARIANT_DOMAINS, MODES, SIMULATE_ENGINES
        from repro.cli import build_parser

        expected = {
            "--mode": MODES,
            "--invariant-domain": INVARIANT_DOMAINS,
            "--domain": INVARIANT_DOMAINS,
            "--engine": SIMULATE_ENGINES,
        }
        (verbs,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
        seen = []
        for verb, parser in verbs.choices.items():
            for action in parser._actions:
                flag = action.option_strings[0] if action.option_strings else None
                if flag in expected:
                    assert action.choices is expected[flag], (verb, flag)
                    seen.append((verb, flag))
        assert sorted(seen) == [
            ("analyze", "--invariant-domain"),
            ("analyze", "--mode"),
            ("batch", "--invariant-domain"),
            ("bench", "--invariant-domain"),
            ("fuzz", "--invariant-domain"),
            ("invariants", "--domain"),
            ("lint", "--invariant-domain"),
            ("simulate", "--engine"),
        ]

    def test_negative_seed_is_rejected_before_any_run(self, program_file, capsys):
        code = main(["simulate", program_file, "--init", "x=10", "--runs", "1000", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--seed" in captured.err and captured.out == ""


class TestLintSpecFlags:
    SPEC = {"tasks": [{"benchmark": "rdwalk"}]}

    @pytest.fixture
    def spec(self, tmp_path):
        path = tmp_path / "rd.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_init_on_a_spec_exits_2(self, spec, capsys):
        # The tasks carry their own init; --benchmark rdwalk with this
        # init has findings, so dropping it would read as clean.
        assert main(["lint", spec, "--init", "x=2000,n=1000"]) == 2
        assert "--init" in capsys.readouterr().err

    def test_invariant_domain_applies_to_every_task(self, spec, capsys):
        assert main(["lint", spec]) == 0
        assert "REP013" not in capsys.readouterr().out
        assert main(["lint", spec, "--invariant-domain", "octagon"]) == 0
        out = capsys.readouterr().out
        assert "REP013" in out and "(0 errors, 3 warnings)" in out
