"""Experiment harness tests (with small run counts for speed)."""

import pytest

from repro.api import Analyzer
from repro.batch import AnalysisReport, requests_from_spec
from repro.experiments import (
    build_figure,
    build_table2,
    build_table4,
    build_table5,
    fmt,
    probabilistic_variant,
    render_table,
)
from repro.experiments import table_tails
from repro.experiments.table2 import PAPER_74_UPPER, main as table2_main
from repro.experiments.table3 import build_table3
from repro.programs import get_benchmark


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return build_table2()

    def test_fifteen_rows(self, rows):
        assert len(rows) == 15

    def test_all_have_upper_bound(self, rows):
        assert all(r.our_upper for r in rows)

    def test_paper_column_complete(self, rows):
        assert all(r.paper_74 for r in rows)
        assert set(PAPER_74_UPPER) == {r.benchmark for r in rows}

    def test_baseline_refuses_variable_cost_programs(self, rows):
        by_name = {r.benchmark: r for r in rows}
        for name in ("pol04", "pol05", "trader"):
            assert by_name[name].baseline_upper is None

    def test_lower_bounds_where_regime_admits(self, rows):
        by_name = {r.benchmark: r for r in rows}
        assert by_name["ber"].our_lower is not None
        assert by_name["rdbub"].our_lower == "0"

    def test_renders(self):
        assert "Table 2" in table2_main()


class TestTable3:
    def test_rows_for_fast_subset(self):
        benches = [get_benchmark(n) for n in ("simple_loop", "random_walk")]
        rows = build_table3(benches)
        assert [r.benchmark for r in rows] == ["simple_loop", "random_walk"]
        assert all(r.upper for r in rows)
        assert all(r.runtime > 0 for r in rows)


class TestTable4:
    def test_bitcoin_rows_have_no_simulation(self):
        rows = build_table4(runs=10, benchmarks=[get_benchmark("bitcoin_mining")])
        assert len(rows) == 3
        assert all(r.sim_mean is None for r in rows)

    def test_simulable_rows_bracket(self):
        rows = build_table4(runs=150, benchmarks=[get_benchmark("simple_loop")])
        for row in rows:
            assert row.sim_mean is not None
            assert row.bracket_ok(slack=4 * row.sim_std / (150**0.5))


class TestTable5:
    def test_bitcoin_becomes_simulable(self):
        rows = build_table5(runs=30, benchmarks=[get_benchmark("bitcoin_mining")])
        assert all(r.sim_mean is not None for r in rows)
        assert all(r.benchmark == "bitcoin_mining_prob" for r in rows)

    def test_probabilistic_variant_identity_for_prob_programs(self):
        bench = get_benchmark("simple_loop")
        assert probabilistic_variant(bench) is bench

    def test_probabilistic_variant_bounds_still_synthesize(self):
        variant = probabilistic_variant(get_benchmark("bitcoin_mining"))
        result = variant.analyze()
        assert result.upper is not None
        # prob(0.5) reward acceptance: per-iteration expected cost is
        # 1 - 0.0005*5000*(0.99 + 0.01*0.5) = -1.4875.
        assert result.upper.value == pytest.approx(1.4875 - 1.4875 * 100, rel=1e-6)


class TestSuiteRequests:
    """The table4/5 drivers run exactly the requests of the matching
    ``repro batch`` suite spec."""

    @pytest.mark.parametrize(
        "suite, build", [("table3", build_table4), ("table5", build_table5)], ids=["t4", "t5"]
    )
    def test_driver_requests_equal_spec_suite(self, monkeypatch, suite, build):
        seen = []

        def fake_batch(self, requests, **kwargs):
            seen.extend(requests)
            return [AnalysisReport(name=r.display_name, status="ok") for r in requests]

        monkeypatch.setattr(Analyzer, "analyze_batch", fake_batch)
        build(runs=1000, seed=0)
        spec = {
            "defaults": {"simulate_runs": 1000, "simulate_seed": 0},
            "tasks": [{"suite": suite, "all_inits": True}],
        }
        assert seen == requests_from_spec(spec)
        assert len(seen) == 30

    def test_tail_driver_requests_equal_spec_suite(self, monkeypatch):
        seen = []

        def fake_batch(self, requests, **kwargs):
            seen.extend(requests)
            return [AnalysisReport(name=r.display_name, status="ok") for r in requests]

        monkeypatch.setattr(Analyzer, "analyze_batch", fake_batch)
        table_tails.build_table_tails(runs=300, horizon=1200, seed=7)
        spec = {
            "defaults": {
                "tails": True,
                "tail_horizon": 1200,
                "simulate_runs": 300,
                "simulate_seed": 7,
                "simulate_max_steps": 1200,
            },
            "tasks": [{"suite": "tails"}],
        }
        assert seen == requests_from_spec(spec)
        assert len(seen) == 8
        assert [r.nondet_prob for r in seen] == [None] * 7 + [0.5]

    def test_nondeterministic_figure_points_are_request_pairs(self, monkeypatch):
        """Each sweep point bounds the program as written and simulates
        its coin-flip variant; a probabilistic program needs one
        request per point."""
        from repro.experiments.figures import build_all_figures

        seen = []

        def fake_batch(self, requests, **kwargs):
            seen.extend(requests)
            return [AnalysisReport(name=r.display_name, status="ok") for r in requests]

        monkeypatch.setattr(Analyzer, "analyze_batch", fake_batch)
        benches = [get_benchmark("bitcoin_mining"), get_benchmark("random_walk")]
        series = build_all_figures(points=3, runs=50, benchmarks=benches)
        assert [len(s.xs) for s in series] == [3, 3]
        assert len(seen) == 3 * 2 + 3
        bounds, sims = seen[0:6:2], seen[1:6:2]
        assert all(r.simulate_runs is None and r.nondet_prob is None for r in bounds)
        assert all(r.simulate_runs == 50 and r.nondet_prob == 0.5 for r in sims)
        assert [r.init for r in bounds] == [r.init for r in sims]
        assert all(r.simulate_runs == 50 and r.nondet_prob is None for r in seen[6:])


class TestFigures:
    def test_series_bracketing(self):
        series = build_figure(get_benchmark("random_walk"), points=5, runs=120)
        assert len(series.xs) == 5
        assert series.figure_number == 21
        assert not series.bracketing_violations(slack=6.0)

    def test_plot_renders(self):
        from repro.experiments.figures import render_figure

        series = build_figure(get_benchmark("random_walk"), points=4, runs=40)
        text = render_figure(series)
        assert "Figure 21" in text
        assert "PUCS" in text


class TestFormatting:
    def test_fmt(self):
        assert fmt(None) == "-"
        assert fmt(0) == "0"
        assert fmt(12345.0) == "1.23e+04"
        assert fmt(1.5) == "1.5"

    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:2])


class TestJobsParity:
    """The --jobs flag must never change any reported bound."""

    def test_table3_parallel_matches_sequential(self):
        benches = [get_benchmark(n) for n in ("simple_loop", "random_walk", "bitcoin_mining")]
        seq = build_table3(benches)
        with Analyzer(jobs=2) as analyzer:
            par = build_table3(benches, analyzer=analyzer)
        key = lambda r: (r.benchmark, r.upper, r.lower, r.upper_value, r.lower_value)
        assert [key(r) for r in par] == [key(r) for r in seq]

    def test_figures_parallel_match_sequential(self):
        from repro.experiments.figures import build_all_figures

        benches = [get_benchmark("bitcoin_mining"), get_benchmark("random_walk")]
        seq = build_all_figures(points=3, runs=30, benchmarks=benches)
        with Analyzer(jobs=2) as analyzer:
            par = build_all_figures(points=3, runs=30, benchmarks=benches, analyzer=analyzer)
        assert par == seq
        assert all(mean is not None for s in seq for mean in s.sim_mean)

    def test_tail_table_parallel_matches_sequential(self):
        seq = table_tails.build_table_tails(runs=200, horizon=800)
        with Analyzer(jobs=2) as analyzer:
            par = table_tails.build_table_tails(runs=200, horizon=800, analyzer=analyzer)
        assert par == seq
        assert all(row.checks and row.sound for row in seq)

    def test_table5_parallel_matches_sequential(self):
        benches = [get_benchmark("bitcoin_mining"), get_benchmark("simple_loop")]
        seq = build_table5(runs=25, benchmarks=benches)
        with Analyzer(jobs=2) as analyzer:
            par = build_table5(runs=25, benchmarks=benches, analyzer=analyzer)
        key = lambda r: (r.benchmark, r.upper_value, r.lower_value, r.sim_mean, r.sim_std)
        assert [key(r) for r in par] == [key(r) for r in seq]


def _tail_row(freq, bound):
    """A one-probe tail row whose empirical frequency is ``freq``."""
    return table_tails.TailRow(
        benchmark="rdwalk",
        init={"x": 10.0},
        expected=20.0,
        c=3.0,
        horizon=100,
        runs=1,
        checks=[table_tails.TailCheck(t=5.0, bound=bound, freq=freq)],
    )


class TestTableTails:
    """The tail-bound validation driver (new workload)."""

    def test_rows_are_sound_and_complete(self):
        from repro.experiments import build_table_tails

        benches = [get_benchmark("rdwalk"), get_benchmark("bitcoin_mining")]
        rows = build_table_tails(runs=200, horizon=800, seed=0, benchmarks=benches)
        assert [row.benchmark for row in rows] == ["rdwalk", "bitcoin_mining_prob"]
        for row in rows:
            assert row.unavailable is None, row.unavailable
            assert row.c > 0 and row.horizon == 800
            assert row.checks and row.sound
            # Bounds decrease as the probed offset grows.
            bounds = [check.bound for check in row.checks]
            assert bounds == sorted(bounds, reverse=True)

    def test_unavailable_benchmark_reports_reason(self):
        from repro.experiments import build_table_tails

        rows = build_table_tails(runs=10, horizon=100, benchmarks=[get_benchmark("pol04")])
        (row,) = rows
        assert row.unavailable is not None
        assert "tail bound unavailable" in row.unavailable
        assert not row.checks

    def test_main_renders_summary_line(self):
        from repro.experiments.table_tails import main

        text = main(runs=50, horizon=400)
        assert "Tail bounds" in text
        assert "all empirical tails within bounds" in text

    @pytest.mark.parametrize(
        "row, footer",
        [
            (_tail_row(freq=0.5, bound=0.1), "1 violated bound(s)"),
            (
                table_tails.TailRow(benchmark="pol04", init={}, unavailable="no c"),
                "no tail bounds available - nothing validated",
            ),
        ],
        ids=["violated", "nothing-validated"],
    )
    def test_cli_exits_nonzero_unless_validated(self, monkeypatch, capsys, row, footer):
        monkeypatch.setattr(table_tails, "build_table_tails", lambda **kwargs: [row])
        assert table_tails.cli(["--runs", "1", "--no-cache"]) == 1
        assert footer in capsys.readouterr().out

    def test_cli_exits_zero_when_every_bound_holds(self, monkeypatch, capsys):
        row = _tail_row(freq=0.01, bound=0.1)
        monkeypatch.setattr(table_tails, "build_table_tails", lambda **kwargs: [row])
        assert table_tails.cli(["--runs", "1", "--no-cache"]) == 0
        assert "all empirical tails within bounds (1/1" in capsys.readouterr().out


class TestDriverFlags:
    """Every driver's flags are defined, and checked, in one place."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--runs", "0"], "--runs"),
            (["--points", "1"], "--points"),
            (["--horizon", "0"], "--horizon"),
            (["--jobs", "0"], "--jobs"),
            (["--runs", "many"], "--runs"),
        ],
        ids=["runs", "points", "horizon", "jobs", "not-an-int"],
    )
    def test_values_below_the_minimum_are_usage_errors(self, capsys, argv, flag):
        from repro.experiments.common import driver_cli

        def never(**settings):
            raise AssertionError("main ran despite a bad flag")

        with pytest.raises(SystemExit) as info:
            driver_cli(never, "d", argv, points=20, runs=200, horizon=2000, seed=0)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected an int >=" in err

    def test_tail_table_rejects_zero_runs(self, capsys):
        with pytest.raises(SystemExit) as info:
            table_tails.cli(["--runs", "0"])
        assert info.value.code == 2
        assert "argument --runs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "module, argv",
        [("figures", ["--points", "1"]), ("table4", ["--runs", "0"])],
        ids=["figures", "table4"],
    )
    def test_driver_modules_exit_2_without_traceback(self, module, argv):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        result = subprocess.run(
            [sys.executable, "-m", f"repro.experiments.{module}", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert result.returncode == 2
        assert f"argument {argv[0]}" in result.stderr
        assert "Traceback" not in result.stderr
