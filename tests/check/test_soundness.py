"""Soundness of the interval abstract interpreter.

The property: every concretely reachable state lies inside the abstract
box the fixpoint assigns to its label.  The interpreter drives 200
random runs across a mix of registry benchmarks and a geometric-noise
program (unbounded sampling support exercises the infinite-interval
arithmetic) and asserts containment at every trajectory point.
"""

import random

import pytest

from repro.api import Analyzer
from repro.check import analyze_cfg
from repro.programs import get_benchmark
from repro.semantics import build_cfg
from repro.semantics.interpreter import run
from repro.syntax import parse_program

GEOMETRIC_WALK = """
var x;
sample r ~ geometric(0.5);
x := 12;
while x >= 1 do
    x := x - r;
    tick(1)
od
"""

#: (cfg provider, init) — 4 programs x 50 runs = 200 random runs.
CASES = [
    ("rdwalk", None),
    ("ber", None),
    ("linear01", None),
    ("geometric_walk", None),
]
RUNS_PER_CASE = 50


def _case(name):
    if name == "geometric_walk":
        cfg = build_cfg(parse_program(GEOMETRIC_WALK, name=name))
        return cfg, {}
    bench = get_benchmark(name)
    assert bench.simulation_supported, f"{name} needs a scheduler"
    return bench.cfg, dict(bench.init)


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_abstract_states_contain_concrete_runs(name):
    cfg, init = _case(name)
    analysis = analyze_cfg(cfg, {k: v for k, v in init.items() if k in cfg.pvars})
    for seed in range(RUNS_PER_CASE):
        rng = random.Random(0xC0FFEE + seed)
        result = run(cfg, init, rng=rng, max_steps=50_000, record_trajectory=True)
        assert result.trajectory is not None
        for label_id, valuation, _cost in result.trajectory:
            assert analysis.contains(label_id, valuation), (
                f"run {seed}: concrete state {valuation} at label {label_id} "
                f"escapes abstract box {analysis.state(label_id)}"
            )


def test_entry_state_contains_init():
    cfg, init = _case("rdwalk")
    analysis = analyze_cfg(cfg, init)
    full = {var: init.get(var, 0.0) for var in cfg.pvars}
    assert analysis.contains(cfg.entry, full)


def test_unreachable_label_contains_nothing():
    source = "var x;\nx := 1;\nif x <= 0 then\n  tick(5)\nelse\n  skip\nfi\n"
    cfg = build_cfg(parse_program(source, name="dead"))
    analysis = analyze_cfg(cfg, {})
    dead = [label.id for label in cfg if not analysis.reachable(label.id)]
    assert dead, "expected a provably dead label"
    for label_id in dead:
        assert not analysis.contains(label_id, {"x": 1.0})


def test_lint_accepts_parsed_ast():
    program = parse_program(GEOMETRIC_WALK, name="geo")
    result = Analyzer().lint(program)
    assert "REP006" in result.codes()
