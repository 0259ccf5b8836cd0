#!/usr/bin/env python3
"""Cryptocurrency mining: signed costs and demonic nondeterminism.

Reproduces the paper's Section 3.1 motivating example (Figure 3): a
miner pays electricity (positive cost) and occasionally wins a block
reward (negative cost).  When several miners solve the puzzle at once,
*whether our miner gets paid* is left to demonic nondeterminism — so
the worst-case expected cost maximizes over schedulers.

This example shows:
* bounds on the nondeterministic program (no simulation possible),
* the Table 5 experiment: replacing ``if *`` with a fair coin, which
  makes the program simulable, and how the bound tightens,
* why the [74] baseline cannot handle the program at all.

Run:  python examples/crypto_mining.py
"""

import repro
from repro.api import AnalysisOptions
from repro.baseline import baseline_upper_bound
from repro.errors import UnsupportedProgramError
from repro.programs import get_benchmark

def main() -> None:
    bench = get_benchmark("bitcoin_mining")
    print(bench.title)
    print(bench.cfg.pretty())
    print()

    result = bench.analyze(AnalysisOptions(init={"x": 100}))
    print("--- demonic nondeterminism (the adversary may withhold rewards) ---")
    print(result.summary())
    print()
    print("Mining 100 rounds is profitable even in the worst case:")
    print(f"  expected total cost is between {result.lower.value:.2f} "
          f"and {result.upper.value:.2f} (negative = net reward)")
    print()

    # The [74]-style baseline requires nonnegative costs: rewards break it.
    try:
        baseline_upper_bound(bench.cfg, bench.invariant_map(), bench.init)
    except UnsupportedProgramError as exc:
        print(f"[74] baseline refuses this program: {exc}")
    print()

    # Table 5: resolve ties with a fair coin instead -> simulable.
    prob_result = repro.analyze(bench, init={"x": 100}, nondet_prob=0.5, degree=1)
    stats = repro.simulate(prob_result.cfg, {"x": 100}, runs=2000, seed=0)
    print("--- nondeterminism replaced by prob(0.5) (Table 5) ---")
    print(f"upper bound    : {prob_result.upper.value:.2f}")
    print(f"lower bound    : {prob_result.lower.value:.2f}")
    print(f"simulated mean : {stats.mean:.2f} (std {stats.std:.2f})")


if __name__ == "__main__":
    main()
