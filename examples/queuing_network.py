#!/usr/bin/env python3
"""Fork-join queuing network: unbounded, state-dependent costs.

Reproduces the paper's Section 3.3 example (Figure 6): a two-processor
fork-join network where each arriving job is split across queues and
the cost of a job is the length of the longest queue — a cost that is
*unbounded* and grows with the state, which prior approaches [74]
could not express.

The analysis synthesizes degree-3 polynomial upper and lower bounds on
the expected total processing time over an ``n``-step horizon and
compares them with simulation across several horizons.

Run:  python examples/queuing_network.py
"""

import repro
from repro.api import AnalysisOptions
from repro.programs import get_benchmark


def main() -> None:
    bench = get_benchmark("queuing_network")
    print(bench.title)
    print()

    print(f"{'horizon n':>10} {'PLCS lower':>12} {'sim mean':>10} {'PUCS upper':>12}")
    for n in (80.0, 160.0, 240.0, 320.0):
        init = {"l1": 0.0, "l2": 0.0, "i": 1.0, "n": n}
        result = bench.analyze(AnalysisOptions(init=init))
        stats = repro.simulate(bench.cfg, init, runs=300, seed=0)
        print(
            f"{n:>10.0f} {result.lower.value:>12.3f} {stats.mean:>10.3f} "
            f"{result.upper.value:>12.3f}"
        )

    result = bench.analyze()
    print()
    print("symbolic bounds at n = 320 (cubic in the queue lengths):")
    print(f"  upper: {result.upper.bound.round(5)}")
    print(f"  lower: {result.lower.bound.round(5)}")
    print()
    print("Interpretation: expected processing-time accrues at a constant")
    print("rate per time step (the linear n - i term); the l1/l2 terms")
    print("account for work already queued at the start.")


if __name__ == "__main__":
    main()
