#!/usr/bin/env python3
"""Species fight: multiplicative dynamics and the nonnegative-cost regime.

Reproduces the paper's Section 3.4 example (Figure 8): two competing
populations evolve by multiplicative updates (``a := 1.1 * a`` etc.),
consuming one resource unit per individual per time step until one
population collapses below the sustainability threshold.

Multiplicative updates are *unbounded*, so the signed-cost theory of
Section 6.2 does not apply — but the costs are nonnegative, and
Theorem 6.14 (via the Monotone Convergence Theorem, no OST needed)
yields upper bounds from a *nonnegative* PUCS.  No lower bound exists
in this regime, which the pipeline reports honestly.

Run:  python examples/species_fight.py
"""

import repro
from repro.api import AnalysisOptions
from repro.programs import get_benchmark


def main() -> None:
    bench = get_benchmark("species_fight")
    print(bench.title)
    print()

    result = bench.analyze()
    print(result.summary())
    print()
    print(f"paper's reported bound: {bench.paper_upper}")
    print()

    # The synthesized h factors as 40(a - 4.5)(b - 4.5): resource use is
    # governed by the product of the populations.
    print(f"{'a0':>5} {'b0':>5} {'sim mean':>12} {'PUCS upper':>12}")
    for a0, b0 in ((8.0, 8.0), (12.0, 10.0), (16.0, 10.0), (20.0, 20.0)):
        init = {"a": a0, "b": b0}
        res = bench.analyze(AnalysisOptions(init=init))
        stats = repro.simulate(bench.cfg, init, runs=400, seed=0)
        print(f"{a0:>5.0f} {b0:>5.0f} {stats.mean:>12.1f} {res.upper.value:>12.1f}")

    print()
    print("Note the widening gap: Theorem 6.14 gives sound upper bounds,")
    print("but with multiplicative variance the expectation concentrates")
    print("well below the worst case; no PLCS exists in this regime.")
    mode = result.mode
    print(f"regime: {mode.name} (lower bounds available: {mode.lower})")


if __name__ == "__main__":
    main()
