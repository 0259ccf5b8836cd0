"""Ranking supermartingales and the concentration property.

Theorems 6.10/6.12 require the *concentration* property: positive
constants ``a, b`` with ``P(T > n) <= a * exp(-b n)`` for every
scheduler.  Following the paper (which reuses the tool of [18]), a
sufficient certificate is a **difference-bounded ranking
supermartingale** (RSM): a function ``eta`` over configurations with

* ``eta(l, v) >= 0``                      on every label's invariant,
* ``pre_eta(l, v) <= eta(l, v) - eps``    at every non-terminal label
  (for *all* successors of nondeterministic labels — termination must
  hold under every scheduler), where ``pre_eta`` is the cost-free
  pre-expectation: at a tick label it is ``eta(succ)``, not
  ``cost + eta(succ)``,
* bounded stepwise differences.

The RSM (linear by default) is one more
:class:`~repro.core.handelman.CertificateProblem` over the cost
analysis's memoised template; for a linear ``eta``, bounded differences
follow from the bounded-update property, checked as ``classify`` does.
As a by-product, ``eta(l_in, v) / eps`` bounds the expected termination
time, so the certificate also witnesses finite termination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..core.conditions import ConditionReport, check_bounded_updates
from ..core.handelman import CertificateProblem
from ..core.preexpectation import PreCase
from ..core.synthesis import anchor_objective, template_memo
from ..errors import SynthesisError
from ..invariants import InvariantMap
from ..polynomials import Polynomial
from ..semantics.cfg import CFG, TerminalLabel, TickLabel

__all__ = ["RankingCertificate", "synthesize_rsm", "certify_concentration"]


@dataclass
class RankingCertificate:
    """A synthesized RSM and what it certifies."""

    eta: Dict[int, Polynomial]
    epsilon: float
    expected_time_bound: float
    bounded_updates: ConditionReport
    lp_variables: int = 0
    lp_equalities: int = 0
    runtime: float = 0.0

    @property
    def certifies_concentration(self) -> bool:
        """Concentration needs the RSM *and* bounded differences."""
        return bool(self.bounded_updates)

    def eta_at(self, label_id: int, valuation: Mapping[str, float]) -> float:
        return self.eta[label_id].evaluate_numeric(valuation)


def synthesize_rsm(
    cfg: CFG,
    invariants: InvariantMap,
    init: Mapping[str, float],
    epsilon: float = 1.0,
    degree: int = 1,
    max_multiplicands: Optional[int] = None,
) -> RankingCertificate:
    """Synthesize an ``epsilon``-decreasing ranking supermartingale.

    Raises :class:`InfeasibleError` when no RSM of the requested degree
    exists over the given invariants (the program may still terminate —
    the certificate is sufficient, not necessary).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    start = time.perf_counter()
    memo = template_memo(cfg, degree)
    template = memo.template
    eta = template.polys
    problem = CertificateProblem(template.unknowns)
    for label in cfg:
        if isinstance(label, TerminalLabel):
            continue
        nonnegative = memo.target(("nn", label.id), lambda: eta[label.id])
        # Ranking condition: eta - pre_eta - eps >= 0, for every case
        # and every nondeterministic successor (demonic termination).
        # An RSM ranks steps, not cost: a tick's step is eta(succ).
        cases = memo.cases[label.id]
        if isinstance(label, TickLabel):
            cases = [PreCase(poly=eta[label.succ])]
        ranking = [
            memo.target(("rsm", label.id, case_index, epsilon), lambda: eta[label.id] - case.poly - epsilon)
            for case_index, case in enumerate(cases)
        ]
        for d_index, polyhedron in enumerate(invariants.get(label.id)):
            # Nonnegativity of eta on the invariant; its cap is the
            # template degree whatever ``max_multiplicands`` says.
            problem.add_site(
                f"rsm_nn_{label.id}_{d_index}", nonnegative, polyhedron.constraints, cap=max(degree, 1),
            )
            for case_index, case in enumerate(cases):
                problem.add_site(
                    f"rsm_{label.id}_{case_index}_{d_index}",
                    ranking[case_index],
                    polyhedron.constraints + [atom.poly for atom in case.guard],
                    cap=max_multiplicands,
                )

    solution = problem.solve(anchor_objective(cfg, template, init))
    return RankingCertificate(
        eta=template.instantiate(solution.values),
        epsilon=epsilon,
        expected_time_bound=solution.objective / epsilon,
        bounded_updates=check_bounded_updates(cfg, invariants),
        lp_variables=solution.num_variables,
        lp_equalities=solution.num_equalities,
        runtime=time.perf_counter() - start,
    )


def certify_concentration(
    cfg: CFG,
    invariants: InvariantMap,
    init: Mapping[str, float],
    epsilon: float = 1.0,
    degree: int = 1,
) -> Optional[RankingCertificate]:
    """Try to certify the concentration property (Section 2.2).

    Returns a certificate whose :attr:`certifies_concentration` flag is
    set when both the RSM synthesis and the bounded-difference check
    succeed, or ``None`` when the RSM LP finds none of the requested
    degree: infeasible, unbounded, or not settled by HiGHS.
    """
    try:
        return synthesize_rsm(cfg, invariants, init, epsilon=epsilon, degree=degree)
    except SynthesisError:
        return None
