"""Tail-bound (concentration) analysis over synthesized certificates.

The PUCS synthesized by the paper's machinery proves an *expected* cost
bound, but the certificate carries more information: the process

    X_n = (accumulated cost after n steps) + h(l_n, v_n)

is a supermartingale (condition (C3) is exactly ``pre_h <= h``), starts
at ``X_0 = h(l_in, v*) = E`` and equals the accumulated cost once the
run terminates (``h(l_out) = 0``, condition (C2)).  If its stepwise
differences are bounded almost surely — ``|X_{n+1} - X_n| <= c``, a
property :func:`repro.core.synthesis.difference_bound` certifies with
an auxiliary LP over the same Handelman monoid products — then the
Azuma–Hoeffding inequality applied to the stopped process gives, for
every horizon ``n`` and every ``t > 0``,

    P[ cost >= E + t  and  T <= n ]  <=  exp( -t^2 / (2 c^2 n) ).

The guarantee covers runs that terminate within the horizon; combined
with the concentration certificate of :mod:`repro.termination`
(``P[T > n]`` decays geometrically) the residual event is itself
exponentially unlikely.  Monte-Carlo validation compares the bound
against empirical tail frequencies of interpreter runs truncated at
the same horizon (see ``repro.experiments.table_tails`` and the
integration tests).

When the reported certificate has no constant difference bound (e.g. a
quadratic ``h`` whose gradient is unbounded on the invariant),
:func:`derive_tail_bound` *refits* a degree-1 PUCS for the tail
analysis only: any valid upper certificate yields a valid — if looser
— concentration statement, with its own anchor value ``E``.  When the
degree ladder already ran degree 1 for the request, the refit is that
rung's certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.synthesis import BoundResult, difference_bound, synthesize
from ..errors import InfeasibleError, SynthesisError, UnboundedError
from ..semantics.cfg import AssignLabel

__all__ = ["DEFAULT_TAIL_HORIZON", "TailBound", "TailProbe", "derive_tail_bound"]

#: Default step horizon ``n`` — matches the interpreter's default
#: ``max_steps`` truncation so simulated runs and the guarantee cover
#: the same event.
DEFAULT_TAIL_HORIZON = 1_000_000

#: Probe offsets in units of ``c * sqrt(horizon)`` (the natural scale of
#: the Azuma bound) used when the caller doesn't supply explicit ``t``
#: values; ``exp(-alpha^2 / 2)`` at these points spans ~0.9 .. ~1e-2.
DEFAULT_PROBE_ALPHAS = (0.5, 1.0, 2.0, 3.0)


@dataclass
class TailProbe:
    """The concentration bound evaluated at one offset ``t``."""

    t: float
    bound: float


@dataclass
class TailBound:
    """An Azuma–Hoeffding concentration statement for the total cost.

    ``bound_at(t)`` upper-bounds ``P[cost >= expected + t, T <= horizon]``
    for every ``t > 0``; ``probes`` pre-evaluates it at a few offsets
    for reports.
    """

    #: Certified almost-sure step-difference bound of the supermartingale.
    c: float
    #: Step horizon ``n`` the guarantee is stated for.
    horizon: int
    #: Anchor value ``E = h(l_in, v*)`` of the certificate used (equals
    #: the reported upper bound unless the certificate was refitted).
    expected: float
    probes: List[TailProbe] = field(default_factory=list)
    method: str = "azuma-hoeffding"
    #: Template degree of the certificate the bound was derived from.
    degree: int = 1
    #: True when the reported certificate had no constant difference
    #: bound and a degree-1 PUCS was re-synthesized for the tail
    #: analysis (``expected`` is then that certificate's anchor value).
    refit: bool = False

    def bound_at(self, t: float) -> float:
        """``P[cost >= expected + t, T <= horizon] <= bound_at(t)``."""
        if t <= 0.0:
            return 1.0
        if self.c == 0.0:
            # A zero difference bound means X is constant: the cost of
            # every terminating run is exactly ``expected``.
            return 0.0
        exponent = -(t * t) / (2.0 * self.c * self.c * float(self.horizon))
        return min(1.0, math.exp(exponent))

    def summary_lines(self) -> List[str]:
        """Human-readable lines for ``CostAnalysisResult.summary()``."""
        origin = f"degree-{self.degree} refit certificate" if self.refit else "reported certificate"
        lines = [
            f"tail:    P[cost >= {self.expected:.6g} + t, T <= {self.horizon}] "
            f"<= exp(-t^2 / (2 * {self.c:.6g}^2 * {self.horizon}))  [{origin}]"
        ]
        for probe in self.probes:
            lines.append(f"         t = {probe.t:.6g}: <= {probe.bound:.6g}")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "c": self.c,
            "horizon": self.horizon,
            "expected": self.expected,
            "degree": self.degree,
            "refit": self.refit,
            "probes": [{"t": probe.t, "bound": probe.bound} for probe in self.probes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TailBound":
        return cls(
            c=float(data["c"]),
            horizon=int(data["horizon"]),
            expected=float(data["expected"]),
            probes=[
                TailProbe(t=float(p["t"]), bound=float(p["bound"]))
                for p in data.get("probes", ())
            ],
            method=str(data.get("method", "azuma-hoeffding")),
            degree=int(data.get("degree", 1)),
            refit=bool(data.get("refit", False)),
        )


def _default_probes(c: float, horizon: int) -> List[float]:
    if c == 0.0:
        return [1.0]
    scale = c * math.sqrt(float(horizon))
    return [alpha * scale for alpha in DEFAULT_PROBE_ALPHAS]


def derive_tail_bound(
    result,
    horizon: Optional[int] = None,
    probes: Optional[Sequence[float]] = None,
    max_multiplicands: Optional[int] = None,
    uppers: Optional[Mapping[int, Optional[BoundResult]]] = None,
) -> TailBound:
    """Derive the concentration bound for a :class:`CostAnalysisResult`.

    ``result`` must carry a synthesized upper bound (``result.upper``).
    ``horizon`` defaults to :data:`DEFAULT_TAIL_HORIZON`; ``probes`` are
    the offsets ``t`` to pre-evaluate (defaulting to multiples of the
    natural scale ``c * sqrt(horizon)``).  ``uppers`` maps degrees
    already synthesized for this request (the degree ladder's rungs,
    same invariants, regime and cap) to their upper bound, ``None``
    where synthesis failed; a refit at such a degree reuses it instead
    of solving its LP again.

    Raises :class:`SynthesisError` when no upper certificate exists and
    :class:`InfeasibleError`/:class:`UnboundedError` when neither the
    reported certificate nor a degree-1 refit admits a constant
    difference bound; ``analyze(tails=True)`` maps those to a warning.
    """
    if result.upper is None:
        raise SynthesisError("tail bound needs a synthesized upper bound (PUCS)")
    if horizon is None:
        horizon = DEFAULT_TAIL_HORIZON
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"tail horizon must be >= 1, got {horizon}")

    cfg, invariants = result.cfg, result.invariants

    # Static pre-check (the lint pass reports this as REP006): a
    # sampling variable with unbounded support can move the process
    # arbitrarily far in one step, so no almost-sure step-difference
    # bound exists for *any* certificate — fail before spending the
    # difference-bound LP and the degree-1 refit LPs on a lost cause.
    used = set()
    for label in cfg:
        if isinstance(label, AssignLabel):
            used |= label.expr.variables()
    unbounded = sorted(
        name for name, dist in cfg.rvars.items() if name in used and not dist.is_bounded()
    )
    if unbounded:
        raise UnboundedError(
            f"sampling variable(s) {unbounded} have unbounded support; "
            "no almost-sure step-difference bound exists (REP006)"
        )

    refit = False
    degree = result.upper.degree
    expected = result.upper.value
    try:
        c = difference_bound(cfg, invariants, result.upper.h, max_multiplicands=max_multiplicands)
    except (InfeasibleError, UnboundedError) as primary_exc:
        # The reported certificate has no constant difference bound.
        # Any other valid PUCS still yields a sound concentration
        # statement around *its own* anchor value; a degree-1 refit is
        # the certificate most likely to have bounded differences.
        if result.upper.degree <= 1:
            raise
        reused = uppers is not None and 1 in uppers
        if reused and uppers[1] is None:
            raise  # the degree-1 synthesis already failed for this request
        try:
            if reused:
                refit_result = uppers[1]
            else:
                refit_result = synthesize(
                    cfg,
                    invariants,
                    result.upper.anchor,
                    kind="upper",
                    degree=1,
                    nonnegative=result.mode.require_nonnegative_template,
                    max_multiplicands=max_multiplicands,
                )
            c = difference_bound(
                cfg, invariants, refit_result.h, max_multiplicands=max_multiplicands
            )
        except (InfeasibleError, UnboundedError, SynthesisError):
            raise primary_exc
        refit = True
        degree = 1
        expected = refit_result.value

    bound = TailBound(c=c, horizon=horizon, expected=expected, degree=degree, refit=refit)
    offsets = list(probes) if probes is not None else _default_probes(c, horizon)
    for t in offsets:
        t = float(t)
        if t <= 0.0:
            raise ValueError(f"tail probes must be positive, got {t}")
        bound.probes.append(TailProbe(t=t, bound=bound.bound_at(t)))
    return bound
