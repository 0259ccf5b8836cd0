"""Entry points of the lint pass: a front door for requests and a kernel.

:func:`check_request` lints what a request resolves to — the CFG and
annotations the pipeline would analyze; :func:`check_cfg` is the kernel
the front door and the degree ladder share.

The heavy imports (:mod:`repro.programs`) are deferred into the
functions that need them: ``repro.check`` sits *below* the analysis
stack in the import graph (``repro.invariants.generator`` imports
:mod:`repro.check.interp`), so importing them at module level would
create a cycle through partially initialised packages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from ..invariants.annotations import InvariantMap
from ..semantics.cfg import CFG
from .diagnostics import CheckResult
from .interp import analyze_cfg
from .octagon import analyze_cfg_octagon
from .rules import run_rules

if TYPE_CHECKING:
    from ..api.options import AnalysisOptions

__all__ = ["check_cfg", "check_request"]


def check_cfg(
    cfg: CFG,
    init: Mapping[str, float],
    invariants: Optional[InvariantMap],
    settings: "AnalysisOptions",
) -> CheckResult:
    """Lint a CFG at ``init`` against the user's ``invariants``: run the
    interval fixpoint (and the octagon one when
    ``settings.invariant_domain`` is ``"octagon"``, which adds the
    REP013/REP014 relational annotation checks), then every rule."""
    init = dict(init)
    pvar_init = {k: v for k, v in init.items() if k in cfg.pvars}
    analysis = analyze_cfg(cfg, pvar_init)
    octagon = (
        analyze_cfg_octagon(cfg, pvar_init) if settings.invariant_domain == "octagon" else None
    )
    diagnostics = run_rules(cfg, analysis, init, invariants, octagon=octagon)
    return CheckResult(diagnostics, fixpoint=octagon if octagon is not None else analysis)


def check_request(options, program=None) -> CheckResult:
    """Lint one batch :class:`~repro.batch.spec.AnalysisRequest`, or
    :class:`~repro.api.AnalysisOptions` applied to a Benchmark or parsed
    Program ``program``.

    Resolves by :func:`repro.programs.resolve`, exactly like the batch
    engine (``invariants`` override and ``nondet_prob`` variants
    included), so a clean lint here means the engine will analyse the
    same CFG under the same invariants the lint saw.  A source that
    does not parse raises :class:`~repro.errors.ParseError`: a
    malformed program is not a lint finding.
    """
    from ..programs import resolve

    bench, init, settings = resolve(options, program)
    return check_cfg(bench.cfg, init, bench.invariant_map(init), settings)
