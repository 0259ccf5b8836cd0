"""Entry points of the lint pass: programs, benchmarks and batch requests.

The heavy imports (:mod:`repro.programs`, :mod:`repro.api.options`) are
deferred into the functions that need them: ``repro.check`` sits *below*
the analysis stack in the import graph (``repro.invariants.generator``
imports :mod:`repro.check.interp`), so importing them at module level
would create a cycle through partially initialised packages.

Every entry point takes ``invariant_domain``: the default
``"interval"`` pass is byte-identical to previous releases, while
``"octagon"`` additionally runs the relational fixpoint and the
REP013/REP014 annotation checks against it.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from ..invariants.annotations import InvariantMap
from ..semantics.cfg import CFG, build_cfg
from ..syntax.ast import Program
from ..syntax.parser import parse_program
from .diagnostics import CheckResult
from .interp import analyze_cfg
from .octagon import analyze_cfg_octagon
from .rules import run_rules

__all__ = ["check_benchmark", "check_cfg", "check_program", "check_request"]


def _coerce_invariants(cfg: CFG, invariants) -> Optional[InvariantMap]:
    if invariants is None or isinstance(invariants, InvariantMap):
        return invariants
    if isinstance(invariants, Mapping):
        return InvariantMap.from_strings(cfg, invariants)
    raise TypeError(
        f"invariants must be an InvariantMap or a label->condition mapping, "
        f"got {type(invariants).__name__}"
    )


def check_cfg(
    cfg: CFG,
    init: Optional[Mapping[str, float]] = None,
    invariants: Optional[InvariantMap] = None,
    nondet_cap: Optional[int] = None,
    invariant_domain: str = "interval",
) -> CheckResult:
    """Lint a CFG: run the interval fixpoint (and the octagon one in
    that domain), then every rule."""
    from ..invariants.generator import INVARIANT_DOMAINS

    if invariant_domain not in INVARIANT_DOMAINS:
        raise ValueError(
            f"invariant_domain must be one of {INVARIANT_DOMAINS}, got {invariant_domain!r}"
        )
    init = dict(init or {})
    pvar_init = {k: v for k, v in init.items() if k in cfg.pvars}
    analysis = analyze_cfg(cfg, pvar_init)
    octagon = analyze_cfg_octagon(cfg, pvar_init) if invariant_domain == "octagon" else None
    diagnostics = run_rules(
        cfg, analysis, init, invariants, nondet_cap=nondet_cap, octagon=octagon
    )
    return CheckResult(diagnostics, fixpoint=octagon if octagon is not None else analysis)


def check_program(
    program: Union[str, Program],
    init: Optional[Mapping[str, float]] = None,
    invariants=None,
    cfg: Optional[CFG] = None,
    nondet_cap: Optional[int] = None,
    invariant_domain: str = "interval",
) -> CheckResult:
    """Lint a program (surface source or AST).

    ``invariants`` may be an :class:`InvariantMap` or a mapping from
    label id to a condition string / BoolExpr (``# @invariant`` form).
    Parse errors propagate as :class:`~repro.errors.ParseError` — a
    program that does not parse is *malformed*, not a lint finding.
    """
    if isinstance(program, str):
        program = parse_program(program)
    if cfg is None:
        cfg = build_cfg(program)
    return check_cfg(
        cfg,
        init,
        _coerce_invariants(cfg, invariants),
        nondet_cap=nondet_cap,
        invariant_domain=invariant_domain,
    )


def check_benchmark(
    bench,
    init: Optional[Mapping[str, float]] = None,
    invariant_domain: str = "interval",
) -> CheckResult:
    """Lint a benchmark with its declared invariants at ``init``
    (``None``: its anchor valuation)."""
    from ..api.options import AnalysisOptions

    return check_request(AnalysisOptions(init=init, invariant_domain=invariant_domain), bench)


def check_request(request, program=None) -> CheckResult:
    """Lint one batch :class:`~repro.batch.spec.AnalysisRequest`, or
    options applied to a Benchmark or parsed Program ``program``.

    Resolves by :func:`repro.programs.resolve`, exactly like the batch
    engine (``invariants`` override and ``nondet_prob`` variants
    included), so a clean lint here means the engine will analyse the
    same CFG under the same invariants the lint saw.
    """
    from ..programs import resolve

    bench, init, settings = resolve(request, program)
    return check_program(
        bench.program,
        init=init,
        invariants=bench.invariant_map(init),
        cfg=bench.cfg,
        invariant_domain=settings.invariant_domain,
    )
