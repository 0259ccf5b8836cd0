"""Benchmark definitions: program source + invariants + experiment metadata.

Every benchmark bundles what the paper's tool takes as input — source
text, per-label linear invariants (Definition 6.1; supplied as input
per Section 4.5), the anchor initial valuation — plus the metadata the
experiment harness needs: the paper's reported bounds (for
paper-vs-measured tables), the valuations of Table 4, and whether plain
simulation applies (programs with nondeterminism cannot be simulated
without fixing a policy, cf. Table 4's missing rows).
"""

from __future__ import annotations

import warnings as _warnings
from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..analysis.bounds import CostAnalysisResult, analyze, analyze_for
from ..invariants import InvariantMap
from ..semantics.cfg import CFG, build_cfg
from ..syntax.ast import Program
from ..syntax.parser import parse_program

__all__ = ["Benchmark", "probabilistic_variant"]


@dataclass
class Benchmark:
    """One benchmark program with everything needed to reproduce its row."""

    name: str
    title: str
    source: str
    invariants: Dict[int, str]
    init: Dict[str, float]
    degree: int = 2
    #: "auto" | "signed" | "nonnegative" — matches ``analyze(mode=...)``.
    mode: str = "auto"
    category: str = "table3"  # "table2" or "table3"
    #: Extra initial valuations for the Table 4 sweep.
    extra_inits: List[Dict[str, float]] = field(default_factory=list)
    #: The paper's reported symbolic bounds (strings, for reports only).
    paper_upper: Optional[str] = None
    paper_lower: Optional[str] = None
    #: Reconstruction notes for EXPERIMENTS.md.
    notes: str = ""
    #: Variable swept in the figures (Appendix F) and its sweep range.
    sweep_var: Optional[str] = None
    sweep_range: Optional[Tuple[float, float]] = None
    max_sim_steps: int = 1_000_000
    #: Invariants that depend on the initial valuation (Definition 6.1
    #: invariants are relative to an initial valuation; e.g. the
    #: inductive relation ``n + d >= n0 + d0`` of Goods Discount).
    init_invariants: Optional[Callable[[Dict[str, float]], Dict[int, str]]] = None

    # -- derived artifacts --------------------------------------------------

    @cached_property
    def program(self) -> Program:
        return parse_program(self.source, name=self.name)

    @cached_property
    def cfg(self) -> CFG:
        return build_cfg(self.program)

    @cached_property
    def _parsed_invariants(self) -> InvariantMap:
        """The init-independent annotations, parsed once per benchmark."""
        return InvariantMap.from_strings(self.cfg, self.invariants)

    def invariant_map(self, init: Optional[Mapping[str, float]] = None) -> InvariantMap:
        inv = self._parsed_invariants
        if self.init_invariants is not None:
            anchored = self.init_invariants(dict(init if init is not None else self.init))
            return inv.merge(InvariantMap.from_strings(self.cfg, anchored))
        return inv.copy()

    @property
    def has_nondeterminism(self) -> bool:
        return self.program.has_nondeterminism()

    @property
    def simulation_supported(self) -> bool:
        """Monte-Carlo simulation needs a fully probabilistic program."""
        return not self.has_nondeterminism

    def all_inits(self) -> List[Dict[str, float]]:
        """Anchor valuation plus the Table 4 extras (deduplicated)."""
        seen = []
        for valuation in [self.init, *self.extra_inits]:
            if valuation not in seen:
                seen.append(valuation)
        return seen

    # -- analysis ---------------------------------------------------------------

    def analyze_with(
        self, options, *, check_concentration: bool = False
    ) -> CostAnalysisResult:
        """Run the pipeline under a :class:`repro.api.AnalysisOptions`.

        Honors the synthesis-relevant subset of the options: the degree
        plan (``"auto"`` escalates d = 1..``max_degree`` until every
        requested bound is feasible, through the same
        :func:`~repro.analysis.bounds.analyze_for` ladder as the batch
        engine), mode, multiplicand cap, invariant policy, lint, tails,
        init valuation, solver backend and the ``nondet_prob`` coin-flip
        transformation.  Unset degree and mode fall back to the
        benchmark's own.  Simulation and timeout settings are
        engine-level concerns — use :meth:`repro.api.Analyzer.analyze`
        for those.
        """
        from ..core.solvers import use_solver

        bench = self
        if options.nondet_prob is not None and self.has_nondeterminism:
            bench = probabilistic_variant(self, prob=options.nondet_prob)
        anchor = dict(options.init) if options.init is not None else dict(bench.init)
        with use_solver(options.solver):
            return analyze_for(
                bench.program,
                anchor,
                bench.invariant_map(anchor),
                options,
                degree=bench.degree,
                mode=bench.mode,
                check_concentration=check_concentration,
            )

    def analyze(
        self,
        options=None,
        *,
        init: Optional[Mapping[str, float]] = None,
        degree: Optional[Union[int, str]] = None,
        compute_lower: Optional[bool] = None,
        check_concentration: Optional[bool] = None,
        mode: Optional[str] = None,
        max_multiplicands: Optional[int] = None,
    ) -> CostAnalysisResult:
        """Run the full pipeline on this benchmark.

        The canonical form is ``analyze(options)`` with a
        :class:`repro.api.AnalysisOptions` (``check_concentration``
        rides along as a staged-only keyword).  The pre-``repro.api``
        keyword sprawl (``init=``, ``degree=``, ...) still works for
        one release but emits a :class:`DeprecationWarning`; a bare
        ``analyze()`` uses the benchmark's own settings and stays
        silent.
        """
        legacy = {
            key: value
            for key, value in {
                "init": init,
                "degree": degree,
                "compute_lower": compute_lower,
                "mode": mode,
                "max_multiplicands": max_multiplicands,
            }.items()
            if value is not None
        }
        if options is not None and isinstance(options, _MappingABC):
            # Pre-redesign positional call: analyze({"x": 100}).
            legacy.setdefault("init", dict(options))
            options = None
        if options is not None:
            if legacy:
                raise TypeError(
                    "pass either an AnalysisOptions or the legacy keyword "
                    f"arguments, not both: {sorted(legacy)}"
                )
            return self.analyze_with(options, check_concentration=bool(check_concentration))
        if legacy:
            _warnings.warn(
                "Benchmark.analyze(init=..., degree=..., ...) keyword arguments "
                "are deprecated; pass repro.api.AnalysisOptions via "
                "analyze(options) or go through repro.api.Analyzer",
                DeprecationWarning,
                stacklevel=2,
            )
        if degree == "auto":
            raise ValueError(
                "degree='auto' escalation needs a degree ceiling; use "
                "analyze(AnalysisOptions(degree='auto', max_degree=...))"
            )
        anchor = dict(init if init is not None else self.init)
        return analyze(
            self.program,
            init=anchor,
            invariants=self.invariant_map(anchor),
            degree=degree if degree is not None else self.degree,  # type: ignore[arg-type]
            mode=mode if mode is not None else self.mode,
            compute_lower=True if compute_lower is None else compute_lower,
            check_concentration=bool(check_concentration),
            max_multiplicands=max_multiplicands,
        )

    def __repr__(self) -> str:
        return f"Benchmark({self.name!r}, category={self.category!r}, degree={self.degree})"


def probabilistic_variant(bench: Benchmark, prob: float = 0.5) -> Benchmark:
    """The benchmark with ``if *`` replaced by ``if prob(prob)``.

    Returns ``bench`` itself when it has no nondeterminism.  The CFG of
    the variant has identical label numbering (a nondeterministic label
    becomes a probabilistic one in place), so the invariants transfer.
    This is the Table 5 transformation; it lives here so the batch
    engine can build variants without importing the experiment drivers.
    """
    from dataclasses import replace as dataclass_replace

    from ..syntax import pretty, replace_nondet

    if not bench.has_nondeterminism:
        return bench
    transformed = replace_nondet(bench.program, prob=prob)
    return dataclass_replace(
        bench,
        name=f"{bench.name}_prob",
        title=f"{bench.title} (nondet -> prob({prob:g}))",
        source=pretty(transformed),
    )
