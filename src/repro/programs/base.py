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

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..analysis.bounds import CostAnalysisResult, analyze_ladder
from ..invariants import InvariantMap
from ..semantics.cfg import CFG, build_cfg
from ..syntax import pretty, replace_nondet
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
    #: "auto" | "signed" | "nonnegative" — the ``mode`` an unset
    #: ``AnalysisOptions.mode`` resolves to.
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
        """The init-independent annotations, parsed once per benchmark
        (none need no CFG: an inline program's is built by the ladder)."""
        if not self.invariants:
            return InvariantMap()
        return InvariantMap.from_strings(self.cfg, self.invariants)

    def anchored_invariants(self, init: Mapping[str, float]) -> Dict[int, str]:
        """The annotation strings at valuation ``init``: each label's
        init-independent condition conjoined (``"(a) and (b)"``) with its
        init-dependent one, for requests and cache keys that must carry
        the annotations as plain text."""
        invariants = dict(self.invariants)
        if self.init_invariants is not None:
            for label, cond in self.init_invariants(dict(init)).items():
                if label in invariants:
                    invariants[label] = f"({invariants[label]}) and ({cond})"
                else:
                    invariants[label] = cond
        return invariants

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

    def analyze(self, options=None, *, check_concentration: bool = False) -> CostAnalysisResult:
        """Run the pipeline on this benchmark under a
        :class:`repro.api.AnalysisOptions` (``None``: the defaults):
        :func:`~repro.programs.resolve` (unset degree, mode and init fall
        back to the benchmark's own; ``nondet_prob`` applies the coin
        flip), then the degree ladder
        :func:`~repro.analysis.bounds.analyze_ladder`.  Simulation and
        timeout settings are engine-level concerns — use
        :meth:`repro.api.Analyzer.analyze` for those.
        """
        from ..api.options import AnalysisOptions
        from .registry import resolve

        bench, init, settings = resolve(options if options is not None else AnalysisOptions(), self)
        return analyze_ladder(bench, init, settings, check_concentration=check_concentration)

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
    if not bench.has_nondeterminism:
        return bench
    transformed = replace_nondet(bench.program, prob=prob)
    return replace(
        bench,
        name=f"{bench.name}_prob",
        title=f"{bench.title} (nondet -> prob({prob:g}))",
        source=pretty(transformed),
    )
