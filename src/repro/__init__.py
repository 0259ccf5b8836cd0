"""repro — expected-cost analysis of nondeterministic probabilistic programs.

A from-scratch Python reproduction of

    Peixin Wang, Hongfei Fu, Amir Kafshdar Goharshady, Krishnendu
    Chatterjee, Xudong Qin, Wenjun Shi.
    "Cost Analysis of Nondeterministic Probabilistic Programs."
    PLDI 2019.

The library synthesizes polynomial upper bounds (PUCS) and lower bounds
(PLCS) on the maximal expected accumulated ``tick`` cost of imperative
programs with probabilistic sampling and demonic nondeterminism, via
Handelman certificates reduced to linear programming.

Quickstart::

    import repro

    result = repro.analyze('''
        var x;
        while x >= 1 do
            x := x + (1, -1) : (0.25, 0.75);
            tick(1)
        od
    ''', init={"x": 100}, invariants={1: "x >= 0"})
    print(result.summary())

:func:`analyze` and :func:`analyze_runtime` take ``(program, options=None,
**overrides)`` like :class:`Analyzer`'s methods: ``program`` is a
registry benchmark name (``repro.analyze("rdwalk")``), source text or a
parsed :class:`Program` (``analyze`` also takes a benchmark object),
``options`` an :class:`AnalysisOptions` record and each override one of
its fields by name.  The static lint pass has one front door,
:func:`repro.check.check_request`.
"""

from .analysis import (
    CostAnalysisResult,
    MartingaleReport,
    TailBound,
    analyze,
    analyze_runtime,
    check_cost_martingale,
    derive_tail_bound,
    instrument_runtime,
)
from .baseline import baseline_applicable, baseline_upper_bound
from .cache import ResultCache
from .core import (
    BoundResult,
    classify,
    pre_expectation_cases,
    pre_expectation_value,
    synthesize,
    synthesize_plcs,
    synthesize_pucs,
)
from .errors import (
    CFGError,
    DegreeError,
    InfeasibleError,
    InvariantError,
    NonLinearError,
    ParseError,
    ReproError,
    SemanticsError,
    SynthesisError,
    UnboundedError,
    UnsupportedProgramError,
)
from .invariants import (
    InvariantMap,
    Polyhedron,
    generate_interval_invariants,
    generate_invariants,
    generate_octagon_invariants,
)
from .polynomials import LinForm, Monomial, Polynomial, expectation
from .semantics import (
    CFG,
    BernoulliDistribution,
    BinomialDistribution,
    DiscreteDistribution,
    Distribution,
    PointDistribution,
    UniformDistribution,
    UniformIntDistribution,
    build_cfg,
    run,
    simulate,
)
from .syntax import Program, parse_condition, parse_expression, parse_program, replace_nondet
from .termination import RankingCertificate, certify_concentration, synthesize_rsm

__version__ = "1.6.0"

# The typed front door; imported last — it composes the layers above.
from .api import AnalysisOptions, AnalysisReport, AnalysisRequest, Analyzer  # noqa: E402

__all__ = [
    "AnalysisOptions",
    "AnalysisReport",
    "AnalysisRequest",
    "Analyzer",
    "BernoulliDistribution",
    "BinomialDistribution",
    "BoundResult",
    "CFG",
    "CFGError",
    "CostAnalysisResult",
    "DegreeError",
    "DiscreteDistribution",
    "Distribution",
    "InfeasibleError",
    "InvariantError",
    "InvariantMap",
    "LinForm",
    "MartingaleReport",
    "Monomial",
    "NonLinearError",
    "ParseError",
    "PointDistribution",
    "Polyhedron",
    "Polynomial",
    "Program",
    "RankingCertificate",
    "ReproError",
    "ResultCache",
    "SemanticsError",
    "SynthesisError",
    "TailBound",
    "UnboundedError",
    "UniformDistribution",
    "UniformIntDistribution",
    "UnsupportedProgramError",
    "analyze",
    "analyze_runtime",
    "baseline_applicable",
    "baseline_upper_bound",
    "build_cfg",
    "certify_concentration",
    "check_cost_martingale",
    "derive_tail_bound",
    "instrument_runtime",
    "classify",
    "expectation",
    "generate_interval_invariants",
    "generate_invariants",
    "generate_octagon_invariants",
    "parse_condition",
    "parse_expression",
    "parse_program",
    "pre_expectation_cases",
    "pre_expectation_value",
    "replace_nondet",
    "run",
    "simulate",
    "synthesize",
    "synthesize_plcs",
    "synthesize_pucs",
    "synthesize_rsm",
]
