"""The paper's primary contribution: PUCS/PLCS synthesis via Handelman + LP."""

from .conditions import (
    AnalysisMode,
    ConditionReport,
    check_bounded_costs,
    check_bounded_updates,
    check_nonnegative_costs,
    classify,
)
from .handelman import certificate_equalities, monoid_products
from .lp import LinearProgram, LPSolution
from .preexpectation import (
    PreCase,
    StepCase,
    pre_expectation_cases,
    pre_expectation_table,
    pre_expectation_value,
    step_difference_cases,
)
from .synthesis import (
    BoundResult,
    SynthesisOptions,
    difference_bound,
    synthesize,
    synthesize_plcs,
    synthesize_pucs,
)
from .templates import Template, make_template

__all__ = [
    "AnalysisMode",
    "BoundResult",
    "ConditionReport",
    "LPSolution",
    "LinearProgram",
    "PreCase",
    "StepCase",
    "SynthesisOptions",
    "Template",
    "certificate_equalities",
    "check_bounded_costs",
    "check_bounded_updates",
    "check_nonnegative_costs",
    "classify",
    "difference_bound",
    "make_template",
    "monoid_products",
    "pre_expectation_cases",
    "pre_expectation_table",
    "pre_expectation_value",
    "step_difference_cases",
    "synthesize",
    "synthesize_plcs",
    "synthesize_pucs",
]
