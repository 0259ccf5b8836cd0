"""``repro.api`` — the one typed front door to the analysis pipeline.

Every front end of this reproduction (the CLI, the HTTP service, the
batch engine, the Table 2-5 experiment drivers, the perf harness) is a
thin adapter over the three names this package exports first:

:class:`AnalysisOptions`
    The one settings record: frozen, validated, JSON-round-trippable,
    saying *how* to analyze — degree plan (including ``"auto"``
    escalation), soundness mode, Handelman multiplicand cap, invariant
    policy, initial valuation, coin-flip transformation, simulation
    settings and timeout.
:class:`Analyzer`
    A session facade owning the result cache and the worker pool;
    ``analyze()`` returns the canonical :class:`AnalysisReport`,
    ``analyze_batch()`` fans out, and
    ``parse``/``build_cfg``/``derive_invariants``/``synthesize``
    expose the pipeline stage by stage.
:class:`AnalysisRequest` / :class:`AnalysisReport`
    The JSON work unit — an :class:`AnalysisOptions` record plus the
    program it applies to — and the canonical result record (schema
    ``repro-report/v6``; the lenient :func:`report_from_dict` also
    reads reports written under v1 … v5).

The static lint pass (:mod:`repro.check`) surfaces here through
``AnalysisOptions(check="warn"|"strict")`` — findings ride on
``AnalysisReport.diagnostics``, and strict-mode errors reject the task
(``status="rejected"``) before any LP work — and through
:meth:`Analyzer.lint`, which returns the raw :class:`CheckResult`.

Resilience knobs surface here too: :class:`RetryPolicy` (from
:mod:`repro.resilience`) rides on ``AnalysisOptions.retry`` and
governs crash-retry of pool workers that die mid-task.

Quick start::

    from repro.api import AnalysisOptions, Analyzer

    analyzer = Analyzer(AnalysisOptions(degree="auto"), cache=True)
    report = analyzer.analyze("rdwalk")
    print(report.upper_bound, report.upper_value)

Every LP is solved by HiGHS (:mod:`repro.core.lp`); there is no
solver option.  ``AnalysisReport.solver`` records ``"highs"``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from ..batch.spec import (
    REPORT_COMPAT_SCHEMAS,
    REPORT_SCHEMA,
    AnalysisReport,
    AnalysisRequest,
    load_spec,
    requests_from_spec,
)
from ..check import CheckResult, Diagnostic
from ..cache import ResultCache, request_fingerprint, request_key
from ..resilience import RetryPolicy
from .analyzer import Analyzer
from .options import AnalysisOptions

__all__ = [
    "AnalysisOptions",
    "AnalysisReport",
    "AnalysisRequest",
    "Analyzer",
    "CheckResult",
    "Diagnostic",
    "REPORT_SCHEMA",
    "ResultCache",
    "RetryPolicy",
    "load_spec",
    "report_from_dict",
    "request_fingerprint",
    "request_key",
    "requests_from_spec",
    "version_info",
]


def report_from_dict(data: Mapping[str, Any]) -> AnalysisReport:
    """Read a v6, v5, v4, v3, v2 *or* v1 report dict (the lenient
    reader shim)."""
    return AnalysisReport.from_dict(data)


def version_info() -> Dict[str, Any]:
    """Versions and schemas of everything a client can depend on."""
    from .. import __version__
    from ..cache import ENTRY_SCHEMA

    return {
        "repro": __version__,
        "schemas": {
            "report": REPORT_SCHEMA,
            "report_compat": list(REPORT_COMPAT_SCHEMAS),
            "cache_entry": ENTRY_SCHEMA,
        },
    }
