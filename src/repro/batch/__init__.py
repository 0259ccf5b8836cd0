"""Batch-analysis engine: many (program, init, degree, mode) tasks at once.

The experiment drivers (Tables 2-6), the perf harness and the
``python -m repro batch`` / ``bench`` CLI all sit on top of
:func:`run_batch`; the drivers, ``repro bench --all`` and spec
``{"suite": ...}`` tasks build their requests by one suite rule,
:func:`suite_requests`.  See :mod:`repro.batch.spec` for the JSON task
model and :mod:`repro.batch.engine` for the pool/timeout mechanics.
"""

from .engine import execute_request, run_batch
from .spec import AnalysisReport, AnalysisRequest, load_spec, requests_from_spec, suite_requests

__all__ = [
    "AnalysisReport",
    "AnalysisRequest",
    "execute_request",
    "load_spec",
    "requests_from_spec",
    "run_batch",
    "suite_requests",
]
