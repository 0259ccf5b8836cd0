"""Static analysis front gate: interval abstract interpretation + lint.

``repro.check`` catches malformed programs, dead code and unsound
invariants *before* any Handelman/LP work: the synthesis pipeline is
only as sound as the invariants fed into it, and a bad input otherwise
surfaces as a deep ``SynthesisError`` or an infeasible LP minutes later.

Layout:

* :mod:`~repro.check.interp` — the one fixpoint driver over the
  probabilistic CFG and the interval domain (also the engine behind
  :func:`repro.invariants.generate_interval_invariants`);
* :mod:`~repro.check.octagon` — the relational octagon domain for the
  same driver (``+-x +-y <= c`` as a closed difference-bound matrix;
  the engine behind :func:`repro.invariants.generate_octagon_invariants`);
* :mod:`~repro.check.diagnostics` — ``Diagnostic`` records with stable
  ``REP0xx`` codes (catalogued in ``docs/checks.md``);
* :mod:`~repro.check.rules` — the lint rules;
* :mod:`~repro.check.runner` — :func:`check_request`, the front door
  (a request, or options applied to a Benchmark or Program), and
  :func:`check_cfg`, the kernel it shares with the degree ladder.

Import-order note: ``repro.invariants.generator`` imports
:mod:`.interp`, so this package must keep :mod:`.interp` importable
before :mod:`.rules` (which uses ``repro.invariants`` submodules) and
must not import the analysis stack at module level (see ``runner``).
"""

from .diagnostics import CODES, SEVERITIES, CheckResult, Diagnostic, sort_diagnostics
from .interp import AbstractAnalysis, Interval, analyze_cfg
from .octagon import Octagon, OctagonAnalysis, analyze_cfg_octagon
from .rules import run_rules
from .runner import check_cfg, check_request

__all__ = [
    "AbstractAnalysis",
    "CODES",
    "CheckResult",
    "Diagnostic",
    "Interval",
    "Octagon",
    "OctagonAnalysis",
    "SEVERITIES",
    "analyze_cfg",
    "analyze_cfg_octagon",
    "check_cfg",
    "check_request",
    "run_rules",
    "sort_diagnostics",
]
