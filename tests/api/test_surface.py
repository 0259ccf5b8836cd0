"""Public-API surface snapshot.

`repro.api` is the versioned front door: accidentally dropping or
renaming anything here is a breaking change for every consumer, so the
exact surface is pinned as a golden list.  If a test below fails and
the change is *intentional*, update the snapshot in the same commit
and call it out as an API change.
"""

import repro
import repro.api as api

#: Golden `repro.api.__all__` — keep sorted.
API_ALL = [
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

#: Golden `AnalysisOptions` field list, in declaration order (order is
#: part of the JSON/`to_dict` contract).
OPTIONS_FIELDS = [
    "degree",
    "max_degree",
    "mode",
    "compute_lower",
    "max_multiplicands",
    "invariants",
    "auto_invariants",
    "invariant_domain",
    "init",
    "nondet_prob",
    "simulate_runs",
    "simulate_seed",
    "simulate_max_steps",
    "simulate_engine",
    "simulate_nondet",
    "timeout_s",
    "tag",
    "tails",
    "tail_horizon",
    "tail_probes",
    "check",
    "retry",
]

#: Golden `AnalysisReport` field list, in declaration order (order is
#: part of the JSON/`to_dict` contract).
REPORT_FIELDS = [
    "name",
    "status",
    "init",
    "mode",
    "degree",
    "degrees_tried",
    "upper_value",
    "upper_bound",
    "upper_runtime",
    "lower_value",
    "lower_bound",
    "lower_runtime",
    "policy_enumerated",
    "sim_mean",
    "sim_std",
    "sim_truncated",
    "sim_termination_rate",
    "warnings",
    "error",
    "runtime",
    "analysis_runtime",
    "tag",
    "lower_skipped",
    "solver",
    "tail",
    "attempts",
    "diagnostics",
    "invariant_domain",
]


def test_api_all_snapshot():
    assert list(api.__all__) == API_ALL


def test_api_all_is_sorted_and_resolvable():
    assert list(api.__all__) == sorted(api.__all__)
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_options_field_snapshot():
    assert list(api.AnalysisOptions.__dataclass_fields__) == OPTIONS_FIELDS


def test_report_field_snapshot():
    assert list(api.AnalysisReport.__dataclass_fields__) == REPORT_FIELDS


def test_report_schema_versions():
    assert api.REPORT_SCHEMA == "repro-report/v6"
    assert api.version_info()["schemas"]["report_compat"] == [
        "repro-report/v1",
        "repro-report/v2",
        "repro-report/v3",
        "repro-report/v4",
        "repro-report/v5",
    ]


def test_top_level_reexports():
    assert repro.Analyzer is api.Analyzer
    assert repro.AnalysisOptions is api.AnalysisOptions
    assert repro.AnalysisReport is api.AnalysisReport
    assert repro.AnalysisRequest is api.AnalysisRequest


def test_version_info_shape():
    info = api.version_info()
    assert info["repro"] == repro.__version__
    assert info["schemas"]["report"] == api.REPORT_SCHEMA
    assert "solver_backends" not in info
