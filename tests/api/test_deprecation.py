"""`Benchmark.analyze` has one signature: options in, no warnings out."""

import warnings

from repro.api import AnalysisOptions
from repro.programs import get_benchmark


class TestBenchmarkAnalyzeShim:
    def test_bare_call_stays_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = get_benchmark("rdwalk").analyze()
        assert result.upper is not None

    def test_options_path_stays_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = get_benchmark("rdwalk").analyze(AnalysisOptions(degree=1))
        assert result.upper is not None
