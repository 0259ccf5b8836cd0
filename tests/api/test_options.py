"""`repro.api.AnalysisOptions` unit tests: validation, JSON round-trip,
merge layering, degree plans and the request bridge."""

import json

import pytest

from repro.api import AnalysisOptions, AnalysisRequest


class TestValidation:
    def test_defaults_are_valid(self):
        options = AnalysisOptions()
        assert options.degree is None
        assert options.max_degree == 4
        assert options.compute_lower is True
        assert options.auto_invariants is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"degree": 0},
            {"degree": -2},
            {"degree": "automatic"},
            {"degree": True},
            {"max_degree": 0},
            {"mode": "strict"},
            {"max_multiplicands": 0},
            {"invariant_domain": "polyhedra"},
            {"nondet_prob": 1.5},
            {"nondet_prob": -0.1},
            {"simulate_runs": 0},
            {"simulate_max_steps": 0},
            {"timeout_s": 0},
            {"invariants": {"one": "x >= 0"}},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AnalysisOptions(**kwargs)

    def test_coerces_mapping_fields(self):
        options = AnalysisOptions(invariants={"1": "x >= 0"}, init={"x": 10})
        assert options.invariants == {1: "x >= 0"}
        assert options.init == {"x": 10.0}
        assert isinstance(options.init["x"], float)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            AnalysisOptions().degree = 3


class TestJSONRoundTrip:
    def test_full_round_trip(self):
        options = AnalysisOptions(
            degree="auto",
            max_degree=3,
            mode="signed",
            compute_lower=False,
            max_multiplicands=2,
            invariants={1: "x >= 0"},
            auto_invariants=False,
            init={"x": 7},
            nondet_prob=0.25,
            simulate_runs=50,
            simulate_seed=3,
            simulate_max_steps=1000,
            simulate_nondet=True,
            timeout_s=9.5,
            tag="t",
        )
        assert AnalysisOptions.from_json(options.to_json()) == options
        # to_dict is JSON-plain
        json.dumps(options.to_dict())

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown option"):
            AnalysisOptions.from_dict({"degre": 2})
        with pytest.raises(ValueError, match="unknown option field.*'solver'"):
            AnalysisOptions.from_dict({"solver": "highs"})

    def test_json_string_keys_coerce_back(self):
        text = json.dumps(AnalysisOptions(invariants={2: "x >= 1"}).to_dict())
        assert AnalysisOptions.from_json(text).invariants == {2: "x >= 1"}


class TestMerge:
    def test_layering_later_wins(self):
        base = AnalysisOptions(degree=2, mode="auto")
        merged = base.merge({"degree": 3}, {"mode": "signed"}, timeout_s=5)
        assert (merged.degree, merged.mode, merged.timeout_s) == (3, "signed", 5)
        # the base is untouched
        assert base.degree == 2 and base.timeout_s is None

    def test_spec_style_defaults_plus_task(self):
        defaults = {"degree": "auto", "timeout_s": 120}
        task = {"degree": 2}
        merged = AnalysisOptions().merge(defaults, task)
        assert merged.degree == 2 and merged.timeout_s == 120

    def test_merge_validates(self):
        with pytest.raises(ValueError):
            AnalysisOptions().merge(degree=0)
        with pytest.raises(ValueError, match="unknown option"):
            AnalysisOptions().merge({"nope": 1})

    def test_merge_rejects_options_layer(self):
        with pytest.raises(TypeError, match="mappings"):
            AnalysisOptions().merge(AnalysisOptions(degree=2))


class TestDegreePlan:
    def test_fixed(self):
        assert AnalysisOptions(degree=3).degree_plan() == [3]

    def test_auto(self):
        assert AnalysisOptions(degree="auto", max_degree=3).degree_plan() == [1, 2, 3]

    def test_default_fallback(self):
        assert AnalysisOptions().degree_plan() == [None]
        assert AnalysisOptions().degree_plan(default=2) == [2]


class TestRequestBridge:
    def test_to_request_round_trips_via_from_request(self):
        options = AnalysisOptions(
            degree="auto", init={"x": 5}, simulate_runs=10, tag="z"
        )
        request = options.to_request(benchmark="rdwalk")
        assert request.benchmark == "rdwalk"
        assert AnalysisOptions.from_request(request) == options

    def test_to_request_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            AnalysisOptions().to_request()
        with pytest.raises(ValueError):
            AnalysisOptions().to_request(benchmark="rdwalk", source="var x; skip")

    def test_every_request_option_field_is_covered(self):
        """Every non-identity AnalysisRequest field must have an
        AnalysisOptions counterpart — a new engine knob cannot silently
        bypass the public options object."""
        identity = {"benchmark", "source", "name"}
        request_fields = set(AnalysisRequest.__dataclass_fields__) - identity
        option_fields = set(AnalysisOptions.__dataclass_fields__)
        assert request_fields == option_fields
