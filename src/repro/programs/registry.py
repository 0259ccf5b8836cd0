"""Benchmark registry: lookup by name, iteration by category, and the
one rule that resolves a request to the benchmark it analyzes."""

from __future__ import annotations

import copy
import difflib
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

from ..syntax import pretty, replace_nondet
from ..syntax.ast import Program
from .base import Benchmark, probabilistic_variant
from .table2 import TABLE2_BENCHMARKS
from .table3 import TABLE3_BENCHMARKS
from .table6 import TABLE6_BENCHMARKS

if TYPE_CHECKING:
    from ..api.options import AnalysisOptions

__all__ = [
    "all_benchmarks",
    "benchmark_names",
    "benchmarks_by_category",
    "get_benchmark",
    "resolve",
]

_REGISTRY: Dict[str, Benchmark] = {}
for _bench in [*TABLE2_BENCHMARKS, *TABLE3_BENCHMARKS, *TABLE6_BENCHMARKS]:
    if _bench.name in _REGISTRY:
        raise ValueError(f"duplicate benchmark name {_bench.name!r}")
    _REGISTRY[_bench.name] = _bench


def get_benchmark(name: str) -> Benchmark:
    """Look up a benchmark by name; raises ``KeyError`` with suggestions.

    A near-miss (typo'd CLI argument or spec entry) names its closest
    registry matches instead of dumping the whole listing, so the
    one-line exit-2 error stays actionable.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        close = difflib.get_close_matches(name, _REGISTRY, n=3, cutoff=0.6)
        if close:
            hint = f"did you mean {', '.join(close)}?"
        else:
            hint = f"known: {', '.join(sorted(_REGISTRY))}"
        raise KeyError(f"unknown benchmark {name!r}; {hint}") from None


def all_benchmarks() -> List[Benchmark]:
    return list(_REGISTRY.values())


def benchmark_names() -> List[str]:
    """Registry names in registration (table) order."""
    return list(_REGISTRY)


def benchmarks_by_category(category: str) -> List[Benchmark]:
    return [b for b in _REGISTRY.values() if b.category == category]


#: (benchmark name, prob) -> variant Benchmark.  ``probabilistic_variant``
#: re-parses the program; per-process memoisation keeps repeated inits of
#: the same Table 5 variant on the cached CFG, like the registry benches.
#: Bounded: ``prob`` comes from request bodies, and each entry keeps a
#: parsed program, its CFG and the CFG's template memos alive.
_VARIANT_CACHE: Dict[Tuple[str, float], Benchmark] = {}
_VARIANT_CACHE_MAX = 256


def resolve(
    options: "AnalysisOptions", program: Union[Benchmark, Program, None] = None
) -> Tuple[Benchmark, Dict[str, float], "AnalysisOptions"]:
    """The one rule that turns a request into what the pipeline analyzes.

    ``program`` is a :class:`Benchmark` or a parsed
    :class:`~repro.syntax.ast.Program`; ``None`` takes the program an
    :class:`~repro.batch.spec.AnalysisRequest` names — its registry
    ``benchmark`` or its inline ``source``.  The rules:

    * a registry name resolves to the registry object, with its cached
      program, CFG and parsed annotations;
    * ``options.invariants`` replaces the annotations of a name, source
      text or Program (``{}`` drops them, init-dependent ones too); a
      Benchmark object brings its own and ignores it;
    * ``options.nondet_prob`` replaces every ``if *`` by a coin flip (a
      Program is transformed as parsed, with no pretty-print round trip);
    * an unset ``init`` is the benchmark's anchor (``{}`` for inline
      programs), and an unset ``degree`` or ``mode`` is the benchmark's
      own (2 and ``"auto"`` for inline programs).

    Returns ``(benchmark, init, settings)``, ``settings`` being
    ``options`` with ``degree`` and ``mode`` filled in.  Resolving the
    result again under ``settings`` changes nothing.  Raises
    ``KeyError`` for an unknown name.
    """
    prob = options.nondet_prob
    memo_key = None
    if isinstance(program, Benchmark):
        bench = program
    elif isinstance(program, Program) or options.source is not None:
        if program is None:
            name, source = options.display_name, options.source
        else:
            if prob is not None and program.has_nondeterminism():
                program = replace_nondet(program, prob=prob)
            name, source = program.name or "<source>", pretty(program)
        bench = Benchmark(
            name=name, title=name, source=source, invariants=dict(options.invariants or {}), init={}
        )
        if program is not None:
            # Analyzed as parsed: exact float literals survive.
            vars(bench)["program"] = program
    else:
        bench = get_benchmark(options.benchmark)
        if options.invariants is None:
            memo_key = (bench.name, prob)
        else:
            bench = replace(bench, invariants=dict(options.invariants), init_invariants=None)
    if prob is not None and bench.has_nondeterminism:
        bench = _VARIANT_CACHE.get(memo_key) or probabilistic_variant(bench, prob=prob)
        if memo_key is not None:
            if len(_VARIANT_CACHE) >= _VARIANT_CACHE_MAX:
                _VARIANT_CACHE.clear()
            _VARIANT_CACHE[memo_key] = bench
    init = dict(options.init) if options.init is not None else dict(bench.init)
    # Both filled-in values come from the benchmark; setting them on a
    # copy skips the full re-validation ``dataclasses.replace`` would
    # run on every cache lookup.
    settings = copy.copy(options)
    if options.degree is None:
        object.__setattr__(settings, "degree", bench.degree)
    if options.mode is None:
        object.__setattr__(settings, "mode", bench.mode)
    return bench, init, settings
