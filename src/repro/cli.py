"""Command-line interface.

Usage::

    python -m repro analyze FILE [--init x=100,y=0] [--degree 2|auto]
                                 [--max-degree 4] [--invariant LABEL:COND ...]
                                 [--mode auto|signed|nonnegative]
                                 [--max-multiplicands K]
                                 [--concentration] [--no-lower]
                                 [--tails] [--tail-horizon N] [--tail-probes T1,T2]
    python -m repro simulate FILE --init x=100 [--runs 1000] [--seed 0]
                                  [--max-steps 1000000]
    python -m repro cfg FILE
    python -m repro invariants FILE [--init x=100] [--domain interval|octagon]
                                    [--json]
    python -m repro lint FILE|SPEC.json [--init x=100] [--invariant LABEL:COND ...]
                                        [--json] [--strict]
    python -m repro lint --benchmark NAME [--json] [--strict]
    python -m repro bench NAME [--init x=100] [--degree D|auto]
                               [--max-multiplicands K] [--cache-dir DIR]
    python -m repro bench --all [--jobs N]
    python -m repro batch SPEC.json [--jobs N] [--timeout S] [--output OUT.json]
                                    [--no-cache] [--cache-dir DIR]
    python -m repro serve [--host H] [--port P] [--jobs N]
                          [--no-cache] [--cache-dir DIR]
    python -m repro cache stats [--cache-dir DIR] [--json]
    python -m repro cache clear [--cache-dir DIR]
    python -m repro fuzz [--seed N] [--count K] [--config KEY=VALUE ...]
                         [--inject-defect NAME] [--corpus-dir DIR] [--json]
                         [--invariant-domain interval|octagon]
    python -m repro list

Program files use the surface syntax of the paper's Figure 1 grammar
(see README).  Invariants may also be embedded in the program file as
comment annotations::

    # @invariant 1: x >= 0
    # @invariant 4: x >= 0 and 1 - y >= 0

User-input errors (malformed ``--init``/``--invariant``/``--degree``
values, unreadable files, bad spec JSON) print a one-line ``error:``
message and exit with status 2; analysis failures exit with status 1.
``repro lint`` follows the same contract: 0 when clean, 1 when the
findings demand attention (any error, or any finding at all under
``--strict``), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Tuple, Union

from .api import AnalysisOptions, Analyzer
from .batch import AnalysisReport, load_spec
from .errors import ReproError
from .programs import all_benchmarks, get_benchmark
from .semantics import build_cfg, simulate
from .syntax import parse_program

__all__ = ["main", "parse_valuation", "extract_invariant_annotations"]

_ANNOTATION_RE = re.compile(r"^\s*#\s*@invariant\s+(\d+)\s*:\s*(.+?)\s*$", re.MULTILINE)


class CLIError(Exception):
    """A user-input problem: reported as one line on stderr, exit 2."""


def parse_valuation(text: Optional[str]) -> Dict[str, float]:
    """Parse ``x=100,y=0`` into a valuation dict."""
    if not text:
        return {}
    out: Dict[str, float] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"malformed assignment {chunk!r}; expected var=value")
        name, value = chunk.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ValueError(
                f"malformed assignment {chunk.strip()!r}; {value.strip()!r} is not a number"
            ) from None
    return out


def extract_invariant_annotations(source: str) -> Dict[int, str]:
    """Collect ``# @invariant LABEL: COND`` comment annotations."""
    return {int(label): cond for label, cond in _ANNOTATION_RE.findall(source)}


def _parse_cli_valuation(text: Optional[str], flag: str = "--init") -> Dict[str, float]:
    try:
        return parse_valuation(text)
    except ValueError as exc:
        raise CLIError(f"invalid {flag} value: {exc}") from None


def _parse_invariant_spec(spec: str) -> Tuple[int, str]:
    label, sep, cond = spec.partition(":")
    if not sep or not cond.strip():
        raise CLIError(
            f"invalid --invariant value {spec!r}; expected LABEL:COND (e.g. '1: x >= 0')"
        )
    try:
        label_id = int(label.strip())
    except ValueError:
        raise CLIError(
            f"invalid --invariant label {label.strip()!r}; must be an integer CFG label"
        ) from None
    return label_id, cond.strip()


def _make_cache(args: argparse.Namespace, default_on: bool):
    """Build the result cache an engine-backed command should use.

    ``--no-cache`` always wins; an explicit ``--cache-dir`` always
    enables; otherwise ``default_on`` decides (the heavy-traffic
    commands — ``batch`` and ``serve`` — cache by default, one-shot
    ``bench`` only on request).
    """
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None and not default_on:
        return None
    from .cache import ResultCache

    return ResultCache(cache_dir)


def _print_cache_summary(cache) -> None:
    # Process-local counters only — a disk census of a months-old store
    # is `repro cache stats`' job, not a per-run stderr line's.
    if cache is None:
        return
    print(
        f"cache: {cache.hits} hits, {cache.misses} misses ({cache.root})",
        file=sys.stderr,
    )


def _parse_degree(text: str) -> Union[int, str]:
    if text == "auto":
        return "auto"
    try:
        degree = int(text)
    except ValueError:
        raise CLIError(f"invalid --degree value {text!r}; expected a positive integer or 'auto'") from None
    if degree < 1:
        raise CLIError(f"invalid --degree value {text!r}; degree must be >= 1")
    return degree


def _read_program(path: str):
    try:
        with open(path) as handle:
            source = handle.read()
    except OSError as exc:
        raise CLIError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    return source, parse_program(source, name=path)


def _cmd_analyze(args: argparse.Namespace) -> int:
    degree = _parse_degree(args.degree)
    if args.max_degree < 1:
        raise CLIError(f"invalid --max-degree value {args.max_degree}; must be >= 1")
    init = _parse_cli_valuation(args.init)
    source, program = _read_program(args.file)
    invariants = extract_invariant_annotations(source)
    for spec in args.invariant or []:
        label_id, cond = _parse_invariant_spec(spec)
        invariants[label_id] = cond

    tail_probes = None
    if args.tail_probes:
        try:
            tail_probes = [float(chunk) for chunk in args.tail_probes.split(",") if chunk.strip()]
        except ValueError:
            raise CLIError(
                f"invalid --tail-probes value {args.tail_probes!r}; expected t1,t2,..."
            ) from None
    options = AnalysisOptions(
        degree=degree,
        max_degree=args.max_degree,
        mode=args.mode,
        compute_lower=not args.no_lower,
        max_multiplicands=args.max_multiplicands,
        invariants=invariants or None,
        invariant_domain=args.invariant_domain,
        init=init,
        tails=args.tails,
        tail_horizon=args.tail_horizon,
        tail_probes=tail_probes,
    )
    # The staged facade analyzes the parsed AST directly — exact float
    # literals, no cache/pool — and owns the auto-degree escalation.
    # An exhausted escalation is one of the result's warnings, printed
    # by summary() in the batch engine's wording.
    result = Analyzer(options).synthesize(program, check_concentration=args.concentration)
    if degree == "auto":
        print(f"degree:  {result.degrees_tried[-1]} (auto)")
    print(result.summary())
    return 0 if result.upper is not None else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    init = _parse_cli_valuation(args.init)
    _, program = _read_program(args.file)
    if program.has_nondeterminism():
        print(
            "error: program has nondeterministic choices; replace them "
            "(repro.replace_nondet) or analyze instead",
            file=sys.stderr,
        )
        return 1
    if args.max_steps < 1:
        raise CLIError(f"invalid --max-steps value {args.max_steps}; must be >= 1")
    cfg = build_cfg(program)
    stats = simulate(
        cfg, init, runs=args.runs, seed=args.seed, max_steps=args.max_steps, engine=args.engine
    )
    print(f"runs:             {stats.runs}")
    print(f"engine:           {stats.engine}")
    if stats.terminated_runs > 0:
        print(f"mean cost:        {stats.mean:.6g}")
        print(f"std:              {stats.std:.6g}")
        print(f"min / max:        {stats.min:.6g} / {stats.max:.6g}")
    else:
        print("mean cost:        n/a (no run terminated)")
    print(f"mean steps:       {stats.mean_steps:.6g}")
    print(f"termination rate: {stats.termination_rate:.3f}")
    if stats.truncated:
        print(
            f"warning: {stats.truncated} of {stats.runs} runs were truncated at "
            f"{args.max_steps} steps and excluded from mean/std; their mean "
            f"partial cost was {stats.truncated_mean:.6g} (raise --max-steps)"
        )
    return 0


def _cmd_cfg(args: argparse.Namespace) -> int:
    _, program = _read_program(args.file)
    print(build_cfg(program).pretty())
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    from .invariants import generate_invariants

    init = _parse_cli_valuation(args.init)
    _, program = _read_program(args.file)
    cfg = build_cfg(program)
    inferred = generate_invariants(cfg, init, domain=args.domain)

    def rows(region):
        return [f"{g} >= 0" for poly in region.disjuncts for g in poly.constraints]

    if args.json:
        payload = {
            "schema": "repro-invariants/v1",
            "domain": args.domain,
            "labels": {
                str(label_id): rows(region)
                for label_id, region in sorted(inferred.items())
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"domain: {args.domain}")
    for label_id in sorted(cfg.labels):
        if label_id not in inferred:
            print(f"label {label_id}: unreachable")
            continue
        constraints = rows(inferred.get(label_id))
        if not constraints:
            print(f"label {label_id}: true")
        else:
            print(f"label {label_id}:")
            for row in constraints:
                print(f"  {row}")
    return 0


def _lint_spec_results(path: str):
    """Lint every task of a batch spec; yields (task name, CheckResult)."""
    from .check import check_request

    try:
        requests = load_spec(path)
    except OSError as exc:
        raise CLIError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CLIError(f"invalid JSON in {path!r}: {exc}") from None
    except ValueError as exc:
        raise CLIError(f"invalid spec {path!r}: {exc}") from None
    if not requests:
        raise CLIError(f"spec {path!r} contains no tasks")
    results = []
    for request in requests:
        name = request.display_name
        try:
            results.append((name, check_request(request)))
        except (KeyError, ValueError) as exc:
            raise CLIError(f"invalid task {name!r}: {exc}") from None
    return results


def _cmd_lint(args: argparse.Namespace) -> int:
    from .check import check_benchmark, check_program

    init = _parse_cli_valuation(args.init) or None

    if args.benchmark is not None:
        if args.target is not None:
            raise CLIError("give either a FILE/SPEC.json or --benchmark NAME, not both")
        try:
            bench = get_benchmark(args.benchmark)
        except KeyError as exc:
            raise CLIError(str(exc.args[0] if exc.args else exc)) from None
        results = [
            (
                bench.name,
                check_benchmark(bench, init=init, invariant_domain=args.invariant_domain),
            )
        ]
    elif args.target is None:
        raise CLIError("missing lint target: FILE, SPEC.json, or --benchmark NAME")
    elif args.target.endswith(".json"):
        if args.invariant:
            raise CLIError("--invariant applies to program files, not batch specs")
        results = _lint_spec_results(args.target)
    else:
        source, program = _read_program(args.target)
        invariants = extract_invariant_annotations(source)
        for spec in args.invariant or []:
            label_id, cond = _parse_invariant_spec(spec)
            invariants[label_id] = cond
        results = [
            (
                args.target,
                check_program(
                    program,
                    init=init,
                    invariants=invariants or None,
                    invariant_domain=args.invariant_domain,
                ),
            )
        ]

    errors = sum(len(res.errors) for _, res in results)
    warnings = sum(len(res.warnings) for _, res in results)
    findings = errors + warnings

    if args.json:
        payload = {
            "schema": "repro-lint/v1",
            "strict": bool(args.strict),
            "errors": errors,
            "warnings": warnings,
            "targets": [
                {
                    "name": name,
                    "diagnostics": res.to_dicts(),
                    "errors": len(res.errors),
                    "warnings": len(res.warnings),
                }
                for name, res in results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, res in results:
            for line in res.format_lines():
                print(f"{name}: {line}")
        noun = "finding" if findings == 1 else "findings"
        tally = f"{findings} {noun} ({errors} errors, {warnings} warnings)"
        print(f"checked {len(results)} target{'s' if len(results) != 1 else ''}: {tally}")

    if errors or (args.strict and findings):
        return 1
    return 0


def _report_table(reports: List[AnalysisReport]) -> str:
    from .experiments.common import fmt, render_table

    rows = []
    for report in reports:
        rows.append(
            [
                report.name,
                ", ".join(f"{k}={v:g}" for k, v in report.init.items() if v),
                report.status,
                str(report.degree) if report.degree is not None else "-",
                fmt(report.upper_value),
                fmt(report.lower_value),
                fmt(report.sim_mean),
                fmt(report.runtime, 3) + "s",
            ]
        )
    headers = ["program", "v0", "status", "d", "upper", "lower", "sim mean", "time"]
    return render_table(headers, rows)


def _print_report_diagnostics(reports: List[AnalysisReport]) -> None:
    from .check import Diagnostic

    for report in reports:
        for warning in report.warnings:
            print(f"warning [{report.name}]: {warning}", file=sys.stderr)
        for entry in report.diagnostics or []:
            diag = Diagnostic.from_dict(entry)
            print(f"lint [{report.name}]: {diag.format()}", file=sys.stderr)
        if report.error:
            print(f"error [{report.name}]: {report.error}", file=sys.stderr)


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise CLIError(f"invalid --jobs value {args.jobs}; must be >= 1")
    degree = _parse_degree(args.degree) if args.degree is not None else None
    init = _parse_cli_valuation(args.init) or None

    options = AnalysisOptions(
        degree=degree,
        max_degree=args.max_degree,
        max_multiplicands=args.max_multiplicands,
        invariant_domain=args.invariant_domain,
        init=init,
        timeout_s=args.timeout,
    )
    cache = _make_cache(args, default_on=False)

    if args.all:
        if args.name is not None:
            raise CLIError("give either a benchmark NAME or --all, not both")
        with Analyzer(options, cache=cache, jobs=args.jobs) as analyzer:
            reports = analyzer.analyze_batch(
                [analyzer.request(bench.name) for bench in all_benchmarks()]
            )
        print(_report_table(reports))
        _print_report_diagnostics(reports)
        _print_cache_summary(cache)
        return 0 if all(r.ok for r in reports) else 1

    if args.name is None:
        raise CLIError("missing benchmark NAME (or use --all)")
    try:
        bench = get_benchmark(args.name)
    except KeyError as exc:
        raise CLIError(str(exc.args[0] if exc.args else exc)) from None

    if degree == "auto" or args.timeout is not None or cache is not None:
        # The report path owns degree escalation, per-task budgets and
        # the result cache; route through it so those flags behave
        # exactly as in `repro batch`.
        report = Analyzer(options, cache=cache).analyze(bench.name)
        print(f"# {bench.title}")
        print(_report_table([report]))
        _print_report_diagnostics([report])
        _print_cache_summary(cache)
        return 0 if report.ok else 1

    result = Analyzer(options).synthesize(bench)
    print(f"# {bench.title}")
    print(result.summary())
    if bench.paper_upper:
        print(f"paper upper: {bench.paper_upper}")
    if bench.paper_lower:
        print(f"paper lower: {bench.paper_lower}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise CLIError(f"invalid --jobs value {args.jobs}; must be >= 1")
    try:
        requests = load_spec(args.spec)
    except OSError as exc:
        raise CLIError(f"cannot read {args.spec!r}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CLIError(f"invalid JSON in {args.spec!r}: {exc}") from None
    except ValueError as exc:
        raise CLIError(f"invalid spec {args.spec!r}: {exc}") from None
    if not requests:
        raise CLIError(f"spec {args.spec!r} contains no tasks")
    overrides: Dict[str, object] = {}
    if args.tails:
        overrides["tails"] = True
    if args.invariant_domain is not None:
        overrides["invariant_domain"] = args.invariant_domain
    # --timeout and --retries fill in only fields a task leaves unset.
    fallbacks: Dict[str, object] = {}
    if args.timeout is not None:
        fallbacks["timeout_s"] = args.timeout
    if args.retries is not None:
        if args.retries < 0:
            raise CLIError(f"invalid --retries value {args.retries}; must be >= 0")
        # --retries N = N retries after the first run.
        fallbacks["retry"] = {"max_attempts": args.retries + 1}
    requests = [
        replace(
            request,
            **{key: value for key, value in fallbacks.items() if getattr(request, key) is None},
            **overrides,
        )
        for request in requests
    ]
    if args.output:
        # Fail fast on an unwritable report location rather than after
        # the (potentially long) batch has run.
        out_dir = os.path.dirname(os.path.abspath(args.output))
        if not os.path.isdir(out_dir) or not os.access(out_dir, os.W_OK):
            raise CLIError(f"cannot write {args.output!r}: directory is missing or unwritable")

    def _progress(report: AnalysisReport) -> None:
        if not args.quiet:
            print(f"[{report.status:>7s}] {report.name} ({report.runtime:.3f}s)", file=sys.stderr)

    cache = _make_cache(args, default_on=True)
    with Analyzer(cache=cache, jobs=args.jobs) as analyzer:
        reports = analyzer.analyze_batch(requests, progress=_progress)
    print(_report_table(reports))
    _print_report_diagnostics(reports)
    _print_cache_summary(cache)

    if args.output:
        payload = {
            "schema": "repro-batch/v2",
            "jobs": args.jobs,
            "tasks": len(reports),
            "failed": sum(not r.ok for r in reports),
            "reports": [r.to_dict() for r in reports],
        }
        try:
            with open(args.output, "w") as handle:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
        except OSError as exc:
            raise CLIError(f"cannot write {args.output!r}: {exc.strerror or exc}") from None
        print(f"wrote {args.output}", file=sys.stderr)

    return 0 if all(r.ok for r in reports) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import create_server, run_server

    if args.jobs < 1:
        raise CLIError(f"invalid --jobs value {args.jobs}; must be >= 1")
    if not 0 <= args.port <= 65535:
        raise CLIError(f"invalid --port value {args.port}; must be in [0, 65535]")
    if args.max_inflight < 1:
        raise CLIError(f"invalid --max-inflight value {args.max_inflight}; must be >= 1")
    if args.drain_timeout <= 0:
        raise CLIError(f"invalid --drain-timeout value {args.drain_timeout}; must be > 0")
    cache = _make_cache(args, default_on=True)
    analyzer = Analyzer(cache=cache, jobs=args.jobs)
    try:
        try:
            server = create_server(
                host=args.host,
                port=args.port,
                analyzer=analyzer,
                verbose=True,
                max_inflight=args.max_inflight,
                drain_timeout_s=args.drain_timeout,
            )
        except OSError as exc:
            # Only bind failures get the friendly exit-2 treatment; a
            # runtime OSError mid-serve is a different animal and
            # surfaces as itself.
            raise CLIError(f"cannot bind {args.host}:{args.port}: {exc.strerror or exc}") from None
        return run_server(server)
    finally:
        analyzer.close()


def _cmd_cache(args: argparse.Namespace) -> int:
    from .cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached entr{'y' if removed == 1 else 'ies'} from {cache.root}")
        return 0
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2))
        return 0
    print(f"root:    {stats.root}")
    print(f"entries: {stats.entries}")
    print(f"size:    {stats.size_bytes} bytes")
    return 0


def _parse_fuzz_config(specs: Optional[List[str]]):
    from .fuzz import GenConfig

    overrides: Dict[str, object] = {}
    for spec in specs or []:
        key, sep, value = spec.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise CLIError(f"invalid --config value {spec!r}; expected KEY=VALUE")
        if key == "distributions":
            overrides[key] = tuple(v.strip() for v in value.split(",") if v.strip())
        else:
            try:
                overrides[key] = int(value)
            except ValueError:
                raise CLIError(
                    f"invalid --config value {spec!r}; {value!r} is not an integer"
                ) from None
    try:
        return GenConfig().override(**overrides)
    except TypeError:
        from dataclasses import fields

        known = ", ".join(f.name for f in fields(GenConfig))
        bad = sorted(set(overrides) - {f.name for f in fields(GenConfig)})
        raise CLIError(f"unknown --config key(s) {bad}; known: {known}") from None
    except ValueError as exc:
        raise CLIError(f"invalid --config: {exc}") from None


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import (
        CLASSIFICATIONS,
        DEFECTS,
        Harness,
        generate,
        shrink_program,
        write_corpus_entry,
    )

    if args.count < 1:
        raise CLIError(f"invalid --count value {args.count}; must be >= 1")
    config = _parse_fuzz_config(args.config)
    defect = args.inject_defect
    if defect is not None and defect not in DEFECTS:
        raise CLIError(f"unknown --inject-defect {defect!r}; known: {', '.join(sorted(DEFECTS))}")

    harness = Harness(config, defect=defect, invariant_domain=args.invariant_domain)
    run = harness.run(args.seed, args.count)

    corpus_paths: List[str] = []
    if run.violations and args.corpus_dir:
        from pathlib import Path

        for outcome in run.violations:
            prog = generate(config, outcome.seed)

            def _still_violates(p, i, _seed=outcome.seed):
                return harness.classify(p, i, _seed).classification == "violation"

            small, small_init = shrink_program(prog.program, prog.init, _still_violates)
            name = f"violation-seed{outcome.seed}" + (f"-{defect}" if defect else "")
            path = write_corpus_entry(
                Path(args.corpus_dir),
                name=name,
                seed=outcome.seed,
                defect=defect,
                config=config.to_dict(),
                program=small,
                init=small_init,
                note=outcome.detail,
            )
            corpus_paths.append(str(path))

    if args.json:
        payload = run.to_dict()
        payload["corpus"] = corpus_paths
        print(json.dumps(payload, indent=2))
    else:
        suffix = f" (injected defect: {defect})" if defect else ""
        print(f"fuzzed {args.count} seeds starting at {args.seed}{suffix}")
        counts = run.counts
        for name in CLASSIFICATIONS:
            print(f"  {name:12s} {counts[name]}")
        for outcome in run.violations:
            print(f"violation at seed {outcome.seed}: {outcome.detail}")
        for path in corpus_paths:
            print(f"wrote shrunk repro {path}")
    return 1 if run.violations else 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for bench in all_benchmarks():
        nd = " [nondet]" if bench.has_nondeterminism else ""
        print(f"{bench.name:20s} ({bench.category}, degree {bench.degree}){nd}  {bench.title}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Expected-cost analysis of probabilistic programs (PLDI 2019)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="synthesize PUCS/PLCS bounds for a program file")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--init", help="initial valuation, e.g. x=100,y=0")
    p_analyze.add_argument(
        "--degree", default="2", help="template degree (a positive integer, or 'auto' to escalate)"
    )
    p_analyze.add_argument(
        "--max-degree", type=int, default=4, help="degree ceiling for --degree auto"
    )
    p_analyze.add_argument("--mode", choices=["auto", "signed", "nonnegative"], default="auto")
    p_analyze.add_argument(
        "--invariant", action="append", metavar="LABEL:COND", help="per-label invariant annotation"
    )
    p_analyze.add_argument(
        "--max-multiplicands", type=int, default=None, help="Handelman multiplicand cap K"
    )
    p_analyze.add_argument("--concentration", action="store_true", help="also synthesize an RSM")
    p_analyze.add_argument(
        "--tails",
        action="store_true",
        help="derive an Azuma-Hoeffding tail bound P[cost >= E + t] from the upper certificate",
    )
    p_analyze.add_argument(
        "--tail-horizon",
        type=int,
        default=None,
        metavar="N",
        help="step horizon n of the tail guarantee (default: 1000000)",
    )
    p_analyze.add_argument(
        "--tail-probes",
        default=None,
        metavar="T1,T2",
        help="comma-separated offsets t to evaluate the tail bound at",
    )
    p_analyze.add_argument(
        "--invariant-domain",
        choices=("interval", "octagon"),
        default="interval",
        help="abstract domain of the automatic invariant generator (default: interval)",
    )
    p_analyze.add_argument("--no-lower", action="store_true", help="skip the PLCS lower bound")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo simulation of a program file")
    p_sim.add_argument("file")
    p_sim.add_argument("--init", help="initial valuation, e.g. x=100")
    p_sim.add_argument("--runs", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--max-steps", type=int, default=1_000_000, help="truncate runs after this many steps"
    )
    p_sim.add_argument(
        "--engine",
        choices=("auto", "vectorized", "reference"),
        default="auto",
        help="interpreter: 'auto' picks the vectorized NumPy batch stepper "
        "for large batches and falls back transparently, 'vectorized' and "
        "'reference' force one engine (default: auto)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_cfg = sub.add_parser("cfg", help="print the labelled control-flow graph")
    p_cfg.add_argument("file")
    p_cfg.set_defaults(func=_cmd_cfg)

    p_inv = sub.add_parser(
        "invariants", help="print the automatically inferred per-label invariants"
    )
    p_inv.add_argument("file")
    p_inv.add_argument("--init", help="initial valuation, e.g. x=100,y=0")
    p_inv.add_argument(
        "--domain",
        choices=("interval", "octagon"),
        default="interval",
        help="abstract domain to infer in (default: interval)",
    )
    p_inv.add_argument(
        "--json", action="store_true", help="machine-readable repro-invariants/v1 dump"
    )
    p_inv.set_defaults(func=_cmd_invariants)

    p_lint = sub.add_parser(
        "lint", help="run the static checks (abstract interpretation + lint rules)"
    )
    p_lint.add_argument(
        "target",
        nargs="?",
        default=None,
        metavar="FILE|SPEC.json",
        help="program file to lint, or a batch spec (by .json suffix) to lint task by task",
    )
    p_lint.add_argument("--benchmark", default=None, help="lint a registry benchmark by name")
    p_lint.add_argument("--init", help="initial valuation, e.g. x=100,y=0")
    p_lint.add_argument(
        "--invariant",
        action="append",
        metavar="LABEL:COND",
        help="invariant to validate (repeatable; program files only)",
    )
    p_lint.add_argument(
        "--invariant-domain",
        choices=("interval", "octagon"),
        default="interval",
        help="abstract domain of the fixpoint the annotation rules check against; "
        "'octagon' adds the relational REP013/REP014 rules (default: interval)",
    )
    p_lint.add_argument("--json", action="store_true", help="machine-readable findings")
    p_lint.add_argument(
        "--strict", action="store_true", help="exit 1 on any finding, warnings included"
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_bench = sub.add_parser("bench", help="analyze named paper benchmarks")
    p_bench.add_argument("name", nargs="?", help="benchmark name (see 'repro list')")
    p_bench.add_argument("--all", action="store_true", help="run every registered benchmark")
    p_bench.add_argument("--init", help="override the anchor valuation")
    p_bench.add_argument(
        "--degree", default=None, help="override the template degree (integer or 'auto')"
    )
    p_bench.add_argument(
        "--max-degree", type=int, default=4, help="degree ceiling for --degree auto"
    )
    p_bench.add_argument(
        "--max-multiplicands", type=int, default=None, help="Handelman multiplicand cap K"
    )
    p_bench.add_argument("--jobs", type=int, default=1, help="worker processes (with --all)")
    p_bench.add_argument("--timeout", type=float, default=None, help="per-benchmark budget (s)")
    p_bench.add_argument(
        "--cache-dir", default=None, help="consult/populate a result cache at this directory"
    )
    p_bench.add_argument(
        "--invariant-domain",
        choices=("interval", "octagon"),
        default="interval",
        help="abstract domain of the automatic invariant generator (default: interval)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_batch = sub.add_parser("batch", help="run a JSON spec of analysis tasks")
    p_batch.add_argument("spec", help="JSON spec file (see README: 'Batch analysis')")
    p_batch.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_batch.add_argument(
        "--timeout", type=float, default=None, help="default per-task budget in seconds"
    )
    p_batch.add_argument(
        "--tails",
        action="store_true",
        help="derive an Azuma-Hoeffding tail bound for every task",
    )
    p_batch.add_argument(
        "--retries",
        type=int,
        default=None,
        help="crash retries per task after a worker death (default: 1; 0 disables)",
    )
    p_batch.add_argument("--output", help="write the full JSON report here")
    p_batch.add_argument("--quiet", action="store_true", help="no per-task progress on stderr")
    p_batch.add_argument(
        "--no-cache", action="store_true", help="disable the content-addressed result cache"
    )
    p_batch.add_argument(
        "--cache-dir", default=None, help="result cache directory (default: $REPRO_CACHE_DIR)"
    )
    p_batch.add_argument(
        "--invariant-domain",
        choices=("interval", "octagon"),
        default=None,
        help="force this invariant domain on every task (default: per-task setting)",
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_serve = sub.add_parser("serve", help="run the JSON analysis service over HTTP")
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8095, help="bind port (0 = pick a free one)")
    p_serve.add_argument("--jobs", type=int, default=1, help="worker processes per request batch")
    p_serve.add_argument(
        "--no-cache", action="store_true", help="disable the content-addressed result cache"
    )
    p_serve.add_argument(
        "--cache-dir", default=None, help="result cache directory (default: $REPRO_CACHE_DIR)"
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="concurrent POSTs executed before shedding with 429 (default: 32)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds a SIGTERM/Ctrl-C shutdown waits for in-flight requests",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_cache = sub.add_parser("cache", help="inspect or clear the result cache")
    p_cache.add_argument("action", choices=["stats", "clear"], help="what to do")
    p_cache.add_argument(
        "--cache-dir", default=None, help="result cache directory (default: $REPRO_CACHE_DIR)"
    )
    p_cache.add_argument("--json", action="store_true", help="machine-readable stats")
    p_cache.set_defaults(func=_cmd_cache)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential soundness fuzzing (generate, analyze, simulate, compare)"
    )
    p_fuzz.add_argument("--seed", type=int, default=0, help="first generator seed")
    p_fuzz.add_argument("--count", type=int, default=100, help="number of consecutive seeds")
    p_fuzz.add_argument(
        "--config",
        action="append",
        metavar="KEY=VALUE",
        help="GenConfig override, repeatable (e.g. max_depth=1, "
        "distributions=discrete,bernoulli)",
    )
    p_fuzz.add_argument(
        "--inject-defect",
        default=None,
        metavar="NAME",
        help="corrupt the synthesized claims to self-test the oracle "
        "(weaken-upper, raise-lower, shrink-tail)",
    )
    p_fuzz.add_argument(
        "--corpus-dir",
        default=None,
        help="shrink each violation and write the repro JSON here",
    )
    p_fuzz.add_argument(
        "--invariant-domain",
        choices=("interval", "octagon"),
        default="octagon",
        help="invariant domain the analyzer under test runs with; generated "
        "programs carry no annotations, so the relational default exercises "
        "the strongest generator (default: octagon)",
    )
    p_fuzz.add_argument("--json", action="store_true", help="machine-readable repro-fuzz/v1 report")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_list = sub.add_parser("list", help="list the paper benchmarks")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Engine-level request validation (bad --timeout/--max-degree
        # values etc.) is user input too: same one-line contract.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
