"""Experiment harness regenerating every table and figure of the paper.

* ``python -m repro.experiments.table2`` — Table 2 (vs the [74] baseline)
* ``python -m repro.experiments.table3`` — Table 3 (symbolic bounds)
* ``python -m repro.experiments.table4`` — Table 4 (numeric bounds + simulation)
* ``python -m repro.experiments.table5`` — Table 5 (nondet replaced by prob(0.5))
* ``python -m repro.experiments.table6`` — Table 6 (extension families, not in the paper)
* ``python -m repro.experiments.figures`` — Figures 15-24 (bound/simulation curves)
* ``python -m repro.experiments.table_tails`` — Azuma tail bounds vs. empirical
  interpreter tail frequencies (new workload, not in the paper)

Every driver is a list of :mod:`repro.batch` requests plus a renderer,
run as one batch on an :class:`repro.api.Analyzer` session
(``analyzer=``; ``--jobs N`` from the command line).  Tables 2-6 and
the tail table build their requests by :func:`repro.batch.suite_requests`,
the rule ``repro batch`` expands ``{"suite": ...}`` tasks by (members,
valuation order, the coin flip, simulation settings).  So
``{"suite": "table3", "all_inits": true}`` with ``simulate_runs`` and
``simulate_seed`` defaults is exactly Table 4's request list, and
``{"suite": "tails"}`` the tail table's.  The figures take one request
per sweep point (a pair for a nondeterministic program).
"""

from importlib import import_module

#: Public name -> the driver module defining it.  Served lazily (PEP
#: 562): ``repro bench`` and ``repro batch`` render with
#: :mod:`.common` alone and should not import every driver and its
#: dependencies, and ``python -m repro.experiments.tableN`` must not
#: find its module already imported by this package.
_EXPORTS = {
    "BoundsRow": "common",
    "FigureSeries": "figures",
    "Table2Row": "table2",
    "Table3Row": "table3",
    "TailCheck": "table_tails",
    "TailRow": "table_tails",
    "ascii_plot": "common",
    "build_all_figures": "figures",
    "build_figure": "figures",
    "build_table2": "table2",
    "build_table3": "table3",
    "build_table4": "table4",
    "build_table5": "table5",
    "build_table6": "table6",
    "build_table_tails": "table_tails",
    "fmt": "common",
    "fmt_poly": "common",
    "probabilistic_variant": "table5",
    "render_table": "common",
}


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_EXPORTS)
