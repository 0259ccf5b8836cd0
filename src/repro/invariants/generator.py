"""Automatic linear invariant generation via abstract interpretation.

The paper uses the Stanford Invariant Generator [82] to obtain linear
invariants; any sound generator can be substituted because invariants
are an *input* to the method.  Two generators are provided, selected by
the ``invariant_domain`` option everywhere the pipeline surfaces it:

* ``"interval"`` — per-variable boxes from :mod:`repro.check.interp`
  (``x - lo >= 0`` and ``hi - x >= 0`` rows);
* ``"octagon"`` — relational constraints ``+-x +-y <= c`` from
  :mod:`repro.check.octagon`, which recover facts like ``n - x >= 0``
  that previously had to be hand-annotated.

Both emit *canonical* constraint rows: deduplicated, ordered by
variable name (then constraint kind), independent of dict-iteration
order — so the Gamma rows fed to the Handelman products and the
request fingerprints derived from them are stable and minimal.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ..check.interp import Interval, analyze_cfg
from ..check.octagon import analyze_cfg_octagon
from ..polynomials import Polynomial
from ..semantics.cfg import CFG
from .annotations import InvariantMap
from .polyhedron import Polyhedron, Region

__all__ = [
    "Interval",
    "generate_interval_invariants",
    "generate_invariants",
    "generate_octagon_invariants",
    "strengthen_invariants",
]

def _canonical_rows(rows: List[Polynomial]) -> List[Polynomial]:
    """Deduplicate constraint rows, preserving their canonical order.

    Emission sites order rows by variable name (then bound kind), so
    first-seen order *is* the canonical order; this pass only drops
    exact repeats (e.g. the same bound reached through two variables'
    emission passes), keeping Gamma minimal and fingerprints stable.
    """
    seen = set()
    out: List[Polynomial] = []
    for row in rows:
        key = tuple(sorted((mono, float(coeff)) for mono, coeff in row.terms()))
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


def _invariant_map(analysis) -> InvariantMap:
    """The analysis' canonical rows at every reachable label;
    unreachable labels get the (vacuous) trivial invariant."""
    entries: Dict[int, Region] = {}
    for label_id in analysis.states:
        rows = analysis.constraints_at(label_id)
        if rows is not None:
            entries[label_id] = Region.of(Polyhedron(_canonical_rows(rows)))
    return InvariantMap(entries)


def generate_interval_invariants(
    cfg: CFG, init: Mapping[str, float], fixpoint=None
) -> InvariantMap:
    """Interval bounds ``x - lo >= 0`` and ``hi - x >= 0`` from the
    analysis started at ``init`` (unmentioned variables start at 0,
    matching the interpreter).  ``fixpoint`` is that analysis when the
    caller already ran it (the lint pass does)."""
    return _invariant_map(fixpoint if fixpoint is not None else analyze_cfg(cfg, init))


def generate_octagon_invariants(
    cfg: CFG, init: Mapping[str, float], fixpoint=None
) -> InvariantMap:
    """The unary bounds plus every relational constraint ``+-x +-y <= c``
    strictly stronger than what the unary bounds already imply (the
    entailed ones would only bloat the Handelman products).
    ``fixpoint`` is the octagon analysis from ``init`` when the caller
    already ran it (the lint pass does in this domain)."""
    return _invariant_map(fixpoint if fixpoint is not None else analyze_cfg_octagon(cfg, init))


def generate_invariants(
    cfg: CFG, init: Mapping[str, float], domain: str = "interval", fixpoint=None
) -> InvariantMap:
    """Generate invariants in the requested abstract ``domain``
    (``fixpoint``: that domain's analysis, when already run)."""
    from ..api.options import INVARIANT_DOMAINS

    if domain not in INVARIANT_DOMAINS:
        raise ValueError(
            f"invariant_domain must be one of {INVARIANT_DOMAINS}, got {domain!r}"
        )
    generate = (
        generate_octagon_invariants if domain == "octagon" else generate_interval_invariants
    )
    return generate(cfg, init, fixpoint)


def strengthen_invariants(
    inv: InvariantMap, cfg: CFG, init: Mapping[str, float], domain: str, fixpoint=None
) -> None:
    """Add the generated ``domain`` invariants to ``inv``, in place.

    Interval invariants fill only the labels the user left unannotated:
    hand-written invariants are typically tighter, and mixing in
    anchor-specific point intervals (e.g. ``n = 320``) can degrade LP
    conditioning.  Octagon rows are also conjoined into annotated
    labels — they are sound by construction, and this is what lets
    annotation-dependent benchmarks synthesize with their hand-written
    invariants deleted.  ``fixpoint`` is the ``domain`` analysis from
    ``init`` when already run (:attr:`repro.check.CheckResult.fixpoint`).
    """
    for label_id, region in generate_invariants(cfg, init, domain, fixpoint).items():
        if label_id not in inv:
            inv.set(label_id, region)
        elif domain == "octagon":
            inv.conjoin(label_id, region)
