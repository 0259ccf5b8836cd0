"""Every fixpoint state stays bitwise what it was when first pinned.

Gamma rows, the Handelman LPs and the golden tables are all built from
the closed states :func:`repro.check.interp.fixpoint` returns, so a
change to the driver or to a domain's operations must leave each of
them bit for bit alone.  ``fixpoint_pins.json`` holds one digest per
analysis: the closed state at every label (floats as ``float.hex``,
``None`` for a label proved unreachable), in label order.  It covers

* every registry benchmark at each of its valuations
  (:meth:`~repro.programs.base.Benchmark.all_inits`), in both the
  interval and the octagon domain;
* the programs of fuzz seeds 0-199 (default
  :class:`~repro.fuzz.generator.GenConfig`), in both domains, from the
  empty init (every variable 0, so most loops are dead) and from the
  init the generator draws with the program (so they run).

The pins were recorded (and are re-recorded, after a deliberate change
of the analysis) with::

    PYTHONPATH=src python tests/check/test_fixpoint_pins.py
"""

import hashlib
import json
import os

import pytest

from repro.check import analyze_cfg, analyze_cfg_octagon
from repro.check.octagon import Octagon
from repro.fuzz.generator import GenConfig, generate
from repro.programs import all_benchmarks
from repro.semantics import build_cfg

PINS = os.path.join(os.path.dirname(__file__), "fixpoint_pins.json")
DOMAINS = {"interval": analyze_cfg, "octagon": analyze_cfg_octagon}
FUZZ_SEEDS = range(200)


def _state_text(state) -> str:
    if state is None:
        return "none"
    if isinstance(state, Octagon):
        rows = ";".join(",".join(float(c).hex() for c in row) for row in state.m)
        return f"{','.join(state.vars)}:{rows}"
    return ";".join(
        f"{var}:{float(iv.lo).hex()},{float(iv.hi).hex()}" for var, iv in sorted(state.items())
    )


def fixpoint_digest(analysis) -> str:
    h = hashlib.sha256()
    h.update(f"entry={_state_text(analysis.entry_state)}|".encode())
    for label_id in sorted(analysis.states):
        h.update(f"{label_id}={_state_text(analysis.states[label_id])}|".encode())
    return h.hexdigest()


def _registry_cases():
    for bench in all_benchmarks():
        for init in bench.all_inits():
            pvar_init = {k: v for k, v in init.items() if k in bench.cfg.pvars}
            valuation = ",".join(f"{k}={v:g}" for k, v in sorted(init.items()))
            for domain in DOMAINS:
                yield f"{bench.name}/{valuation}/{domain}", bench.cfg, pvar_init, domain


def _fuzz_cases():
    config = GenConfig()
    for seed in FUZZ_SEEDS:
        generated = generate(config, seed)
        cfg = build_cfg(generated.program)
        drawn = {k: v for k, v in generated.init.items() if k in cfg.pvars}
        for start, init in (("empty", {}), ("drawn", drawn)):
            for domain in DOMAINS:
                yield f"fuzz/{seed}/{start}/{domain}", cfg, init, domain


def _digests(cases):
    return {key: fixpoint_digest(DOMAINS[domain](cfg, init)) for key, cfg, init, domain in cases}


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as handle:
        return json.load(handle)


@pytest.mark.parametrize("suite, cases", [("registry", _registry_cases), ("fuzz", _fuzz_cases)])
def test_fixpoints_match_pins(pins, suite, cases):
    digests = _digests(cases())
    assert sorted(digests) == sorted(pins[suite])
    changed = [key for key, digest in digests.items() if pins[suite][key] != digest]
    assert changed == []


def test_pins_cover_both_domains(pins):
    assert len(pins["fuzz"]) == 4 * len(FUZZ_SEEDS)
    per_domain = {d: sum(k.endswith("/" + d) for k in pins["registry"]) for d in DOMAINS}
    assert per_domain["interval"] == per_domain["octagon"] > 0


if __name__ == "__main__":
    recorded = {"registry": _digests(_registry_cases()), "fuzz": _digests(_fuzz_cases())}
    with open(PINS, "w") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
