"""Golden packet counts: both backends against a recorded table.

The differential suites compare the two backends with each other, so a
change both share — a different path order in a distribution, or a
different RNG draw order — would pass them unnoticed.  This suite pins
the absolute counts of a small grid to ``data/golden_counts.json``,
recorded once from a known-good tree (its provenance is in CHANGES.md).

Regenerate only on a deliberate change of the stochastic process::

    PYTHONPATH=src python -m tests.sim.test_golden_counts
"""

from __future__ import annotations

import itertools
import json
import pathlib

import pytest

from repro.routing import IVAL, VAL, DimensionOrderRouting
from repro.sim import SimulationConfig, simulate
from repro.topology import Torus
from repro.traffic import tornado, uniform

DATA = pathlib.Path(__file__).parent / "data" / "golden_counts.json"

RADIX = 4
ALGORITHMS = {"DOR": DimensionOrderRouting, "VAL": VAL, "IVAL": IVAL}
TRAFFIC = {"uniform": lambda t: uniform(t.num_nodes), "tornado": tornado}
RATES = (0.15, 0.45, 0.9)
SEEDS = (1, 2)
CYCLES, WARMUP = 300, 100
FIELDS = ("injected", "delivered", "backlog", "dropped", "lost")
CASES = list(itertools.product(ALGORITHMS, TRAFFIC, RATES, SEEDS))


def case_key(alg: str, traffic: str, rate: float, seed: int) -> str:
    return f"{alg}/{traffic}/{rate}/{seed}"


def run_case(algorithms, torus, case, backend: str) -> dict[str, int]:
    alg, traffic, rate, seed = case
    config = SimulationConfig(
        cycles=CYCLES, warmup=WARMUP, injection_rate=rate, seed=seed
    )
    result = simulate(
        algorithms[alg], TRAFFIC[traffic](torus), config, backend=backend
    )
    return {field: getattr(result, field) for field in FIELDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def setting():
    torus = Torus(RADIX, 2)
    return torus, {name: make(torus) for name, make in ALGORITHMS.items()}


def test_table_covers_the_grid(golden):
    assert sorted(golden["counts"]) == sorted(case_key(*c) for c in CASES)
    assert golden["grid"] == {
        "radix": RADIX, "cycles": CYCLES, "warmup": WARMUP,
        "rates": list(RATES), "seeds": list(SEEDS),
    }


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@pytest.mark.parametrize("case", CASES, ids=lambda c: case_key(*c))
def test_counts_match_golden(golden, setting, case, backend):
    torus, algorithms = setting
    got = run_case(algorithms, torus, case, backend)
    assert got == golden["counts"][case_key(*case)]


def _record() -> None:
    """Rewrite the golden table; the two backends must agree first."""
    torus = Torus(RADIX, 2)
    algorithms = {name: make(torus) for name, make in ALGORITHMS.items()}
    counts = {}
    for case in CASES:
        vec = run_case(algorithms, torus, case, "vectorized")
        ref = run_case(algorithms, torus, case, "reference")
        if vec != ref:
            raise SystemExit(f"backends disagree on {case}: {vec} vs {ref}")
        counts[case_key(*case)] = vec
    doc = {
        "grid": {
            "radix": RADIX, "cycles": CYCLES, "warmup": WARMUP,
            "rates": list(RATES), "seeds": list(SEEDS),
        },
        "counts": counts,
    }
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(counts)} cases to {DATA}")


if __name__ == "__main__":
    _record()
