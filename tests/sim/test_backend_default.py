"""One constant decides the default kernel: repro.constants.

Before the constant existed, ``simulate`` and the measurement loops
each hard-coded their own default string — flipping one and not the
other silently benchmarked a backend against itself.  These tests pin
every entry point to :data:`repro.constants.DEFAULT_SIM_BACKEND`.
"""

import inspect

import pytest

from repro.cli import main
from repro.constants import DEFAULT_SIM_BACKEND
from repro.experiments import adaptive_compare, faults, sim_validation
from repro.routing import DimensionOrderRouting
from repro.sim import BACKENDS, SimulationConfig, simulate, simulate_replicas
from repro.sim.measure import latency_load_curve, saturation_throughput
from repro.topology import Torus
from repro.traffic import uniform


def test_constant_is_a_valid_backend():
    assert DEFAULT_SIM_BACKEND in ("vectorized", "reference")


def test_library_defaults_agree():
    for fn in (simulate, latency_load_curve, saturation_throughput):
        default = inspect.signature(fn).parameters["backend"].default
        assert default == DEFAULT_SIM_BACKEND, fn.__name__


def test_experiment_defaults_agree():
    for fn in (adaptive_compare.run, sim_validation.run, faults.run):
        default = inspect.signature(fn).parameters["sim_backend"].default
        assert default == DEFAULT_SIM_BACKEND, fn.__module__


def test_cli_defers_to_the_constant():
    # The CLI flag defaults to None and the runner only forwards an
    # explicit choice, so the library default (the constant) governs.
    from repro.cli import build_parser

    args = build_parser().parse_args(["run", "sim", "--k", "4"])
    assert args.sim_backend is None


def test_removed_compiled_backend_rejected(capsys):
    # ``compiled`` is not a backend: every entry point names the two
    # that exist rather than silently aliasing one of them.
    assert BACKENDS == ("reference", "vectorized")
    torus = Torus(3, 2)
    alg, traffic = DimensionOrderRouting(torus), uniform(torus.num_nodes)
    expected = r"\('reference', 'vectorized'\)"
    with pytest.raises(ValueError, match=expected):
        simulate(alg, traffic, SimulationConfig(), backend="compiled")
    with pytest.raises(ValueError, match=expected):
        simulate_replicas(alg, traffic, [(0.3, 0)], backend="compiled")
    with pytest.raises(ValueError, match=expected):
        saturation_throughput(alg, traffic, backend="compiled")
    with pytest.raises(SystemExit) as exc:
        main(["run", "sim", "--k", "3", "--sim-backend", "compiled"])
    assert exc.value.code == 2
    assert "invalid choice: 'compiled'" in capsys.readouterr().err
