"""Differential equivalence for replica-batched launches.

The batched kernel's correctness spine: a batch of mixed
``(injection_rate, seed, fault_schedule, link_schedule)`` replicas must
be draw-for-draw identical to running each replica as an individual
``simulate`` call — every packet count exactly, latency within float
summation tolerance.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.routing import IVAL
from repro.sim import Replica, SimulationConfig, replica_grid, simulate, simulate_replicas
from repro.sim import vectorized
from repro.topology import Torus
from repro.traffic import tornado, uniform
from tests.sim.conftest import assert_counts_equal, assert_latency_close

#: A deliberately heterogeneous batch: rates below/above saturation,
#: distinct seeds, one replica with mid-run channel kills and one with a
#: link-down window — nothing shared but the algorithm and traffic.
MIXED = [
    Replica(0.2, seed=3),
    Replica(0.8, seed=3),
    Replica(0.2, seed=11),
    Replica(0.6, seed=5, fault_schedule=((0, 1), (120, 7))),
    Replica(0.5, seed=7, link_schedule=((50, 2, "down"), (150, 2, "up"))),
    Replica(0.9, seed=2, fault_schedule=((80, 4),),
            link_schedule=((40, 9, "down"), (90, 9, "up"))),
]


class TestReplica:
    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="injection_rate"):
            Replica(1.5)
        with pytest.raises(ValueError, match="injection_rate"):
            Replica(-0.1)

    def test_schedules_normalized(self):
        rep = Replica(0.5, fault_schedule=[(9, 2), (3, 1), (9, 2)],
                      link_schedule=[(5, 0, "down")])
        assert rep.fault_schedule == ((3, 1), (9, 2))
        assert rep.link_schedule == ((5, 0, "down"),)

    def test_config_roundtrip(self):
        config = SimulationConfig(
            cycles=500, warmup=100, injection_rate=0.4, seed=9,
            queue_capacity=3, fault_schedule=((10, 1),),
            link_schedule=((20, 2, "down"),),
        )
        rep = Replica.from_config(config)
        assert rep.to_config(500, 100, queue_capacity=3) == config

    def test_grid_is_rate_major(self):
        grid = replica_grid([0.1, 0.2], [4, 5], fault_schedule=((0, 1),))
        assert [(r.injection_rate, r.seed) for r in grid] == [
            (0.1, 4), (0.1, 5), (0.2, 4), (0.2, 5)
        ]
        assert all(r.fault_schedule == ((0, 1),) for r in grid)

    def test_raw_tuples_accepted(self, make_sim_case):
        _, alg, traffic = make_sim_case(3, "DOR", "uniform")
        a = simulate_replicas(alg, traffic, [(0.3, 5)], cycles=200, warmup=50)
        b = simulate_replicas(
            alg, traffic, [Replica(0.3, 5)], cycles=200, warmup=50
        )
        assert a == b


class TestBatchedDifferential:
    @pytest.mark.parametrize("backend", ["vectorized"])
    def test_mixed_batch_matches_individual_reference_runs(
        self, make_sim_case, backend
    ):
        _, alg, traffic = make_sim_case(4, "IVAL", "uniform")
        batched = simulate_replicas(
            alg, traffic, MIXED, cycles=300, warmup=100, backend=backend
        )
        for rep, got in zip(MIXED, batched):
            ref = simulate(
                alg, traffic, rep.to_config(300, 100), backend="reference"
            )
            assert_counts_equal(ref, got)
            assert_latency_close(ref, got)
            if rep.fault_schedule:
                assert got.lost > 0  # the fault replicas must exercise loss

    def test_reference_backend_is_the_oracle_loop(self, make_sim_case):
        _, alg, traffic = make_sim_case(3, "DOR", "tornado")
        reps = MIXED[:3]
        via_batch_api = simulate_replicas(
            alg, traffic, reps, cycles=250, warmup=80, backend="reference"
        )
        direct = [
            simulate(alg, traffic, r.to_config(250, 80), backend="reference")
            for r in reps
        ]
        assert via_batch_api == direct

    def test_finite_capacity_batch_matches(self, make_sim_case):
        _, alg, traffic = make_sim_case(4, "VAL", "tornado")
        reps = [Replica(1.0, 1), Replica(1.0, 2), Replica(0.7, 3)]
        batched = simulate_replicas(
            alg, traffic, reps, cycles=300, warmup=100, queue_capacity=2
        )
        assert any(r.dropped > 0 for r in batched)
        for rep, got in zip(reps, batched):
            ref = simulate(
                alg,
                traffic,
                rep.to_config(300, 100, queue_capacity=2),
                backend="reference",
            )
            assert_counts_equal(ref, got)

    def test_batch_order_does_not_matter(self, make_sim_case):
        _, alg, traffic = make_sim_case(3, "RLB", "uniform")
        fwd = simulate_replicas(alg, traffic, MIXED, cycles=250, warmup=80)
        rev = simulate_replicas(alg, traffic, MIXED[::-1], cycles=250, warmup=80)
        assert fwd == rev[::-1]

    def test_batch_emits_span_and_metrics(self, make_sim_case):
        _, alg, traffic = make_sim_case(3, "DOR", "uniform")
        tracer = obs.get_tracer()
        mark = tracer.mark()
        simulate_replicas(alg, traffic, MIXED[:4], cycles=200, warmup=60)
        events = tracer.events_since(mark)
        (batch,) = [
            e for e in events if e["ev"] == "span" and e["name"] == "sim.batch"
        ]
        assert batch["attrs"]["replicas"] == 4
        assert batch["attrs"]["backend"] == "vectorized"
        runs = [
            e for e in events if e["ev"] == "span" and e["name"] == "sim.run"
        ]
        assert len(runs) == 4

    def test_single_vectorized_run_span_contract(self, make_sim_case):
        # ``simulate(backend="vectorized")`` is a one-replica batch: one
        # ``sim.batch`` and one ``sim.run``, whose attributes are the
        # reference ``sim.run`` schema plus ``backend`` (one builder).
        _, alg, traffic = make_sim_case(3, "DOR", "uniform")
        config = SimulationConfig(
            cycles=200, warmup=60, injection_rate=0.3, seed=4
        )
        tracer = obs.get_tracer()

        def spans(backend):
            mark = tracer.mark()
            simulate(alg, traffic, config, backend=backend)
            events = tracer.events_since(mark)
            return {
                name: [
                    e for e in events
                    if e["ev"] == "span" and e["name"] == name
                ]
                for name in ("sim.batch", "sim.run")
            }

        vec = spans("vectorized")
        (batch,) = vec["sim.batch"]
        assert batch["attrs"]["replicas"] == 1
        (vec_run,) = vec["sim.run"]
        assert vec_run["attrs"]["backend"] == "vectorized"
        ref = spans("reference")
        assert ref["sim.batch"] == []
        (ref_run,) = ref["sim.run"]
        assert "mean_latency" in ref_run["attrs"]
        assert set(vec_run["attrs"]) == set(ref_run["attrs"]) | {"backend"}


class TestPreDrawnStreams:
    """Each replica reads its own pre-drawn uniform row through a cursor
    and refills it from its generator when fewer than one cycle's worst
    case (3n draws) remain."""

    def test_split_draws_equal_one_block(self):
        # The refill contract: drawing a, then b uniforms is the same
        # stream as drawing a + b at once (and a scalar draw is one).
        for seed in (0, 7, 2**31 + 5):
            rng = np.random.default_rng(seed)
            parts = [rng.random(37), rng.random(101), [rng.random()]]
            whole = np.random.default_rng(seed).random(139)
            assert np.array_equal(np.concatenate(parts), whole)

    def test_refills_are_draw_for_draw(self, make_sim_case):
        # Rates from 0.05 to 1.0 consume between n and 3n draws a cycle,
        # so the replicas refill at different cycles; 240 cycles span at
        # least a handful of refills even for the slowest consumer.
        torus, alg, traffic = make_sim_case(3, "IVAL", "uniform")
        cycles, warmup = 240, 60
        n = torus.num_nodes
        width = vectorized._STREAM_CYCLES * 3 * n
        assert cycles * n >= 5 * width
        reps = [
            Replica(0.05, seed=1),
            Replica(0.3, seed=2),
            Replica(0.55, seed=3, fault_schedule=((40, 3), (130, 11))),
            Replica(0.8, seed=4,
                    link_schedule=((25, 5, "down"), (90, 5, "up"))),
            Replica(1.0, seed=5),
        ]
        batched = simulate_replicas(
            alg, traffic, reps, cycles=cycles, warmup=warmup
        )
        for rep, got in zip(reps, batched):
            ref = simulate(
                alg, traffic, rep.to_config(cycles, warmup),
                backend="reference",
            )
            assert_counts_equal(ref, got)
            assert_latency_close(ref, got)
        assert batched[2].lost > 0


    def test_boundary_draw_compiles_off_support_pair(self):
        # A uniform of exactly 0.0 selects destination 0 even where the
        # traffic row gives it no weight (the reference's searchsorted
        # does the same); the decode compiles that pair on the spot.
        torus = Torus(4, 2)
        sim = vectorized.VectorizedSimulator(IVAL(torus), tornado(torus))
        src = 5
        key = src * torus.num_nodes
        assert sim._npaths[key] < 0
        stream = np.full(8, 0.5)
        stream[0] = 0.0
        dsts, gpid, draws = sim._decode_injections(
            stream, np.zeros(1, np.int64), np.zeros(1, np.int64),
            np.array([src]),
        )
        assert dsts.tolist() == [0] and draws.tolist() == [2]
        assert sim._npaths[key] > 1
        first = sim._pair_base[key]
        assert first <= gpid[0] < first + sim._npaths[key]


class TestCompiledCache:
    def test_tables_die_with_their_algorithm(self):
        torus = Torus(3, 2)
        alg = IVAL(torus)
        simulate_replicas(
            alg, uniform(torus.num_nodes), [Replica(0.4, 1)],
            cycles=30, warmup=10,
        )
        assert vectorized.compiled_simulator(alg, uniform(torus.num_nodes))
        ref = weakref.ref(alg)
        del alg
        gc.collect()
        assert ref() is None

    def test_keyed_by_traffic_contents(self):
        torus = Torus(3, 2)
        alg = IVAL(torus)
        uni = uniform(torus.num_nodes)
        sim = vectorized.compiled_simulator(alg, uni)
        assert vectorized.compiled_simulator(alg, uni.copy()) is sim
        other = vectorized.compiled_simulator(alg, tornado(torus))
        assert other is not sim
        assert np.array_equal(other.traffic, tornado(torus))


class TestReplicaProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.integers(min_value=0, max_value=2**31),
                st.booleans(),  # carry a fault kill?
                st.booleans(),  # carry a link-down window?
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_batch_equals_individual_runs(self, make_sim_case, data):
        _, alg, traffic = make_sim_case(3, "DOR", "uniform")
        reps = [
            Replica(
                rate,
                seed,
                fault_schedule=((30, (seed % 5) + 1),) if faulty else (),
                link_schedule=(
                    ((10, seed % 4, "down"), (60, seed % 4, "up"))
                    if flaky
                    else ()
                ),
            )
            for rate, seed, faulty, flaky in data
        ]
        batched = simulate_replicas(alg, traffic, reps, cycles=150, warmup=50)
        for rep, got in zip(reps, batched):
            solo = simulate(
                alg, traffic, rep.to_config(150, 50), backend="vectorized"
            )
            assert_counts_equal(solo, got)
            assert_latency_close(solo, got)
