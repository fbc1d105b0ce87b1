"""Trace replay: scenario scripts, deterministic traces, chaos harness.

Contracts pinned here:

* **Scenario validation** — JSON documents are checked field by field:
  unknown keys, missing requirements and out-of-range parameters are
  loud ``ValueError``s, not latent misbehavior mid-storm.
* **Determinism** — ``build_trace`` is a pure function of
  ``(scenario, seed)``: the jsonl ``event_log`` is byte-identical
  across calls, and a different seed produces a different log.
* **Trace shape** — zipfian popularity skews toward rank-one models,
  tenant weights steer the mix, fault specs expand to the right event
  edges at the right timestamps.
* **Harness** — a scripted storm (kill + hang + flap under load)
  executed against a live fleet completes with every request
  accounted: ``lost == 0`` and the outcome census sums to the request
  count.  The committed ``benchmarks/scenarios/storm.json`` parses and
  expands deterministically.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro import MGDiffNet, PoissonProblem2D
from repro.serve import (
    ArrivalSpec, FaultSpec, FleetConfig, PopularitySpec, ReplayHarness,
    ResilienceConfig, RetryConfig, Scenario, ServerConfig, ShardedFleet,
    TenantSpec, VirtualClock, build_trace, event_log, install_resilience,
    load_scenario,
)

STORM_JSON = (Path(__file__).resolve().parents[2]
              / "benchmarks" / "scenarios" / "storm.json")


def _scenario(**kw) -> Scenario:
    kw.setdefault("name", "unit")
    kw.setdefault("seed", 7)
    kw.setdefault("duration_s", 2.0)
    kw.setdefault("models", ("m0", "m1"))
    return Scenario(**kw)


class TestScenarioValidation:
    def test_arrival_spec_rejects_bad_parameters(self):
        for bad in (dict(process="poissonish"), dict(rate=0.0),
                    dict(sigma=0.0), dict(diurnal_amplitude=1.0),
                    dict(diurnal_amplitude=-0.1),
                    dict(diurnal_amplitude=0.5, diurnal_period_s=0.0)):
            with pytest.raises(ValueError):
                ArrivalSpec(**bad)

    def test_popularity_spec_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PopularitySpec(kind="pareto")
        with pytest.raises(ValueError):
            PopularitySpec(kind="zipf", s=0.0)

    def test_tenant_spec_rejects_bad_parameters(self):
        for bad in (dict(name=""), dict(name="t", weight=0.0),
                    dict(name="t", deadline_s=0.0)):
            with pytest.raises(ValueError):
                TenantSpec(**bad)

    def test_fault_spec_rejects_bad_parameters(self):
        for bad in (dict(t=-1.0, op="kill", shard=0),
                    dict(t=0.0, op="melt", shard=0),
                    dict(t=0.0, op="kill", shard=-1),
                    dict(t=0.0, op="kill", shard=0, duration_s=0.0),
                    dict(t=0.0, op="flap", shard=0, period_s=0.0),
                    dict(t=0.0, op="flap", shard=0, count=0)):
            with pytest.raises(ValueError):
                FaultSpec(**bad)

    def test_scenario_rejects_bad_parameters(self):
        for bad in (dict(name=""), dict(duration_s=0.0),
                    dict(models=()), dict(tenants=())):
            with pytest.raises(ValueError):
                _scenario(**bad)

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        base = {"name": "s", "seed": 1, "duration_s": 1.0, "models": ["m"]}
        with pytest.raises(ValueError, match="unknown"):
            Scenario.from_dict({**base, "surprise": 1})
        for key in base:
            with pytest.raises(ValueError, match="missing"):
                Scenario.from_dict({k: v for k, v in base.items()
                                    if k != key})
        with pytest.raises(ValueError, match="JSON object"):
            Scenario.from_dict([1, 2])

    def test_load_scenario_round_trips(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "s", "seed": 3, "duration_s": 1.0, "models": ["m"],
            "faults": [{"t": 0.5, "op": "kill", "shard": 0}]}))
        scenario = load_scenario(path)
        assert scenario.name == "s"
        assert scenario.faults[0].op == "kill"
        assert scenario.tenants == (TenantSpec("default"),)

    def test_load_scenario_rejects_torn_json(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"name": "s", "seed"')
        with pytest.raises(ValueError, match="not valid JSON"):
            load_scenario(path)


class TestTraceDeterminism:
    def test_same_seed_is_byte_identical(self):
        scenario = _scenario(
            arrivals=ArrivalSpec(rate=100.0, diurnal_period_s=1.0,
                                 diurnal_amplitude=0.3),
            tenants=(TenantSpec("a", weight=2.0),
                     TenantSpec("b", priority=5, deadline_s=1.0)),
            faults=(FaultSpec(t=0.5, op="flap", shard=0, count=2),))
        a = event_log(build_trace(scenario))
        b = event_log(build_trace(scenario))
        assert a == b
        assert len(a.splitlines()) > 50

    def test_different_seed_differs(self):
        assert (event_log(build_trace(_scenario(seed=1)))
                != event_log(build_trace(_scenario(seed=2))))

    def test_trace_is_sorted_with_dense_seq(self):
        scenario = _scenario(faults=(
            FaultSpec(t=0.5, op="hang", shard=0, duration_s=0.5),))
        trace = build_trace(scenario)
        assert [ev.seq for ev in trace] == list(range(len(trace)))
        assert all(a.t <= b.t for a, b in zip(trace, trace[1:]))
        assert all(ev.t < scenario.duration_s for ev in trace
                   if ev.kind == "request")

    def test_log_round_trips_through_json(self):
        trace = build_trace(_scenario())
        lines = event_log(trace).splitlines()
        assert len(lines) == len(trace)
        first = json.loads(lines[0])
        assert first["kind"] in ("request", "kill", "restore",
                                 "hang", "release")
        assert "t" in first and "seq" in first


class TestTraceShape:
    def test_zipf_popularity_skews_to_rank_one(self):
        scenario = _scenario(
            duration_s=10.0, models=("m0", "m1", "m2"),
            arrivals=ArrivalSpec(rate=100.0),
            popularity=PopularitySpec(kind="zipf", s=1.2))
        counts = Counter(ev.model for ev in build_trace(scenario)
                         if ev.kind == "request")
        assert counts["m0"] > counts["m1"] > counts["m2"]

    def test_uniform_popularity_is_flat(self):
        scenario = _scenario(
            duration_s=10.0, models=("m0", "m1"),
            arrivals=ArrivalSpec(rate=100.0),
            popularity=PopularitySpec(kind="uniform"))
        counts = Counter(ev.model for ev in build_trace(scenario)
                         if ev.kind == "request")
        total = sum(counts.values())
        assert abs(counts["m0"] - counts["m1"]) < 0.1 * total

    def test_tenant_weights_steer_the_mix(self):
        scenario = _scenario(
            duration_s=10.0, arrivals=ArrivalSpec(rate=100.0),
            tenants=(TenantSpec("heavy", weight=4.0, priority=1),
                     TenantSpec("light", weight=1.0, deadline_s=2.0)))
        requests = [ev for ev in build_trace(scenario)
                    if ev.kind == "request"]
        counts = Counter(ev.tenant for ev in requests)
        assert counts["heavy"] > 2 * counts["light"]
        by_tenant = {ev.tenant: ev for ev in requests}
        assert by_tenant["heavy"].priority == 1
        assert by_tenant["light"].deadline_s == 2.0

    def test_fault_expansion_edges(self):
        scenario = _scenario(
            arrivals=ArrivalSpec(rate=1.0),
            faults=(FaultSpec(t=0.2, op="kill", shard=2, duration_s=0.5),
                    FaultSpec(t=0.4, op="hang", shard=0, duration_s=0.3),
                    FaultSpec(t=0.1, op="flap", shard=1, period_s=0.2,
                              count=2)))
        edges = [(ev.kind, ev.shard, ev.t)
                 for ev in build_trace(scenario) if ev.kind != "request"]
        assert ("kill", 2, 0.2) in edges
        assert ("restore", 2, 0.7) in edges
        assert ("hang", 0, 0.4) in edges
        assert ("release", 0, pytest.approx(0.7)) in edges
        flaps = [e for e in edges if e[1] == 1]
        assert [(k, t) for k, _, t in flaps] == [
            ("kill", 0.1), ("restore", pytest.approx(0.2)),
            ("kill", pytest.approx(0.3)), ("restore", pytest.approx(0.4))]

    def test_diurnal_envelope_changes_the_timeline(self):
        flat = _scenario(arrivals=ArrivalSpec(rate=50.0))
        wavy = _scenario(arrivals=ArrivalSpec(
            rate=50.0, diurnal_period_s=1.0, diurnal_amplitude=0.8))
        assert event_log(build_trace(flat)) != event_log(build_trace(wavy))


class TestVirtualClock:
    def test_advance_and_call(self):
        clock = VirtualClock(start=5.0)
        assert clock() == 5.0
        assert clock.advance(1.5) == 6.5
        assert clock.now == 6.5
        clock.sleep(0.5)
        assert clock() == 7.0

    def test_time_does_not_flow_backwards(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)


@pytest.fixture(scope="module")
def served():
    problem = PoissonProblem2D(16)
    model = MGDiffNet(ndim=2, base_filters=4, depth=1, rng=1)
    return model, problem


def _fleet(shards=3, **fleet_kw) -> ShardedFleet:
    return ShardedFleet(FleetConfig(
        shards=shards, replicas=2,
        server=ServerConfig(max_batch=4, max_wait_ms=0.0, workers=1,
                            cache_bytes=0), **fleet_kw))


class TestReplayHarness:
    def test_rejects_unregistered_models(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m0", model, problem)
        with pytest.raises(ValueError, match="not registered"):
            ReplayHarness(fleet, _scenario(models=("m0", "ghost")))

    def test_rejects_bad_time_scale(self, served):
        model, problem = served
        fleet = _fleet()
        fleet.register_model("m0", model, problem)
        fleet.register_model("m1", model, problem)
        with pytest.raises(ValueError, match="time_scale"):
            ReplayHarness(fleet, _scenario(), time_scale=0.0)

    def test_storm_completes_with_nothing_lost(self, served):
        """Kill + hang + flap under zipfian load: the acceptance storm
        at unit-test scale.  Every request accounted, lost == 0, and
        the executed log equals the scenario's expansion."""
        model, problem = served
        scenario = _scenario(
            name="mini-storm", seed=11, duration_s=1.6,
            models=("m0", "m1"),
            arrivals=ArrivalSpec(rate=40.0),
            tenants=(TenantSpec("interactive", weight=1.0, priority=5),
                     TenantSpec("bulk", weight=2.0)),
            faults=(FaultSpec(t=0.2, op="flap", shard=1, period_s=0.3,
                              count=2),
                    FaultSpec(t=0.5, op="kill", shard=2, duration_s=0.6),
                    FaultSpec(t=0.8, op="hang", shard=0, duration_s=0.4)))
        fleet = _fleet(shards=3, shard_timeout_s=0.2)
        fleet.register_model("m0", model, problem)
        fleet.register_model("m1", model, problem)
        install_resilience(fleet, ResilienceConfig(retry=RetryConfig(
            max_attempts=4, base_backoff_s=0.002, max_backoff_s=0.02)))
        with fleet:
            harness = ReplayHarness(fleet, scenario)
            report = harness.run()
        assert report.scenario == "mini-storm"
        assert report.requests > 0
        assert sum(report.outcomes.values()) == report.requests
        assert report.lost == 0
        assert report.served == report.requests     # everything healed
        assert report.log == event_log(build_trace(
            scenario, omega_dim=int(problem.field.m)))

    def test_same_seed_replays_identical_logs(self, served):
        model, problem = served
        scenario = _scenario(duration_s=0.5,
                             arrivals=ArrivalSpec(rate=30.0))

        def run_once() -> str:
            fleet = _fleet(shards=2)
            fleet.register_model("m0", model, problem)
            fleet.register_model("m1", model, problem)
            with fleet:
                return ReplayHarness(fleet, scenario).run().log

        assert run_once() == run_once()

    def test_chaos_hooks_are_restored_after_the_run(self, served):
        model, problem = served
        scenario = _scenario(
            duration_s=0.4, models=("m0",),
            arrivals=ArrivalSpec(rate=20.0),
            faults=(FaultSpec(t=0.1, op="kill", shard=0),))  # never restored
        fleet = _fleet(shards=2)
        fleet.register_model("m0", model, problem)
        install_resilience(fleet, ResilienceConfig(retry=RetryConfig(
            max_attempts=4, base_backoff_s=0.002, max_backoff_s=0.02)))
        originals = [s.server.submit for s in fleet.shards]
        with fleet:
            report = ReplayHarness(fleet, scenario).run()
            assert report.lost == 0
            # The finally-block put every submit hook back even though
            # the scenario never scheduled a restore.
            assert [s.server.submit for s in fleet.shards] == originals


class TestCommittedStorm:
    def test_storm_json_parses_and_expands_deterministically(self):
        scenario = load_scenario(STORM_JSON)
        assert scenario.name == "storm"
        assert scenario.models == ("m0", "m1", "m2")
        assert {f.op for f in scenario.faults} == {"kill", "hang", "flap"}
        assert scenario.arrivals.diurnal_amplitude > 0
        assert scenario.popularity.kind == "zipf"
        names = {t.name for t in scenario.tenants}
        assert names == {"interactive", "bulk"}
        a = event_log(build_trace(scenario, omega_dim=4))
        b = event_log(build_trace(scenario, omega_dim=4))
        assert a == b
        assert len(a.splitlines()) > 100


# --------------------------------------------------------------------- #
# Chaos hooks: re-entrant faults + abort hygiene
# --------------------------------------------------------------------- #
import time

import numpy as np

from repro.serve.replay import ShardChaos


class TestShardChaosHygiene:
    """The fault actuators must stay reversible under re-entry and
    mid-run aborts.

    Regression pinned: a second ``hang`` before the first released used
    to swap in a fresh Event and *orphan* the previous one — threads
    parked on the superseded gate were unreachable by ``release``/
    ``restore`` and hung forever (a leaked shard after the harness's
    ``finally``).
    """

    def _one_shard_fleet(self, served) -> ShardedFleet:
        model, problem = served
        fleet = ShardedFleet(FleetConfig(
            shards=1, replicas=1,
            server=ServerConfig(max_batch=4, max_wait_ms=0.0, workers=1,
                                cache_bytes=0, tile=8)))
        fleet.register_model("m0", model, problem)
        return fleet

    def test_second_hang_frees_the_superseded_gates_waiters(self, served):
        fleet = self._one_shard_fleet(served)
        shard = fleet.shards[0]
        chaos = ShardChaos(shard)
        with fleet:
            chaos.hang()
            future = fleet.submit("m0", np.zeros(4))
            time.sleep(0.1)         # the worker parks on the first gate
            assert not future.done()
            # Re-entrant hang: the new gate takes over, the superseded
            # one opens — its waiter proceeds instead of hanging on an
            # Event nothing can reach anymore.
            chaos.hang()
            assert future.result(timeout=30) is not None
            chaos.restore()
            fleet.predict("m0", np.full(4, 0.5), timeout=30)
        assert fleet.stats.lost == 0

    def test_abort_mid_hang_restores_hooks_and_shard(self, served):
        """A trace that dies while a hang is live must not leak the
        hang: the harness's ``finally`` restores every hook, and the
        shard serves again immediately."""
        model, problem = served
        fleet = ShardedFleet(FleetConfig(
            shards=2, replicas=2,
            server=ServerConfig(max_batch=4, max_wait_ms=0.0, workers=1,
                                cache_bytes=0, tile=8)))
        fleet.register_model("m0", model, problem)
        scenario = _scenario(
            duration_s=0.4, models=("m0",),
            arrivals=ArrivalSpec(rate=50.0),
            faults=(FaultSpec(t=0.0, op="hang", shard=0, duration_s=5.0),))
        originals = [(s.server.submit, s.server._forward)
                     for s in fleet.shards]
        with fleet:
            harness = ReplayHarness(fleet, scenario)

            def client_bug(*args, **kwargs):
                raise RuntimeError("client-side abort mid-trace")

            fleet.submit = client_bug     # first paced request aborts...
            try:
                with pytest.raises(RuntimeError, match="mid-trace"):
                    harness.run()         # ...while the hang is live
            finally:
                del fleet.submit
            assert [(s.server.submit, s.server._forward)
                    for s in fleet.shards] == originals
            # The hung shard did not leak: serving resumes at once.
            fleet.predict("m0", np.full(4, 0.25), timeout=30)
        assert fleet.stats.lost == 0
