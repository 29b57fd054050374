"""Fault-tolerant rounds: detection, re-pinning, replay, budgets, accounting.

The recovery subsystem's contract (see :mod:`repro.cluster.recovery`): on a
pool built with a retry budget, a runner death mid-round — crash, socket
error or heartbeat silence — is recovered by deterministically re-pinning
the dead host's sites onto survivors and replaying their dispatch logs, and
the run's results stay bit-identical to a failure-free run.  The default
zero budget fails fast with a :class:`DeadHostError`.  Every fault
here is injected through the deterministic :class:`FaultPlan` harness (or a
direct signal on the runner process), never timing races.
"""

import dataclasses
import os
import random
import signal
import time

import numpy as np
import pytest

from repro import partial_kmedian
from repro.cluster import ClusterBackend, DeadHostError, FaultPlan, RetryPolicy
from repro.cluster.recovery import resolve_retry_policy
from repro.distributed.instance import DistributedInstance
from repro.distributed.network import StarNetwork
from repro.runtime import SiteTask, run_site_tasks
from tests.helpers import assert_counters_equal_ledger, run_site_round

pytestmark = pytest.mark.cluster


def _double(x):
    return 2 * x


def _stateful_task(ctx, scale):
    round_no = ctx.state.get("rounds", 0) + 1
    ctx.state["rounds"] = round_no
    if round_no == 1:
        ctx.state["big"] = np.full(2048, float(ctx.site_id))
    total = float(np.sum(ctx.state["big"])) + ctx.site_id * scale
    ctx.send_to_coordinator("probe", total, words=1)
    return total


def _make_network(n_sites=3):
    from repro.metrics.euclidean import EuclideanMetric

    points = np.arange(8 * n_sites, dtype=float).reshape(-1, 2)
    metric = EuclideanMetric(points)
    shards = [np.arange(i, len(points), n_sites) for i in range(n_sites)]
    instance = DistributedInstance.from_partition(metric, shards, 2, 1, "median")
    return StarNetwork(instance)


def _run_rounds(backend, n_rounds=2, n_sites=3):
    network = _make_network(n_sites)
    for _ in range(n_rounds):
        network.next_round()
        results = run_site_tasks(
            network,
            [SiteTask(i, _stateful_task, args=(2.0,)) for i in range(network.n_sites)],
            backend=backend,
        )
    return network, [r.value for r in results]


class TestRetryPolicy:
    def test_default_backend_is_fail_fast(self):
        """Fail fast is the zero budget, the default of a bare backend."""
        assert ClusterBackend().retry == RetryPolicy(max_retries=0)

    def test_policy_defaults_enable_recovery(self):
        policy = RetryPolicy()
        assert policy.max_retries == 1
        assert policy.heartbeat_timeout is None
        assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
            "max_retries", "heartbeat_timeout",
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(heartbeat_timeout=0.0)

    def test_resolve(self):
        assert resolve_retry_policy(None) == RetryPolicy(max_retries=0)
        policy = RetryPolicy(max_retries=3)
        assert resolve_retry_policy(policy) is policy
        with pytest.raises(TypeError):
            resolve_retry_policy(2)


class TestFaultPlan:
    def test_parse_round_trips_fields(self):
        plan = FaultPlan.parse(
            "kill host=1 round=2 task=3 when=after; delay seconds=0.5 once=true"
        )
        kill, delay = plan.actions
        assert (kill.op, kill.host, kill.round_index, kill.task) == ("kill", 1, 2, 3)
        assert kill.when == "after"
        assert (delay.op, delay.seconds, delay.once) == ("delay", 0.5, True)

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode host=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("kill host=x")
        with pytest.raises(ValueError):
            FaultPlan.parse("kill when=sometimes")
        # Only site frames are dispatched, so there is no kind to filter on.
        with pytest.raises(ValueError, match="unknown fault key 'kind'"):
            FaultPlan.parse("delay kind=site seconds=0.002")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "kill host=0 task=1")
        plan = FaultPlan.from_env()
        assert plan is not None and plan.actions[0].op == "kill"
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert FaultPlan.from_env() is None

    @pytest.mark.parametrize(
        "spec",
        ["kill host=0 round=1 task=2 when=before", "kill host=0 task=2 when=io"],
        ids=["before", "io"],
    )
    def test_control_frames_never_shift_a_trigger_point(self, spec):
        """``clear_resident()`` is control traffic: the kill waits for task 2."""
        plan = FaultPlan.parse(spec)
        backend = ClusterBackend(n_hosts=1, fault_plan=plan)
        try:
            assert run_site_round(backend, abs, [-1]) == [1]
            backend.clear_resident()
            assert not plan.actions[0].fired
            if plan.actions[0].when == "before":
                with pytest.raises(DeadHostError):
                    run_site_round(backend, abs, [-2])
            else:
                assert run_site_round(backend, abs, [-2]) == [2]
            assert plan.actions[0].fired
        finally:
            backend.close()

    def test_delay_plan_never_changes_results(self):
        """A recurring delay fault is pure latency — results stay identical."""
        backend = ClusterBackend(
            n_hosts=2, fault_plan=FaultPlan.parse("delay seconds=0.001")
        )
        try:
            assert run_site_round(backend, _double, [1, 2, 3, 4]) == [2, 4, 6, 8]
        finally:
            backend.close()


class TestTaskRecovery:
    def test_kill_before_dispatch_recovers_the_round(self):
        backend = ClusterBackend(
            n_hosts=2,
            retry=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan.parse("kill host=1 round=1 task=1 when=before"),
        )
        try:
            assert run_site_round(backend, _double, [10, 11, 12, 13]) == [20, 22, 24, 26]
            # The dead host stays dead; later rounds keep working on survivors.
            assert run_site_round(backend, _double, [5, 6]) == [10, 12]
        finally:
            backend.close()

    def test_budget_exhaustion_is_terminal_with_context(self):
        backend = ClusterBackend(
            n_hosts=2,
            retry=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan.parse(
                "kill host=0 round=1 task=1 when=before; "
                "kill host=1 round=1 task=1 when=before"
            ),
        )
        try:
            # Near-simultaneous deaths race: either the budget trips first or
            # the second death leaves no survivor to re-pin onto.  Both are
            # clean terminal errors.
            with pytest.raises(
                DeadHostError,
                match="retry budget exhausted|no surviving cluster hosts",
            ):
                run_site_round(backend, _double, [1, 2, 3, 4])
        finally:
            backend.close()

    def test_fail_fast_error_names_tasks_round_and_epochs(self):
        backend = ClusterBackend(
            n_hosts=1,
            fault_plan=FaultPlan.parse("kill host=0 round=1 task=1 when=before"),
        )
        try:
            with pytest.raises(DeadHostError) as excinfo:
                run_site_round(backend, _double, [1])
        finally:
            backend.close()
        message = str(excinfo.value)
        assert "died mid-round" in message
        assert "in-flight tasks:" in message and "site seq" in message
        assert "last committed state epoch" in message
        assert excinfo.value.host_id == 0


class TestSiteRecovery:
    def test_repin_is_deterministic(self):
        """Dead host 2 of 3: site 2 lands on alive[2 % 2] = host 0, always."""
        for _ in range(2):
            backend = ClusterBackend(
                n_hosts=3,
                retry=RetryPolicy(max_retries=1),
                fault_plan=FaultPlan.parse("kill host=2 round=2 task=1 when=before"),
            )
            try:
                network, values = _run_rounds(backend, n_rounds=2)
            finally:
                backend.close()
            serial_network, serial_values = _run_rounds(None, n_rounds=2)
            assert values == serial_values
            events = network.ledger.wire.summary()["recovery"]
            assert len(events) == 1
            assert events[0]["repin"] == {2: 0}

    def test_replay_bytes_equal_ledger_and_counters(self):
        base = partial_kmedian(np.random.default_rng(1).normal(size=(90, 2)), 3, 9,
                               n_sites=3, seed=11)
        backend = ClusterBackend(
            n_hosts=3,
            retry=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan.parse("kill host=1 round=1 task=1 when=after"),
        )
        try:
            result = partial_kmedian(
                np.random.default_rng(1).normal(size=(90, 2)), 3, 9,
                n_sites=3, seed=11, backend=backend, trace=True,
            )
        finally:
            backend.close()
        assert result.cost == base.cost
        wire = result.ledger.wire
        replay_bytes = sum(
            n for kind, n in wire.bytes_by_kind().items() if kind.startswith("replay")
        )
        assert replay_bytes > 0
        assert result.trace.counter("recovery.replay_bytes") == replay_bytes
        assert result.trace.counter("recovery.host_failures") == 1
        assert result.trace.counter("recovery.replayed_frames") >= 1
        assert result.trace.counter("recovery.digest_checks") >= 1
        events = wire.summary()["recovery"]
        assert len(events) == 1 and events[0]["host"] == 1
        assert_counters_equal_ledger(result)

    def test_fail_fast_site_death_names_its_committed_epoch(self):
        backend = ClusterBackend(
            n_hosts=2,
            fault_plan=FaultPlan.parse("kill host=0 round=2 task=1 when=before"),
        )
        network = _make_network(n_sites=2)
        tasks = [SiteTask(i, _stateful_task, args=(2.0,)) for i in range(2)]
        try:
            network.next_round()
            run_site_tasks(network, tasks, backend=backend)
            committed = network.sites[0].state.epoch
            network.next_round()
            with pytest.raises(DeadHostError) as excinfo:
                run_site_tasks(network, tasks, backend=backend)
        finally:
            backend.close()
        assert committed == 1
        error = excinfo.value
        assert (error.host_id, error.round_index, error.epoch) == (0, 2, committed)

    def test_proxy_fault_after_death_raises_dead_host_error(self):
        backend = ClusterBackend(n_hosts=1)
        try:
            network, _ = _run_rounds(backend, n_rounds=1, n_sites=1)
            backend._hosts[0].process.kill()
            state = network.sites[0].state
            with pytest.raises(DeadHostError) as excinfo:
                state["big"]
            assert excinfo.value.host_id == 0
            # DeadHostError stays a RuntimeError: pre-recovery callers that
            # matched on RuntimeError("cluster host N ...") keep working.
            assert isinstance(excinfo.value, RuntimeError)
        finally:
            backend.close()


class TestHeartbeat:
    def test_stalled_runner_times_out_and_recovers(self):
        backend = ClusterBackend(
            n_hosts=2,
            retry=RetryPolicy(max_retries=1, heartbeat_timeout=1.0),
            fault_plan=FaultPlan.parse("stall host=1 round=1 task=1 when=before"),
        )
        try:
            network, values = _run_rounds(backend, n_rounds=2)
        finally:
            backend.close()
        _, serial_values = _run_rounds(None, n_rounds=2)
        assert values == serial_values
        events = network.ledger.wire.summary()["recovery"]
        assert len(events) == 1
        assert "heartbeat" in events[0]["reason"]

    def test_stalled_runner_fail_fast_raises_heartbeat_error(self):
        backend = ClusterBackend(
            n_hosts=1,
            retry=RetryPolicy(max_retries=0, heartbeat_timeout=1.0),
            fault_plan=FaultPlan.parse("stall host=0 round=1 task=1 when=before"),
        )
        try:
            with pytest.raises(DeadHostError, match="heartbeat"):
                run_site_round(backend, _double, [1])
        finally:
            backend.close()


class TestCloseEscalation:
    def test_close_kills_a_stalled_runner(self):
        backend = ClusterBackend(n_hosts=1)
        try:
            assert run_site_round(backend, _double, [1]) == [2]
            process = backend._hosts[0].process
            process.send_signal(signal.SIGSTOP)
        finally:
            t0 = time.monotonic()
            backend.close()
        # terminate() cannot reach a stopped process; close() must escalate
        # to SIGKILL within its bounded timeout rather than hang.
        assert time.monotonic() - t0 < 15.0
        assert process.poll() is not None


#: Twelve fixed fault schedules drawn from a seeded RNG: op x host x round x
#: dispatch ordinal x trigger point.
SWEEP = random.Random(17).sample(
    [
        f"{op} host={host} round={round_} task={task} when={when}"
        for op in ("kill", "disconnect")
        for host in range(3)
        for round_ in (1, 2)
        for task in (1, 2)
        for when in ("before", "after", "io")
    ],
    12,
)


class TestFaultSweep:
    """Every schedule ends bit-identical to serial or with a DeadHostError."""

    @pytest.mark.parametrize("budget", [0, 1])
    def test_seeded_schedules_end_identical_or_dead(self, budget):
        points = np.random.default_rng(1).normal(size=(120, 2))
        serial = partial_kmedian(points, 3, 9, n_sites=4, seed=11)
        outcomes = []
        for spec in SWEEP:
            plan = FaultPlan.parse(spec)
            backend = ClusterBackend(
                n_hosts=3, retry=RetryPolicy(max_retries=budget), fault_plan=plan
            )
            try:
                result = partial_kmedian(
                    points, 3, 9, n_sites=4, seed=11, backend=backend
                )
            except DeadHostError:
                outcomes.append("dead")
                continue
            finally:
                backend.close()
            np.testing.assert_array_equal(result.centers, serial.centers, err_msg=spec)
            assert result.cost == serial.cost, spec
            assert result.ledger.words_by_kind() == serial.ledger.words_by_kind(), spec
            outcomes.append("recovered" if plan.actions[0].fired else "untouched")
        # The sweep must actually hit hosts: a zero budget fails on some
        # schedule, and a budget of one recovers every single death.
        assert ("dead" in outcomes) == (budget == 0), outcomes
        assert "recovered" in outcomes or budget == 0, outcomes
