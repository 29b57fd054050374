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
import sys
import threading
import time

import numpy as np
import pytest

from repro import partial_kmedian
from repro.cluster import ClusterBackend, DeadHostError, FaultPlan, RetryPolicy
from repro.cluster.recovery import Recovery, resolve_retry_policy
from repro.cluster.wire import RecoveryEvent, WireLedger
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


class TestRecoveryDecisions:
    """Budget, re-pin rule and event book, driven without a pool."""

    def test_budget_classifies_deaths_in_order(self):
        recovery = Recovery(RetryPolicy(max_retries=1))
        assert recovery.recovers(0, "first") and recovery.exhausted is None
        assert not recovery.recovers(1, "second")
        assert recovery.exhausted.startswith("second; retry budget exhausted")
        assert recovery.terminal("full") == (
            "full; retry budget exhausted (1 host failure(s) already recovered)"
        )
        fail_fast = Recovery(RetryPolicy(max_retries=0))
        assert not fail_fast.recovers(0, "only") and fail_fast.exhausted == "only"

    def test_repin_rule(self):
        recovery = Recovery(RetryPolicy(max_retries=1))
        assert recovery.place(2, [None, None, None]) == 2
        assert recovery.place(2, [None, None, "dead"]) == 0  # alive[2 % 2]
        assert recovery.place(1, [None, "dead", None]) == 2  # alive[1 % 2]
        with pytest.raises(DeadHostError, match="no surviving cluster hosts"):
            recovery.place(0, ["dead", "dead"])
        # A zero budget never routes around a dead host.
        assert Recovery(RetryPolicy(max_retries=0)).place(1, [None, "dead"]) == 1

    def test_event_book_keeps_one_event_per_death_and_ledger(self):
        from repro.obs.trace import Tracer

        recovery = Recovery(RetryPolicy(max_retries=2))
        a, b, tracer = WireLedger(), WireLedger(), Tracer()
        assert recovery.recovers(1, "r1") and recovery.recovers(0, "r0")
        recovery.touch(1, "r1", a, tracer, 1)
        recovery.touch(1, "r1", b, None, 1)
        recovery.touch(1, "r1", a, tracer, 2, site_id=1, target=0, frames=2)
        recovery.touch(1, "r1", a, tracer, 1, site_id=3, target=0, frames=1)
        recovery.touch(1, "r1", b, None, 1, site_id=1, target=0, frames=1)
        recovery.touch(0, "r0", a, tracer, 2, site_id=1, target=2, frames=3)
        assert a.recovery == [
            RecoveryEvent(1, 2, "r1", {1: 0, 3: 0}, 3),
            RecoveryEvent(0, 2, "r0", {1: 2}, 3),
        ]
        assert b.recovery == [RecoveryEvent(1, 1, "r1", {1: 0}, 1)]
        assert tracer.counter("recovery.host_failures") == 2
        assert tracer.counter("recovery.repinned_sites") == 3
        assert tracer.counter("recovery.replayed_frames") == 6

    def test_event_book_keeps_one_event_under_concurrent_touches(self):
        recovery = Recovery(RetryPolicy(max_retries=1))
        assert recovery.recovers(1, "r")
        ledgers = [WireLedger() for _ in range(3)]

        def touch_all(site):
            for ledger in ledgers:
                for _ in range(50):
                    recovery.touch(1, "r", ledger, None, 1)
                recovery.touch(1, "r", ledger, None, 2, site_id=site, target=0, frames=1)

        threads = [threading.Thread(target=touch_all, args=(s,)) for s in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for ledger in ledgers:
            [event] = ledger.recovery
            assert event.repin == {s: 0 for s in range(8)}
            assert (event.round_index, event.replayed_frames) == (2, 8)


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

    def test_fail_fast_error_names_the_dispatch_when_the_reader_sees_the_death_first(self):
        """The kill lands before the frame registers; here the event loop
        reads the EOF and drains an empty in-flight map first, so the
        dispatch is refused at registration — and its error still names it."""
        backend = ClusterBackend(
            n_hosts=1,
            fault_plan=FaultPlan.parse("kill host=0 round=1 task=1 when=before"),
        )
        apply_faults = backend._apply_faults

        def kill_then_wait_for_the_reader(host, actions):
            apply_faults(host, actions)
            deadline = time.monotonic() + 30.0
            while actions and host.dead is None and time.monotonic() < deadline:
                time.sleep(0.01)

        backend._apply_faults = kill_then_wait_for_the_reader
        try:
            with pytest.raises(DeadHostError) as excinfo:
                run_site_round(backend, _double, [1])
        finally:
            backend.close()
        message = str(excinfo.value)
        (task_id,) = excinfo.value.task_ids
        kind, seq = task_id.split("#")
        assert kind == "site"
        assert "died mid-round" in message
        assert "in-flight tasks: [none]" in message  # the reader drained first
        assert f"refused dispatch: site seq {seq} (round 1)" in message
        assert "last committed state epoch" in message
        assert excinfo.value.host_id == 0
        assert excinfo.value.round_index == 1


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

    def test_fail_fast_dispatch_to_a_dead_holder_names_the_dispatch(self):
        """Host 0 dies idle between rounds on a zero budget.

        Round 2's dispatch of site 0 needs the state host 0 held, and no
        replay may start, so the dispatch is refused before any frame of it
        exists.  The death's in-flight list was empty; the error still names
        the refused dispatch's round and its site task, not round 1's.
        """
        backend = ClusterBackend(n_hosts=2)
        network = _make_network(n_sites=2)
        tasks = [SiteTask(i, _stateful_task, args=(2.0,)) for i in range(2)]
        try:
            network.next_round()
            run_site_tasks(network, tasks, backend=backend)
            backend._hosts[0].process.kill()
            deadline = time.monotonic() + 30.0
            while 0 not in backend.dead_hosts():
                assert time.monotonic() < deadline, "host death never observed"
                time.sleep(0.02)
            network.next_round()
            with pytest.raises(DeadHostError) as excinfo:
                run_site_tasks(network, tasks, backend=backend)
        finally:
            backend.close()
        error = excinfo.value
        (task_id,) = error.task_ids
        kind, seq = task_id.split("#")
        assert kind == "site"
        assert (error.host_id, error.round_index, error.epoch) == (0, 2, 1)
        message = str(error)
        assert "in-flight tasks: [none]" in message
        assert f"refused dispatch: site seq {seq} (round 2)" in message

    def test_death_between_rounds_replays_held_state(self):
        """A site still holds the state's handle when its idle host dies.

        Host 1 dies between two rounds.  The death interrupts nothing yet,
        so no ledger shows it; round 2's dispatch needs the state, replays
        the site's log onto host 0 (the handle moves to the replayed epoch)
        and continues from the same state, with one recovery event.
        """
        backend = ClusterBackend(n_hosts=2, retry=RetryPolicy(max_retries=1))
        try:
            network = _make_network()
            tasks = [SiteTask(i, _stateful_task, args=(2.0,)) for i in range(3)]
            network.next_round()
            run_site_tasks(network, tasks, backend=backend)
            backend._hosts[1].process.kill()
            deadline = time.monotonic() + 30.0
            while 1 not in backend.dead_hosts():
                assert time.monotonic() < deadline, "host death never observed"
                time.sleep(0.02)
            assert network.ledger.wire.summary()["recovery"] == []
            network.next_round()
            values = [r.value for r in run_site_tasks(network, tasks, backend=backend)]
        finally:
            backend.close()
        _, serial_values = _run_rounds(None, n_rounds=2)
        assert values == serial_values
        events = network.ledger.wire.summary()["recovery"]
        assert len(events) == 1
        assert events[0]["host"] == 1 and events[0]["repin"] == {1: 0}

    def test_death_after_last_reply_changes_no_ledger(self):
        """A death that interrupts nothing is reported only by dead_hosts().

        Host 1 dies as the loop handles its last reply of the run.  The
        returned ledger never changes, and the next run on the pool, which
        routes around the host from its first dispatch, has no event.
        """
        points = np.random.default_rng(1).normal(size=(90, 2))
        serial = partial_kmedian(points, 3, 9, n_sites=3, seed=11)
        backend = ClusterBackend(
            n_hosts=3,
            retry=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan.parse("kill host=1 when=io task=2"),
        )
        try:
            first = partial_kmedian(points, 3, 9, n_sites=3, seed=11, backend=backend)
            wire = first.ledger.wire
            snapshot = (len(wire.records), list(wire.recovery))
            deadline = time.monotonic() + 30.0
            while 1 not in backend.dead_hosts():
                assert time.monotonic() < deadline, "host death never observed"
                time.sleep(0.02)
            second = partial_kmedian(points, 3, 9, n_sites=3, seed=11, backend=backend)
            dead = list(backend.dead_hosts())
        finally:
            backend.close()  # joins the recovery threads
        assert (len(wire.records), wire.recovery) == snapshot
        assert snapshot[1] == []
        assert second.ledger.wire.recovery == []
        for result in (first, second):
            np.testing.assert_array_equal(result.centers, serial.centers)
            assert result.cost == serial.cost
        assert dead == [1]

    def test_recovered_pool_keeps_no_site_log_after_each_run(self):
        """Runs after a death re-pin host 1's site; each run's end drops its logs.

        Host 1 dies as the loop handles its last reply of the first run, so
        the later runs place site 1 on host 2.  Every run equals serial,
        and the pool keeps no site log once a run returns.
        """
        points = np.random.default_rng(1).normal(size=(90, 2))
        serial = partial_kmedian(points, 3, 9, n_sites=3, seed=11)
        backend = ClusterBackend(
            n_hosts=3,
            retry=RetryPolicy(max_retries=1),
            fault_plan=FaultPlan.parse("kill host=1 when=io task=2"),
        )
        logs = []
        try:
            for _ in range(4):
                result = partial_kmedian(points, 3, 9, n_sites=3, seed=11, backend=backend)
                np.testing.assert_array_equal(result.centers, serial.centers)
                assert result.cost == serial.cost
                logs.append(len(backend._site_logs))
        finally:
            backend.close()
        assert logs == [0, 0, 0, 0]


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


#: Stall (heartbeat-timeout) and two-fault schedules.  Stalls fire only
#: before a dispatch: a runner stalled while idle after its last reply is
#: never detected, and close() then spends seconds escalating to SIGKILL.
#: The third kills host 2 after its only reply and disconnects host 0 while
#: site 2's state is replayed there at its round-2 dispatch; the fifth
#: disconnects host 2 while it replays host 1's in-flight site.
STALL_AND_TWO_FAULT_SWEEP = [
    "stall host=1 round=1 task=1 when=before",
    "kill host=0 round=1 task=1 when=after; kill host=1 round=2 task=1 when=before",
    "kill host=2 round=1 task=1 when=io; disconnect host=0 round=2 task=1 when=after",
    "stall host=0 round=1 task=2 when=before; kill host=1 round=2 task=1 when=after",
    "kill host=1 round=1 task=1 when=before; disconnect host=2 round=1 task=1 when=after",
    "disconnect host=0 round=2 task=2 when=before; kill host=2 round=2 task=1 when=before",
]


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

    @pytest.mark.parametrize("budget", [1, 2])
    def test_stall_and_two_fault_schedules_end_identical_or_dead(self, budget):
        points = np.random.default_rng(1).normal(size=(120, 2))
        serial = partial_kmedian(points, 3, 9, n_sites=4, seed=11)
        outcomes = []
        for spec in STALL_AND_TWO_FAULT_SWEEP:
            backend = ClusterBackend(
                n_hosts=3,
                retry=RetryPolicy(max_retries=budget, heartbeat_timeout=1.0),
                fault_plan=FaultPlan.parse(spec),
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
            # Each death's event counts exactly the replay frames it caused.
            wire = result.ledger.wire
            replays = sum(1 for rec in wire.records if rec.kind == "replay_dispatch")
            assert sum(e.replayed_frames for e in wire.recovery) == replays, spec
            outcomes.append(len(wire.recovery))
        # A lone stall is one recovered death.  Budget 2 recovers every
        # two-fault schedule (both deaths of the second and third always
        # interrupt the run); budget 1 fails at least one.
        assert outcomes[0] == 1, outcomes
        if budget == 2:
            assert "dead" not in outcomes and outcomes[1:3] == [2, 2], outcomes
        else:
            assert "dead" in outcomes[1:], outcomes
