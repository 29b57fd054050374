"""Measurement passes: the closed loop, its correctness check, and the trace.

:func:`measure` is the untraced pass behind every end-to-end metric.
:func:`trace` is the separate traced pass behind every per-layer metric:
the compute layers run in-process on ``backend="serial"`` under a
:class:`~layers.LayerTimer` (on the cluster backend they run inside runner
subprocesses, out of reach), then the same closed loop runs on the pool
with coordinator-side wrappers on :mod:`repro.cluster` and ``trace=True``.
"""

from __future__ import annotations

import queue
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from layers import LayerTimer, Target
from repro.cluster import ClusterService
from workloads import IN_FLIGHT, N_HOSTS, Workload

#: A job that has not finished after this long counts as failed.
JOB_TIMEOUT_S = 60.0
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Largest allowed gap between the serial pass's layer rows (plus ``other``)
#: and its job wall time, as a share of the wall time.
LAYER_SUM_TOLERANCE = 1e-3

COMPUTE_TARGETS = (
    Target("sequential.trim_outliers", "repro.sequential.assignment:trim_outliers"),
    Target("sequential.assign_with_outliers",
           "repro.sequential.assignment:assign_with_outliers"),
    Target("sequential.local_search_partial",
           "repro.sequential.local_search:local_search_partial"),
    Target("sequential.gonzalez", "repro.sequential.gonzalez:gonzalez"),
    Target("sequential.kcenter_with_outliers",
           "repro.sequential.kcenter_outliers:kcenter_with_outliers"),
    Target("metrics.build_cost_matrix", "repro.metrics.cost_matrix:build_cost_matrix"),
    Target("metrics.pairwise", "repro.metrics.base:MetricSpace.pairwise"),
    Target("metrics.plan_execute", "repro.metrics.plan:ReductionPlan.execute"),
    Target("metrics.shard_scratch", "repro.metrics.blocked:shard_scratch", context=True),
    Target("core.precluster_site", "repro.core.preclustering:precluster_site"),
    Target("core.precluster_site_center",
           "repro.core.preclustering:precluster_site_center"),
    Target("core.allocate_outlier_budget",
           "repro.core.allocation:allocate_outlier_budget"),
    Target("core.combine_preclusters", "repro.core.combine:combine_preclusters"),
    Target("runtime.run_site_tasks", "repro.runtime.tasks:run_site_tasks"),
)

CLUSTER_TARGETS = (
    Target("cluster.encode_frame", "repro.cluster.framing:encode_frame"),
    Target("cluster.decode_body", "repro.cluster.framing:decode_body"),
    Target("cluster.payload_digest", "repro.cluster.payloads:payload_digest"),
)


# -- correctness ------------------------------------------------------------

@dataclass
class Reference:
    """What a job must return: the in-process serial run of the same job."""

    centers: np.ndarray
    cost: float
    words: float
    words_by_kind: Dict[str, float]


def reference(workload: Workload, points: np.ndarray, variant: int) -> Reference:
    result = workload.run(points, variant, "serial")
    return Reference(result.centers, result.cost, result.ledger.total_words(),
                     result.ledger.words_by_kind())


def mismatch(result, ref: Reference) -> Optional[str]:
    """Why ``result`` differs from the serial reference, or ``None``."""
    if not np.array_equal(result.centers, ref.centers):
        return "centers"
    if result.cost != ref.cost:
        return f"cost {result.cost!r} != {ref.cost!r}"
    if result.ledger.total_words() != ref.words:
        return "total_words"
    if result.ledger.words_by_kind() != ref.words_by_kind:
        return "words_by_kind"
    return None


def _warm_up_failures(warm, refs: List[Reference]) -> List[str]:
    why = mismatch(warm, refs[0])
    return [f"warm-up: {why}"] if why else []


# -- the closed loop --------------------------------------------------------

@dataclass
class JobRecord:
    variant: int
    submitted: float
    started: float
    finished: float
    returned: float
    #: What the pass keeps of the job's result (results are not retained,
    #: so the benchmark's own memory stays flat however many jobs run).
    values: Dict[str, float]

    @property
    def latency_s(self) -> float:
        return self.returned - self.submitted


@dataclass
class LoopOutcome:
    records: List[JobRecord] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0


def _timed_job(backend, workload: Workload, points, variant: int, trace: bool,
               done: "queue.Queue[int]", ticket: int):
    started = time.perf_counter()
    try:
        result = workload.run(points, variant, backend, trace)
        return started, time.perf_counter(), result
    finally:
        done.put(ticket)


def closed_loop(service: ClusterService, workload: Workload, inputs, refs,
                seconds: float, summarize: Callable[[object], Dict[str, float]],
                trace: bool = False) -> LoopOutcome:
    """Keep ``IN_FLIGHT`` jobs queued until ``seconds`` pass, then drain.

    Variants are submitted round-robin.  Every returned job is checked
    against its serial reference; a raise, a timeout or a mismatch counts
    as a failure of an attempted job.  ``summarize`` picks what a record
    keeps of each correct result.
    """
    out = LoopOutcome()
    done: "queue.Queue[int]" = queue.Queue()
    inflight: Dict[int, Tuple[object, int, float]] = {}

    def submit() -> None:
        ticket = out.attempted
        variant = ticket % len(inputs)
        out.attempted += 1
        submitted = time.perf_counter()
        job = service.submit(_timed_job, workload, inputs[variant], variant,
                             trace, done, ticket, label=f"{workload.name}-{ticket}")
        inflight[ticket] = (job, variant, submitted)

    begin = time.perf_counter()
    deadline = begin + seconds
    last = begin
    for _ in range(IN_FLIGHT):
        submit()
    while inflight:
        try:
            ticket = done.get(timeout=JOB_TIMEOUT_S)
        except queue.Empty:
            out.failures.extend(f"job {t}: timed out" for t in inflight)
            break
        job, variant, submitted = inflight.pop(ticket)
        try:
            started, finished, result = job.result(timeout=JOB_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - any raise is a failed job
            out.failures.append(f"job {ticket}: {type(exc).__name__}: {exc}")
        else:
            last = time.perf_counter()
            why = mismatch(result, refs[variant])
            if why is None:
                out.records.append(JobRecord(variant, submitted, started, finished,
                                             last, summarize(result)))
            else:
                out.failures.append(f"job {ticket} (variant {variant}): {why}")
        if time.perf_counter() < deadline:
            submit()
    out.elapsed_s = last - begin
    return out


# -- set-up -----------------------------------------------------------------

def set_up(workload: Workload, seed: int) -> Tuple[float, list, ClusterService, object]:
    """Generate inputs, start the service, spawn runners, run one warm-up job."""
    start = time.perf_counter()
    inputs = workload.inputs(seed)
    service = ClusterService(n_hosts=N_HOSTS)
    try:
        warm = service.submit(lambda backend: workload.run(inputs[0], 0, backend),
                              label=f"{workload.name}-warmup"
                              ).result(timeout=JOB_TIMEOUT_S)
    except BaseException:
        service.close()
        raise
    return time.perf_counter() - start, inputs, service, warm


def peak_rss_mb() -> float:
    """Highest peak RSS of this process and of every reaped child (runners)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _variant_mean(records: List[JobRecord], key: str) -> float:
    """Mean over variants of the per-variant mean, so job counts don't weigh."""
    by_variant: Dict[int, List[float]] = {}
    for record in records:
        by_variant.setdefault(record.variant, []).append(record.values[key])
    return float(np.mean([np.mean(v) for v in by_variant.values()]))


def _job_outputs(result) -> Dict[str, float]:
    return {"bytes": float(result.ledger.total_bytes()),
            "words": float(result.ledger.total_words()),
            "cost": float(result.cost)}


@dataclass
class Outcome:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failures: List[str]
    notes: List[str] = field(default_factory=list)


# -- the untraced pass ------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float) -> Outcome:
    """End-to-end metrics of one closed-loop run, tracing off."""
    setups: List[float] = []
    service = None
    try:
        for _ in range(SETUP_REPEATS):
            if service is not None:
                service.close()
            setup_s, inputs, service, warm = set_up(workload, seed)
            setups.append(setup_s)
        refs = [reference(workload, p, v) for v, p in enumerate(inputs)]
        failures = _warm_up_failures(warm, refs)
        loop = closed_loop(service, workload, inputs, refs, seconds, _job_outputs)
    finally:
        if service is not None:
            service.close()
    failures += loop.failures
    records = loop.records
    if not records:
        return Outcome({}, loop.attempted, failures or ["no job completed"])
    latencies = [r.latency_s for r in records]
    p50, p90 = np.percentile(latencies, [50, 90])
    metrics = {
        "jobs_per_s": (len(records) / loop.elapsed_s, "1/s"),
        "latency_p50_s": (float(p50), "s"),
        "latency_p90_s": (float(p90), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "wire_bytes_per_job": (_variant_mean(records, "bytes"), "bytes"),
        "words_per_job": (_variant_mean(records, "words"), "words"),
        "solution_cost": (_variant_mean(records, "cost"), "cost"),
    }
    beyond = sum(1 for x in latencies if x > p90)
    notes = [
        f"latency samples: {len(latencies)} ({beyond} beyond p90)",
        f"failed_frac: {len(failures) / max(1, loop.attempted + 1):.4f} "
        f"({len(failures)} of {loop.attempted} loop jobs + 1 warm-up)",
        "setup_s runs: " + ", ".join(f"{s:.3f}" for s in setups),
    ]
    return Outcome(metrics, loop.attempted + 1, failures, notes)


# -- the traced pass --------------------------------------------------------

def _serial_layers(workload: Workload, inputs, refs) -> Tuple[Dict[str, Tuple[float, str]],
                                                               List[str], List[str]]:
    """In-process serial jobs under the compute-layer wrappers.

    Each variant runs untraced and then traced, back to back, so the two
    sums that give ``trace.overhead_frac`` see the same caches and load.
    """
    failures: List[str] = []
    walls: List[float] = []
    untraced = 0.0
    other = 0.0
    timer = LayerTimer(COMPUTE_TARGETS)
    for variant, points in enumerate(inputs):
        start = time.perf_counter()
        workload.run(points, variant, "serial")
        untraced += time.perf_counter() - start
        with timer:
            covered = timer.main_covered_s
            start = time.perf_counter()
            result = workload.run(points, variant, "serial")
            wall = time.perf_counter() - start
        walls.append(wall)
        other += wall - (timer.main_covered_s - covered)
        why = mismatch(result, refs[variant])
        if why:
            failures.append(f"traced serial variant {variant}: {why}")
    n = len(walls)
    total_wall = sum(walls)
    rows = sum(timer.main_self_s.values()) + other
    residual = abs(rows - total_wall) / total_wall
    if residual > LAYER_SUM_TOLERANCE or other < 0:
        failures.append(f"layer rows sum to {rows:.6f}s, job wall time is "
                        f"{total_wall:.6f}s (other {other:.6f}s)")
    metrics: Dict[str, Tuple[float, str]] = {}
    for target in COMPUTE_TARGETS:
        metrics[f"{target.name}.calls"] = (timer.calls[target.name] / n, "count")
        metrics[f"{target.name}.self_s"] = (timer.self_s[target.name] / n, "s")
    metrics["trace.other_s"] = (other / n, "s")
    metrics["trace.job_wall_s"] = (total_wall / n, "s")
    metrics["trace.layer_sum_error_frac"] = (residual, "ratio")
    metrics["trace.overhead_frac"] = (total_wall / untraced - 1.0, "ratio")
    notes = [f"serial pass: {n} jobs, layer rows + other = wall within "
             f"{residual:.2e} (tolerance {LAYER_SUM_TOLERANCE:g})"]
    return metrics, failures, notes


def _ratio(hit: float, miss: float) -> float:
    return hit / (hit + miss) if hit + miss else 0.0


#: Counters the program emits under ``trace=True`` that the pool pass reads.
POOL_COUNTERS = ("cluster.payload_hit", "cluster.payload_miss", "cluster.resident_hit",
                 "cluster.resident_miss", "plan.tiles", "prefetch.hit", "prefetch.miss")


def _traced_outputs(result) -> Dict[str, float]:
    wire = result.ledger.wire
    return {"frames": float(wire.n_frames()), "raw": float(wire.total_raw_bytes()),
            "encoded": float(wire.total_bytes()),
            **{name: result.trace.counter(name) for name in POOL_COUNTERS}}


def _pool_layers(service: ClusterService, workload: Workload, inputs, refs,
                 seconds: float) -> Tuple[Dict[str, Tuple[float, str]], LoopOutcome]:
    """The closed loop again, ``trace=True``, with coordinator-side wrappers."""
    timer = LayerTimer(CLUSTER_TARGETS)
    with timer:
        loop = closed_loop(service, workload, inputs, refs, seconds, _traced_outputs,
                           trace=True)
    records = loop.records
    n = max(1, len(records))
    metrics: Dict[str, Tuple[float, str]] = {}
    for target in CLUSTER_TARGETS:
        metrics[f"{target.name}.calls"] = (timer.calls[target.name] / n, "count")
        metrics[f"{target.name}.self_s"] = (timer.self_s[target.name] / n, "s")

    def total(name: str) -> float:
        return float(sum(r.values[name] for r in records))

    raw, encoded = total("raw"), total("encoded")
    payload = (total("cluster.payload_hit"), total("cluster.payload_miss"))
    resident = (total("cluster.resident_hit"), total("cluster.resident_miss"))
    prefetch = (total("prefetch.hit"), total("prefetch.miss"))
    metrics.update({
        "cluster.frames_per_job": (total("frames") / n, "count"),
        "cluster.raw_bytes_per_job": (raw / n, "bytes"),
        "cluster.compression_ratio": (raw / encoded if encoded else 0.0, "ratio"),
        "cluster.payload_hit_ratio": (_ratio(*payload), "ratio"),
        "cluster.payload_lookups_per_job": (sum(payload) / n, "count"),
        "cluster.resident_hit_ratio": (_ratio(*resident), "ratio"),
        "cluster.resident_lookups_per_job": (sum(resident) / n, "count"),
        "metrics.plan_tiles": (total("plan.tiles") / n, "count"),
        "metrics.prefetch_hit_ratio": (_ratio(*prefetch), "ratio"),
        "metrics.prefetch_lookups_per_job": (sum(prefetch) / n, "count"),
        "service.admission_wait_p50_s": (
            float(np.median([r.started - r.submitted for r in records])) if records else 0.0,
            "s"),
        "service.job_run_p50_s": (
            float(np.median([r.finished - r.started for r in records])) if records else 0.0,
            "s"),
    })
    return metrics, loop


def trace(workload: Workload, seed: int, seconds: float) -> Outcome:
    """Per-layer metrics: the serial wrapped pass, then the traced pool loop."""
    service = None
    try:
        _, inputs, service, warm = set_up(workload, seed)
        refs = [reference(workload, p, v) for v, p in enumerate(inputs)]
        failures = _warm_up_failures(warm, refs)
        metrics, serial_failures, notes = _serial_layers(workload, inputs, refs)
        failures += serial_failures
        pool_metrics, loop = _pool_layers(service, workload, inputs, refs, seconds)
    finally:
        if service is not None:
            service.close()
    metrics.update(pool_metrics)
    failures += loop.failures
    notes.append(f"pool pass: {len(loop.records)} traced jobs in {loop.elapsed_s:.2f}s")
    return Outcome(metrics, 1 + len(inputs) + loop.attempted, failures, notes)
