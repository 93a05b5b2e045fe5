"""The three workloads: build-mix, serve-saturated and serve-paced.

Each workload returns a :class:`Result` holding every end-to-end metric
(untraced run) or every per-layer metric (traced run), the operation counts
and the outcome of the correctness checks, which run untimed after the
timed phase.

The serve workloads run on one event loop that carries nothing but the
benchmark's own client, so the blocking steps inside it (spawning and
reaping the daemon, the threaded open loop) hold up no other task.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import PartitionSpec, SynopsisSpec, build
from repro.io import read_model, write_model
from repro.service import BatchQueryEngine, QueryBatch, SynopsisStore, fingerprint_data
from repro.evaluation import per_item_expected_errors

from . import checks, client, inputs, ledger
from .daemon import DaemonProcess, proc_peak_rss_mb

#: End-to-end metrics and their units; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "store_mb": "MB",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "success_rate": "ratio",
}

PER_LAYER_UNITS = {
    **{name: "s" for name in ledger.BUILD_LAYERS},
    "histograms.dp_s": "s",
    "store.overhead_s": "s",
    "store.named_layers_frac": "ratio",
    "evaluation.attribution_s": "s",
    "evaluation.attribution_mb": "MB",
    "io.read_model_s": "s",
    "io.pack_get_ms": "ms",
    "server.cpu_us_per_query": "us",
    "server.batch_size_mean": "count",
    "server.flush_us_per_query": "us",
    "server.window_wait_ms": "ms",
    "server.overloaded": "count",
    "server.protocol_errors": "count",
    "server.internal_errors": "count",
    **{stage: "us" for stage in ledger.WIRE_STAGES},
    "server.unattributed_us": "us",
    "client.cpu_frac": "ratio",
    "client.late_p99_ms": "ms",
    "client.invalid_phases": "count",
    "saturated.latency_p90_ms": "ms",
    "saturated.latency_p99_ms": "ms",
    "paced.latency_p90_ms": "ms",
    "paced.latency_p99_ms": "ms",
    "error_rate": "ratio",
    "trace.overhead_frac": "ratio",
}

#: In a traced build-mix run, rounds before this one run untraced (the first
#: warms caches) and this one is traced; the gap to the previous round is the
#: tracing overhead.
TRACED_ROUND = 2

#: The synopsis the serve workloads pre-build and the daemon serves.
SERVED_N = 4096
SERVED_SPEC = SynopsisSpec(kind="histogram", budget=64, metric="sse")
SERVE_ARGS = ("--store-format", "columnar", "--budget", "64", "--metric", "sse")

#: Serve workloads split their measured time over this many daemons.
PHASES = 3
#: Serve workloads build the served synopsis this many times (median reported).
SERVE_BUILDS = 15
#: Serve throughput and latency are measured per window of this many seconds.
WINDOW_S = 1.0
#: Which window the end-to-end serve figures take, counted from the good end.
QUIET_PERCENTILE = 10
#: A phase found invalid is discarded and re-run, at most this many times.
EXTRA_PHASES = 3
SATURATED_DEPTH = 32
PACED_RATE = 300.0
WARMUP_S = 0.5
PINGS = 200
LEDGER_QUERIES = 20000
CLIENT_CPU_LIMIT = 0.9
LATENESS_PERCENTILE = 95


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    env: Dict[str, str]
    log: Callable[[str], None]
    nproc: int
    daemon_cpu: Optional[int]


@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    failures: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.failures


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _store_mb(directory: Path) -> float:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file()) / 2**20


def _result(ctx: Context, e2e: Dict[str, float], layers: Dict[str, float], attempted: int,
            failed: int, failures: List[str]) -> Result:
    if ctx.trace:
        layers["error_rate"] = failed / max(attempted, 1)
        metrics = {name: (float(layers.get(name, 0.0)), unit)
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        e2e["success_rate"] = 1.0 - failed / max(attempted, 1)
        metrics = {name: (float(e2e[name]), unit) for name, unit in END_TO_END.items()}
    return Result(metrics, attempted, failed, failures)


# ----------------------------------------------------------------------
# build-mix
# ----------------------------------------------------------------------
def build_inputs(seed: int, scale: int = 1) -> List[Tuple[str, Any, SynopsisSpec]]:
    """The seven build-mix specs over seeded, normalised models.

    ``scale`` divides every domain size (the untimed kernel warm-up uses a
    tiny copy of the mix).
    """
    rng = np.random.default_rng(seed)
    shuffled = inputs.zipf_value_pdf(rng, 2048 // scale, ranked=False)
    ranked = inputs.zipf_value_pdf(rng, 8192 // scale, ranked=True, decimals=1)
    tuples = inputs.tuple_pdf(rng, 1024 // scale, 4096 // scale)
    small = inputs.zipf_value_pdf(rng, max(64 // scale, 16), ranked=False)
    wavelet = inputs.zipf_value_pdf(rng, 256 // scale, ranked=False)
    sharded = inputs.zipf_value_pdf(rng, 1024 // scale, ranked=False)
    for model in (shuffled, ranked, tuples, small, wavelet, sharded):
        model.to_frequency_distributions()
    partition = PartitionSpec(shards=4, strategy="equal_mass", base="histogram")
    return [
        ("hist-sse-shuffled", shuffled, SynopsisSpec(kind="histogram", budget=64, metric="sse")),
        ("hist-sse-ranked", ranked, SynopsisSpec(kind="histogram", budget=64, metric="sse")),
        ("hist-ssre-tuples", tuples, SynopsisSpec(kind="histogram", budget=32, metric="ssre")),
        ("hist-sae-tuples", tuples, SynopsisSpec(kind="histogram", budget=32, metric="sae")),
        ("hist-mae", small, SynopsisSpec(kind="histogram", budget=8, metric="mae")),
        ("wavelet-sae", wavelet, SynopsisSpec(kind="wavelet", budget=16, metric="sae")),
        ("partitioned-sse", sharded,
         SynopsisSpec(kind="partitioned", budget=32, metric="sse", partition=partition)),
    ]


@dataclass
class _Round:
    setup_s: float
    build_s: float
    build_times: List[float]
    failed: int
    entries: List[Tuple[Any, SynopsisSpec, Any]]
    store: Path
    spans: Dict[str, float] = field(default_factory=dict)
    normalise_s: float = 0.0


def _build_round(ctx: Context, index: int, timer: Optional[ledger.LayerTimer]) -> _Round:
    started = time.perf_counter()
    mix = build_inputs(ctx.seed)
    setup_s = time.perf_counter() - started
    directory = ctx.work / f"build-{index}"
    store = SynopsisStore(directory, format="columnar")
    at_build = timer.snapshot() if timer else {}
    times, entries, failed = [], [], 0
    for name, data, spec in mix:
        started = time.perf_counter()
        try:
            synopsis = store.get_or_build(data, spec)
        except Exception as exc:  # noqa: BLE001 - a failed build is counted, not fatal
            failed += 1
            ctx.log(f"build {name} failed: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - started)
        entries.append((data, spec, synopsis))
    after = timer.snapshot() if timer else {}
    spans = {name: after[name] - at_build.get(name, 0.0) for name in after}
    return _Round(setup_s, sum(times), times, failed, entries, directory, spans,
                  after.get("models.normalise_s", 0.0))


def build_mix(ctx: Context) -> Result:
    # Untimed warm-up: load the compiled kernels and every build path once.
    warm = SynopsisStore(ctx.work / "warm", format="columnar")
    for _, data, spec in build_inputs(ctx.seed, scale=16):
        warm.get_or_build(data, spec)
    del warm

    rounds: List[_Round] = []
    timer: Optional[ledger.LayerTimer] = None
    started = time.perf_counter()
    while True:
        if rounds:
            rounds[-1].entries.clear()  # only the final round's outputs are checked
            gc.collect()
        if ctx.trace and len(rounds) == TRACED_ROUND:
            timer = ledger.LayerTimer()
            timer.install()
        try:
            rounds.append(_build_round(ctx, len(rounds), timer))
        finally:
            if timer:
                timer.restore()
        last = rounds[-1]
        ctx.log(
            f"round {len(rounds)}: setup {last.setup_s:.3f}s build {last.build_s:.3f}s "
            f"({', '.join(f'{t:.3f}' for t in last.build_times)})"
            + (" [traced]" if timer else "")
        )
        elapsed = time.perf_counter() - started
        enough = len(rounds) >= (TRACED_ROUND + 1 if ctx.trace else 1)
        if timer or (enough and elapsed >= ctx.seconds - 0.5 * (last.setup_s + last.build_s)):
            break
    peak_rss = proc_peak_rss_mb(os.getpid())

    final = rounds[-1]
    failures: List[str] = []
    if final.failed:
        failures.append(f"{final.failed} builds failed")
    else:
        failures += _check_build_mix(final)

    attempted = 7 * len(rounds)
    failed = sum(r.failed for r in rounds)
    calls = np.array([t for r in rounds for t in r.build_times])
    e2e = {
        "setup_s": _median([r.setup_s for r in rounds]),
        "build_s": _median([r.build_s for r in rounds]),
        "store_mb": _store_mb(final.store),
        "peak_rss_mb": peak_rss,
        "ops_per_s": len(final.build_times) / _median([r.build_s for r in rounds]),
        "latency_p50_ms": _percentile(calls, 50) * 1000.0,
    }
    layers: Dict[str, float] = {}
    if ctx.trace:
        traced, untraced = rounds[-1], rounds[-2]
        layers.update(ledger.build_layer_metrics(traced.spans, traced.build_s))
        layers["models.normalise_s"] = traced.normalise_s
        layers["trace.overhead_frac"] = traced.build_s / untraced.build_s - 1.0
    return _result(ctx, e2e, layers, attempted, failed, failures)


def _check_build_mix(final: _Round) -> List[str]:
    entries = final.entries
    by_kind = {spec.kind: (data, spec, synopsis) for data, spec, synopsis in entries}
    histograms = [entry for entry in entries if entry[1].kind == "histogram"]
    wave_data, wave_spec, restricted = by_kind["wavelet"]
    thresholded = build(wave_data, SynopsisSpec(kind="wavelet", budget=wave_spec.budgets[0],
                                                metric="sse"))
    part_data, part_spec, partitioned = by_kind["partitioned"]
    return checks.summarise({
        "histogram_errors": checks.histogram_errors(histograms),
        "wavelet_vs_thresholding": checks.wavelet_beats_thresholding(
            wave_data, wave_spec.metric, restricted, thresholded),
        "partition_vs_flat": checks.partition_no_better_than_flat(
            part_data, partitioned, part_spec.budgets[0]),
        "reopened_store": checks.reopened_store(final.store, entries),
    })


# ----------------------------------------------------------------------
# serve-saturated / serve-paced
# ----------------------------------------------------------------------
@dataclass
class _PhaseOutcome:
    phase: client.Phase
    setup_s: float
    peak_rss_mb: float
    deltas: Dict[str, float]
    final_stats: Dict[str, Any]
    ping_p50_ms: float


async def _daemon_counters(address) -> Tuple[Dict[str, Any], float]:
    stats = (await client.control(address, "stats"))["stats"]
    body = (await client.control(address, "metrics"))["body"]
    flush_ms = client.counter_values(body, ["repro_daemon_flush_latency_ms_sum"])
    return stats, flush_ms["repro_daemon_flush_latency_ms_sum"]


async def _serve_phase(ctx: Context, daemon: DaemonProcess, stream: inputs.QueryStream,
                       served: client.Served, cursor: int, seconds: float,
                       paced: bool) -> Tuple[_PhaseOutcome, int]:
    address = daemon.address
    connections = min(2, ctx.nproc)

    async def load(first: int, duration: float) -> client.Phase:
        if paced:
            return client.open_loop(address, stream, served, first, rate=PACED_RATE,
                                    seconds=duration)
        return await client.closed_loop(address, stream, served, first,
                                        connections=connections, depth=SATURATED_DEPTH,
                                        seconds=duration)

    warm = await load(cursor, WARMUP_S)
    stats_before, flush_before = await _daemon_counters(address)
    cpu_before = daemon.cpu_seconds()
    phase = await load(warm.last, seconds)
    cpu = daemon.cpu_seconds() - cpu_before
    stats_after, flush_after = await _daemon_counters(address)
    answered = stats_after["queries_answered"] - stats_before["queries_answered"]
    batches = stats_after["engine_batches"] - stats_before["engine_batches"]
    deltas = {
        "server.cpu_us_per_query": cpu / max(answered, 1) * 1e6,
        "server.batch_size_mean": answered / max(batches, 1),
        "server.flush_us_per_query": (flush_after - flush_before) / max(answered, 1) * 1e3,
        **{
            f"server.{name}": stats_after[name] - stats_before[name]
            for name in ("overloaded", "protocol_errors", "internal_errors")
        },
    }
    ping_p50_ms = 0.0
    if ctx.trace:
        ping_p50_ms = _percentile(await client.ping_round_trips(address, PINGS), 50)
    final_stats = (await client.control(address, "stats"))["stats"]
    outcome = _PhaseOutcome(phase, daemon.setup_s, daemon.peak_rss_mb(), deltas, final_stats,
                            ping_p50_ms)
    return outcome, phase.last


def _invalid_reason(outcome: _PhaseOutcome, paced: bool) -> Optional[str]:
    """Why a phase measured the client rather than the daemon, if it did.

    The lateness guard reads the 95th percentile: on a small shared VM a bare
    timer loop with no traffic already wakes more than one 3.3 ms period late
    at its 99th percentile (the vCPU is descheduled), so a p99 guard would
    reject every phase for the machine's jitter rather than the generator's.
    """
    phase = outcome.phase
    if phase.client_cpu_frac > CLIENT_CPU_LIMIT:
        return f"client CPU fraction {phase.client_cpu_frac:.2f} > {CLIENT_CPU_LIMIT}"
    period_ms = 1000.0 / PACED_RATE
    late_ms = _percentile(phase.late_ms, LATENESS_PERCENTILE)
    if paced and late_ms > period_ms:
        return (f"generator lateness p{LATENESS_PERCENTILE} {late_ms:.2f} ms exceeds the "
                f"{period_ms:.2f} ms inter-arrival period")
    return None


async def _serve(ctx: Context, paced: bool) -> Result:
    directory = ctx.work / "served"
    directory.mkdir()
    # Build the served synopsis SERVE_BUILDS times, each into a fresh store
    # from a fresh model object (a shallow copy, so the store's per-object
    # fingerprint memo misses as on a first build); the daemons serve the last.
    model = inputs.zipf_value_pdf(np.random.default_rng(ctx.seed), SERVED_N, ranked=True)
    builds: List[float] = []
    timer = None
    for index in range(SERVE_BUILDS):
        store_path = directory / f"store-{index}"
        if ctx.trace and index == SERVE_BUILDS - 1:
            timer = ledger.LayerTimer()
            timer.install()
        try:
            started = time.perf_counter()
            SynopsisStore(store_path, format="columnar").get_or_build(copy.copy(model),
                                                                      SERVED_SPEC)
            builds.append(time.perf_counter() - started)
        finally:
            if timer:
                timer.restore()
    ctx.log(f"served builds: {', '.join(f'{t:.3f}' for t in builds)} s")
    model_path = write_model(model, directory / "model.json")
    del model

    phase_s = ctx.seconds / PHASES
    budget_rate = PACED_RATE if paced else 30000.0
    count = int(budget_rate * (phase_s + WARMUP_S) * (PHASES + EXTRA_PHASES)) + 1
    stream = inputs.query_stream(np.random.default_rng([ctx.seed, 1]), SERVED_N, count)
    served = client.Served(len(stream))

    outcomes: List[_PhaseOutcome] = []
    setups: List[float] = []
    invalid = 0
    cursor = 0
    failures: List[str] = []
    for _ in range(PHASES + EXTRA_PHASES):
        if len(outcomes) == PHASES:
            break
        daemon = DaemonProcess(ctx.root, ctx.work, [
            "--input", str(model_path), "--store", str(store_path), *SERVE_ARGS,
        ], cpu=ctx.daemon_cpu, env=ctx.env)
        try:
            setups.append(daemon.start())
            outcome, cursor = await _serve_phase(ctx, daemon, stream, served, cursor,
                                                 phase_s, paced)
            await daemon.shutdown()
        finally:
            daemon.kill()
        failures += [f"daemon: {m}" for m in checks.daemon_counters(outcome.final_stats)]
        reason = _invalid_reason(outcome, paced)
        phase = outcome.phase
        lateness = "/".join(f"{_percentile(phase.late_ms, q):.2f}" for q in (50, 95, 99))
        ctx.log(
            f"phase: setup {outcome.setup_s:.3f}s qps {phase.qps:.0f} "
            f"p50 {_percentile(phase.latencies_ms, 50):.3f}ms "
            f"p90 {_percentile(phase.latencies_ms, 90):.3f}ms "
            f"batch {outcome.deltas['server.batch_size_mean']:.2f} "
            f"client cpu {phase.client_cpu_frac:.2f}"
            + (f" late p50/p95/p99 {lateness}ms" if paced else "")
            + (f" INVALID: {reason}" if reason else "")
        )
        if reason:
            invalid += 1
        else:
            outcomes.append(outcome)
    if not outcomes:
        raise RuntimeError("no valid serve phase: the client, not the daemon, was measured")

    failures += _check_served(model_path, store_path, stream, served, cursor)

    phases = [o.phase for o in outcomes]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    windows = _windows(phases)
    e2e = {
        "setup_s": _median(setups),
        "build_s": _median(builds),
        "store_mb": _store_mb(store_path),
        "peak_rss_mb": _median([o.peak_rss_mb for o in outcomes]),
        "ops_per_s": _quiet(windows["qps"], higher_is_better=True),
        "latency_p50_ms": _quiet(windows["p50"], higher_is_better=False),
    }
    layers: Dict[str, float] = {}
    if ctx.trace:
        layers.update(ledger.build_layer_metrics(timer.snapshot(), builds[-1]))
        for name in outcomes[0].deltas:
            layers[name] = _median([o.deltas[name] for o in outcomes])
        layers["client.cpu_frac"] = _median([p.client_cpu_frac for p in phases])
        layers["client.invalid_phases"] = invalid
        p90, p99 = _median(windows["p90"]), _median(windows["p99"])
        if paced:
            layers["client.late_p99_ms"] = _median([_percentile(p.late_ms, 99) for p in phases])
            layers["paced.latency_p90_ms"] = p90
            layers["paced.latency_p99_ms"] = p99
            layers["server.window_wait_ms"] = (e2e["latency_p50_ms"]
                                               - _median([o.ping_p50_ms for o in outcomes]))
        else:
            layers["saturated.latency_p90_ms"] = p90
            layers["saturated.latency_p99_ms"] = p99
        layers.update(_setup_layers(model_path, store_path))
        first = phases[0]
        positions = range(first.first, min(first.last, first.first + LEDGER_QUERIES))
        lines = [stream.line(p, p).rstrip(b"\n") for p in positions]
        engine = _reference_engine(model_path, store_path)
        wire = ledger.wire_ledger(lines, engine, round(layers["server.batch_size_mean"]))
        layers.update(wire)
        layers["server.unattributed_us"] = layers["server.cpu_us_per_query"] - sum(wire.values())
    return _result(ctx, e2e, layers, attempted, failed, failures)


def _windows(phases: List[client.Phase]) -> Dict[str, List[float]]:
    """Throughput and latency percentiles of every whole WINDOW_S window.

    A query belongs to the window in which its response arrived.
    """
    stats: Dict[str, List[float]] = {"qps": [], "p50": [], "p90": [], "p99": []}
    for phase in phases:
        whole = int((phase.finished - phase.started) // WINDOW_S)
        index = ((phase.completed_at - phase.started) // WINDOW_S).astype(int)
        for window in range(whole):
            members = index == window
            latencies = phase.latencies_ms[members]
            done = phase.completed_at[members]
            if done.size < 2:
                continue
            stats["qps"].append((done.size - 1) / (done.max() - done.min()))
            for q in (50, 90, 99):
                stats[f"p{q}"].append(_percentile(latencies, q))
    return stats


def _quiet(values: List[float], *, higher_is_better: bool) -> float:
    """The run's figure from its least disturbed one-second windows.

    On a shared VM other tenants slow whole seconds at a time (descheduled
    vCPUs, contended cores), and how many seconds they spoil differs from run
    to run.  The 10th percentile of the windows, taken from the good end,
    follows the program and not that load; the per-layer p90/p99 diagnostics
    keep the median window, so the load stays visible.
    """
    q = 100 - QUIET_PERCENTILE if higher_is_better else QUIET_PERCENTILE
    return _percentile(np.asarray(values), q)


def _reference_engine(model_path: Path, store_path: Path) -> BatchQueryEngine:
    """The direct engine over the same pack and the same model JSON the daemon read."""
    model = read_model(model_path)
    store = SynopsisStore(store_path, format="columnar")
    synopsis = store.get_or_build(model, SERVED_SPEC)
    return BatchQueryEngine.from_model(synopsis, model, SERVED_SPEC.metric)


def _setup_layers(model_path: Path, store_path: Path) -> Dict[str, float]:
    """The daemon's set-up layers, timed in-process through their public calls."""
    started = time.perf_counter()
    model = read_model(model_path)
    read_s = time.perf_counter() - started
    key = SERVED_SPEC.store_key(fingerprint_data(model))
    started = time.perf_counter()
    synopsis = SynopsisStore(store_path, format="columnar").get(key)
    get_ms = (time.perf_counter() - started) * 1000.0
    tracemalloc.start()
    started = time.perf_counter()
    per_item_expected_errors(model, synopsis, SERVED_SPEC.metric)
    attribution_s = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "io.read_model_s": read_s,
        "io.pack_get_ms": get_ms,
        "evaluation.attribution_s": attribution_s,
        "evaluation.attribution_mb": peak / 2**20,
    }


def _check_served(model_path: Path, store_path: Path, stream: inputs.QueryStream,
                  served: client.Served, end: int) -> List[str]:
    answered = np.flatnonzero(served.status[:end] == client.OK)
    engine = _reference_engine(model_path, store_path)
    batch = QueryBatch(stream.kinds[answered], stream.starts[answered], stream.ends[answered])
    return checks.summarise({
        "served_bit_identical": checks.served_bit_identical(
            served.answers[answered], served.errors[answered],
            engine.answer(batch), engine.attribute_errors(batch)),
    })


def serve_saturated(ctx: Context) -> Result:
    return asyncio.run(_serve(ctx, paced=False))


def serve_paced(ctx: Context) -> Result:
    return asyncio.run(_serve(ctx, paced=True))


WORKLOADS = {
    "build-mix": build_mix,
    "serve-saturated": serve_saturated,
    "serve-paced": serve_paced,
}
