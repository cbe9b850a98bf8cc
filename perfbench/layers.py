"""Per-layer wrappers and the per-layer metrics computed from them.

:func:`install` wraps public functions of each ``repro`` module so the
traced run records one span per call (see :mod:`spans`). The same
wrappers serve every workload; a layer a workload does not exercise
records nothing and its metrics read 0, which is the prediction for
that workload (the explorer opens no file and no socket; the live
cluster runs no simulator).

Module to layer map (the metric prefix is the layer):

* ``storage``   — ``repro.storage.file_log``: WAL garbage collection
  and compaction, ``encode_records``, group-commit forces.
* ``db``        — ``repro.db.local_tm``: store checkpoints.
* ``mdbs``      — ``repro.mdbs.site``: delivery into the engines and
  the ``flush_and_gc`` sweep.
* ``protocols`` — ``repro.protocols``: the engines' own GC sweep.
* ``rt``        — ``repro.rt``: wire codec, transport send, scheduled
  transaction starts, cluster start.
* ``workloads`` — ``repro.workloads.openloop``: stream generation.
* ``sim`` / ``explore`` / ``core`` / ``replication`` — the explorer's
  simulator runs, scenario generation, oracle, history extraction and
  replication traffic.
"""

from __future__ import annotations

from typing import Any, Sequence

from spans import Span, Tracer
from stats import layer_percentile, ratio

#: Every per-layer metric: name -> (unit, better), in report order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "storage.gc_ms_per_txn": ("ms", "lower"),
    "storage.compact_bytes_per_txn": ("B", "lower"),
    "storage.wal_records_at_sweep_p95": ("count", "lower"),
    "storage.force_requests_per_force": ("count", "higher"),
    "storage.append_bytes_per_txn": ("B", "lower"),
    "db.checkpoint_ms_p50": ("ms", "lower"),
    "mdbs.deliver_us_p50": ("us", "lower"),
    "mdbs.deliveries_per_txn": ("count", "lower"),
    "mdbs.sweep_ms_p50": ("ms", "lower"),
    "mdbs.sweep_ms_p95": ("ms", "lower"),
    "mdbs.collected_per_sweep": ("count", "higher"),
    "protocols.collect_garbage_ms_p50": ("ms", "lower"),
    "rt.codec.encode_us_p50": ("us", "lower"),
    "rt.codec.decode_us_p50": ("us", "lower"),
    "rt.codec.bytes_per_msg": ("B", "lower"),
    "rt.transport.msgs_per_txn": ("count", "lower"),
    "rt.transport.send_us_p50": ("us", "lower"),
    "rt.arrival_lateness_ms_p50": ("ms", "lower"),
    "rt.arrival_lateness_ms_p95": ("ms", "lower"),
    "rt.cluster.start_ms": ("ms", "lower"),
    "workloads.generate_ms": ("ms", "lower"),
    "sim.events_per_seed": ("count", "lower"),
    "sim.trace_events_per_seed": ("count", "lower"),
    "sim.run_ms_per_seed": ("ms", "lower"),
    "explore.generate_ms_per_seed": ("ms", "lower"),
    "explore.oracle_ms_per_seed": ("ms", "lower"),
    "core.history_ms_per_seed": ("ms", "lower"),
    "replication.events_per_seed": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

MS = 1e3
US = 1e6


def _length(result: Any, *_: Any, **__: Any) -> int:
    return len(result)


def _lateness_ms(_result: Any, sim: Any, _sites: Any, txn: Any) -> float:
    """How late a scheduled transaction start ran behind its arrival."""
    return (sim.now - txn.submit_at) * sim.time_scale * MS


def _scenario_counts(result: Any, *_: Any, **__: Any) -> tuple[int, int, int]:
    """(simulator steps, trace events, replication events) of one seed."""
    trace = result[0].sim.trace
    replication = sum(1 for event in trace if event.category == "replication")
    return result[0].sim.steps_executed, len(trace), replication


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.core.history import History
    from repro.db.local_tm import LocalTransactionManager
    from repro.explore import runner as explore_runner
    from repro.explore.adversary import AdversaryGenerator
    from repro.explore.oracle import InvariantOracle
    from repro.mdbs.site import Site
    from repro.mdbs.system import MDBS
    from repro.protocols.coordinator import CoordinatorEngine
    from repro.protocols.participant import ParticipantEngine
    from repro.rt import cluster as rt_cluster
    from repro.rt.codec import JsonWireCodec
    from repro.rt.transport import LiveTransport
    from repro.storage import file_log
    from repro.storage.file_log import FileStableLog
    from repro.workloads import openloop

    tracer.wrap(FileStableLog, "garbage_collect", "storage.gc")
    tracer.wrap(FileStableLog, "garbage_collect_where", "storage.gc")
    tracer.wrap(file_log, "encode_records", "storage.encode", _length)
    tracer.wrap(LocalTransactionManager, "checkpoint", "db.checkpoint")
    tracer.wrap(Site, "deliver", "mdbs.deliver")
    tracer.wrap(Site, "flush_and_gc", "mdbs.flush_and_gc", lambda result, *_: result)
    tracer.wrap(ParticipantEngine, "collect_garbage", "protocols.collect_garbage")
    tracer.wrap(CoordinatorEngine, "collect_garbage", "protocols.collect_garbage")
    tracer.wrap(JsonWireCodec, "encode_frame", "rt.codec.encode", _length)
    body_decoder = JsonWireCodec.body_decoder

    def traced_body_decoder(codec: Any) -> Any:
        decode = body_decoder(codec)

        def traced(body: bytes) -> Any:
            span = tracer.open("rt.codec.decode")
            try:
                return decode(body)
            finally:
                tracer.close(span)

        return traced

    tracer.patch(JsonWireCodec, "body_decoder", traced_body_decoder)
    tracer.wrap(LiveTransport, "send", "rt.transport.send")
    tracer.wrap(rt_cluster, "start_transaction", "rt.start_transaction", _lateness_ms)
    tracer.wrap(openloop, "generate_open_loop", "workloads.generate")
    tracer.wrap(
        explore_runner, "execute_scenario", "explore.execute", _scenario_counts
    )
    tracer.wrap(
        AdversaryGenerator,
        "generate",
        "explore.generate",
        lambda spec, *_: spec.n_transactions,
    )
    tracer.wrap(MDBS, "run", "sim.run")
    tracer.wrap(InvariantOracle, "evaluate", "explore.oracle")
    tracer.wrap(History, "from_trace", "core.history")


def _ms(spans: Sequence[Span]) -> list[float]:
    return [span.duration * MS for span in spans]


def _self_us(spans: Sequence[Span]) -> list[float]:
    return [span.self_time * US for span in spans]


def _total_ms(spans: Sequence[Span]) -> float:
    return sum(span.duration for span in spans) * MS


def metrics(
    tracer: Tracer,
    window_start: float,
    txns: int,
    seeds: int,
    sweeps: int,
    wal_lengths: Sequence[int],
    force_requests: int,
    forces: int,
) -> dict[str, float]:
    """Fold the spans of the measured window into per-layer figures.

    ``txns`` and ``seeds`` are the denominators of the per-transaction
    and per-seed figures. Either may be 0 on a workload without such
    operations; the figures that divide by it then read 0. Set-up
    figures (cluster start, stream generation) come from the set-up
    spans, which precede the window.
    """
    window = tracer.since(window_start)
    setup = tracer.since(0.0)

    def get(name: str) -> list[Span]:
        return window.get(name, [])

    encode = get("storage.encode")
    compact = sum(span.value for span in encode if span.within("storage.gc"))
    append = sum(span.value for span in encode if not span.within("storage.gc"))
    sweep = get("mdbs.flush_and_gc")
    frames = get("rt.codec.encode")
    lateness = [span.value for span in get("rt.start_transaction")]
    scenarios = [span.value for span in get("explore.execute")]
    return {
        "storage.gc_ms_per_txn": ratio(_total_ms(get("storage.gc")), txns),
        "storage.compact_bytes_per_txn": ratio(compact, txns),
        "storage.wal_records_at_sweep_p95": layer_percentile(wal_lengths, 0.95),
        "storage.force_requests_per_force": ratio(force_requests, forces),
        "storage.append_bytes_per_txn": ratio(append, txns),
        "db.checkpoint_ms_p50": layer_percentile(_ms(get("db.checkpoint")), 0.5),
        "mdbs.deliver_us_p50": layer_percentile(_self_us(get("mdbs.deliver")), 0.5),
        "mdbs.deliveries_per_txn": ratio(len(get("mdbs.deliver")), txns),
        "mdbs.sweep_ms_p50": layer_percentile(_ms(sweep), 0.5),
        "mdbs.sweep_ms_p95": layer_percentile(_ms(sweep), 0.95),
        "mdbs.collected_per_sweep": ratio(sum(s.value for s in sweep), sweeps),
        "protocols.collect_garbage_ms_p50": layer_percentile(
            [us / 1e3 for us in _self_us(get("protocols.collect_garbage"))], 0.5
        ),
        "rt.codec.encode_us_p50": layer_percentile(
            [ms * 1e3 for ms in _ms(frames)], 0.5
        ),
        "rt.codec.decode_us_p50": layer_percentile(
            [ms * 1e3 for ms in _ms(get("rt.codec.decode"))], 0.5
        ),
        "rt.codec.bytes_per_msg": ratio(sum(s.value for s in frames), len(frames)),
        "rt.transport.msgs_per_txn": ratio(len(get("rt.transport.send")), txns),
        "rt.transport.send_us_p50": layer_percentile(
            _self_us(get("rt.transport.send")), 0.5
        ),
        "rt.arrival_lateness_ms_p50": layer_percentile(lateness, 0.5),
        "rt.arrival_lateness_ms_p95": layer_percentile(lateness, 0.95),
        "rt.cluster.start_ms": layer_percentile(
            _ms(setup.get("rt.cluster.start", [])), 0.5
        ),
        "workloads.generate_ms": layer_percentile(
            _ms(setup.get("workloads.generate", [])), 0.5
        ),
        "sim.events_per_seed": ratio(sum(s[0] for s in scenarios), seeds),
        "sim.trace_events_per_seed": ratio(sum(s[1] for s in scenarios), seeds),
        "sim.run_ms_per_seed": ratio(_total_ms(get("sim.run")), seeds),
        "explore.generate_ms_per_seed": ratio(
            _total_ms(get("explore.generate")), seeds
        ),
        "explore.oracle_ms_per_seed": ratio(
            sum(span.self_time for span in get("explore.oracle")) * MS, seeds
        ),
        "core.history_ms_per_seed": ratio(_total_ms(get("core.history")), seeds),
        "replication.events_per_seed": ratio(sum(s[2] for s in scenarios), seeds),
    }
