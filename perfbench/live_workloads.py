"""The live workloads: an in-process cluster under open-loop load.

One process, one thread, one asyncio loop: a :class:`LiveCluster` with
the PrAny coordinator over a four-participant PrN+PrA+PrC mix (group
commit on, fsync off, JSON codec, private keys), fed a Poisson stream at
a fixed offered rate, while a sweeper calls ``Site.flush_and_gc`` on
every up site on a fixed cadence, as an operator would: the live
runtime has no background GC of its own.

A transaction is *forgotten* at the end of the first sweep after which
it is decided and no site retains it or holds log records for it.

Checks, independent of the program's own checkers:

* each transaction's outcome is the one its stream entry implies
  (forced-no transactions abort, all others commit);
* every transaction is forgotten;
* after shutdown each site's store snapshot, read back from disk, holds
  exactly the writes of the committed transactions (keys are private
  and each value is its transaction's id);
* after the final sweep every WAL on disk holds no records.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.rt.cluster import LIVE_TIMEOUTS, LiveCluster
from repro.rt.host import STORE_FILE, WAL_FILE
from repro.storage.group_commit import GroupCommitConfig
from repro.workloads import openloop
from repro.workloads.mixes import three_way

import layers
from spans import Tracer
from stats import Window, windows_for

#: PrN, PrA, PrC, PrN: every presumption on the commit path.
MIX = three_way(4)
#: Wall seconds per virtual unit (the live runtime's default).
TIME_SCALE = 0.01
#: Logs and stores write and flush but do not fsync: on a shared disk
#: the fsync latency drifts between runs by more than any bound allows.
FSYNC = False
#: The live throughput bench's window: 1 ms delay bound, 8 requests.
GROUP_COMMIT = GroupCommitConfig(max_delay=0.1, max_batch=8)
#: Share of update transactions forced to abort by a No vote.
ABORT_FRACTION = 0.1
#: Transactions driven to forgotten in each set-up, submitted at once.
WARMUP_TRANSACTIONS = 16
#: Set-ups per run; the reported ``setup_s`` is their median and the
#: last one's cluster carries the measured window.
SETUPS = 3
#: Wall seconds after the last arrival for every transaction to be
#: forgotten before the stragglers count as failed.
DRAIN_LIMIT_S = 20.0
#: Wall seconds between the end of set-up and the first arrival.
LEAD_S = 0.05


@dataclass(frozen=True)
class LiveShape:
    """What distinguishes one live workload from another."""

    rate: float
    read_only_fraction: float
    sweep_every_s: float


SHAPES = {
    # Well below the knee: the WAL stays short, every commit-path layer
    # works, GC does little.
    "steady": LiveShape(rate=50.0, read_only_fraction=0.3, sweep_every_s=0.1),
    # All updates: whole-WAL compaction inside flush_and_gc takes a
    # large share of the loop and sets forget latency. The rate leaves
    # the loop idle enough that its queueing does not amplify outside
    # load into the latencies.
    "backlog": LiveShape(rate=70.0, read_only_fraction=0.0, sweep_every_s=0.25),
}


def expected_outcome(txn: Any) -> str:
    """The outcome the stream implies: forced-no aborts, all else commits."""
    return "abort" if txn.force_no_vote_at else "commit"


def stretch(transactions: list[Any], start: float, span: float) -> list[Any]:
    """Shift and scale arrival instants so the stream starts after
    ``start`` and its last arrival lands exactly at ``start + span``
    (virtual units): a Poisson stream conditioned on its count, so the
    offered rate is exactly ``len / span`` on every seed."""
    last = transactions[-1].submit_at
    return [
        dataclasses.replace(txn, submit_at=start + txn.submit_at * span / last)
        for txn in transactions
    ]


class Sweeper:
    """The operator's GC cadence plus forgotten detection.

    Decisions are observed through a trace subscription, so detection
    costs one set union per sweep rather than a scan of the trace.
    """

    def __init__(
        self, cluster: LiveCluster, every_s: float, traced: bool
    ) -> None:
        self.cluster = cluster
        self.every_s = every_s
        self.traced = traced
        self.decided: set[str] = set()
        self.forgotten_at: dict[str, float] = {}
        self.sweeps = 0
        self.wal_lengths: list[int] = []
        self._pending: set[str] = set()
        self._task: Optional[asyncio.Task] = None
        assert cluster.sim is not None
        cluster.sim.trace.subscribe(self._on_event)

    def _on_event(self, event: Any) -> None:
        if event.category == "protocol" and event.name == "decide":
            txn = event.details["txn"]
            if txn not in self.decided:
                self.decided.add(txn)
                self._pending.add(txn)

    def sweep(self) -> None:
        sites = [site for site in self.cluster.sites.values() if site.is_up]
        if self.traced:
            self.wal_lengths.extend(site.log.stable_record_count for site in sites)
        for site in sites:
            site.flush_and_gc()
        held: set[str] = set()
        for site in sites:
            held |= site.retained_transactions()
            held |= site.uncollected_log_transactions()
        now = self.cluster.sim.now
        done = self._pending - held
        for txn in done:
            self.forgotten_at[txn] = now
        self._pending -= done
        self.sweeps += 1

    def start(self) -> None:
        self._task = asyncio.ensure_future(self._run())

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        origin = loop.time()
        tick = 0
        while True:
            tick += 1
            await asyncio.sleep(max(0.0, origin + tick * self.every_s - loop.time()))
            self.sweep()

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def until_forgotten(self, txn_ids: list[str], limit_s: float) -> bool:
        """Wait until every id is forgotten (True) or ``limit_s`` passes."""
        deadline = time.monotonic() + limit_s
        while any(txn not in self.forgotten_at for txn in txn_ids):
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(self.every_s / 4)
        return True


@dataclass
class Prepared:
    """One set-up's result: a warm cluster and its measured stream."""

    cluster: LiveCluster
    sweeper: Sweeper
    warmup: list[Any]
    stream: list[Any]
    seconds: float


async def set_up(
    shape: LiveShape,
    seed: int,
    n_transactions: int,
    data_dir: Path,
    tracer: Tracer,
    traced: bool,
) -> Prepared:
    """Start a cluster, generate the stream, drive a warm-up batch to
    forgotten so every lazily opened connection exists."""
    began = time.perf_counter()
    cluster = LiveCluster(
        MIX,
        data_dir,
        coordinator="dynamic",
        seed=seed,
        timeouts=LIVE_TIMEOUTS,
        time_scale=TIME_SCALE,
        fsync=FSYNC,
        group_commit=GROUP_COMMIT,
    )
    with tracer.flat("rt.cluster.start"):
        await cluster.start()
    spec = openloop.OpenLoopSpec(
        rate=shape.rate,
        n_transactions=2 * WARMUP_TRANSACTIONS + n_transactions,
        clients=1,
        arrival="poisson",
        participants_min=2,
        participants_max=3,
        abort_fraction=ABORT_FRACTION,
        read_only_fraction=shape.read_only_fraction,
        seed=seed,
    )
    generated = openloop.generate_open_loop(
        spec, sorted(MIX.site_protocols()), time_scale=TIME_SCALE
    )
    # The warm-up opens connections and touches every layer once; it
    # holds no forced abort, whose forget time can hang on an inquiry
    # timeout and would then dominate set-up.
    warmup = [txn for txn in generated if not txn.force_no_vote_at]
    warmup = warmup[:WARMUP_TRANSACTIONS]
    warm_ids = {txn.txn_id for txn in warmup}
    stream = [txn for txn in generated if txn.txn_id not in warm_ids]
    sweeper = Sweeper(cluster, shape.sweep_every_s, traced)
    sweeper.start()
    for txn in warmup:
        cluster.submit(txn, immediate=True)
    if not await sweeper.until_forgotten(list(warm_ids), DRAIN_LIMIT_S):
        raise RuntimeError("warm-up transactions were not forgotten")
    return Prepared(
        cluster,
        sweeper,
        warmup,
        stream[:n_transactions],
        time.perf_counter() - began,
    )


def read_disk(data_dir: Path, site_ids: list[str]) -> tuple[dict, dict]:
    """Every site's store snapshot and WAL transaction ids, from disk."""
    stores: dict[str, dict] = {}
    wal_txns: dict[str, list[str]] = {}
    for site_id in site_ids:
        store_path = data_dir / site_id / STORE_FILE
        stores[site_id] = (
            json.loads(store_path.read_text(encoding="utf-8"))
            if store_path.exists()
            else {}
        )
        wal_path = data_dir / site_id / WAL_FILE
        lines = wal_path.read_text(encoding="utf-8").splitlines() if wal_path.exists() else []
        wal_txns[site_id] = [json.loads(line)["txn"] for line in lines if line.strip()]
    return stores, wal_txns


def check(
    transactions: list[Any],
    outcomes: dict[str, str],
    forgotten: set[str],
    stores: dict[str, dict],
    wal_txns: dict[str, list[str]],
) -> tuple[set[str], list[str]]:
    """The independent checks. Returns the failed transaction ids and
    the problems no single transaction accounts for."""
    failed: set[str] = set()
    problems: list[str] = []
    known = {txn.txn_id for txn in transactions}
    expected: dict[str, dict[str, str]] = {site: {} for site in stores}
    for txn in transactions:
        outcome = outcomes.get(txn.txn_id)
        if outcome != expected_outcome(txn) or txn.txn_id not in forgotten:
            failed.add(txn.txn_id)
        if outcome == "commit":
            for site_id, ops in txn.writes.items():
                for op in ops:
                    expected.setdefault(site_id, {})[op.key] = op.value
    for site_id, want in expected.items():
        have = stores.get(site_id, {})
        for key in set(want) | set(have):
            if have.get(key) == want.get(key):
                continue
            owner = want.get(key, have.get(key))
            if owner in known:
                failed.add(owner)
            else:
                problems.append(f"{site_id}: unexpected store key {key!r}")
    for site_id, txn_ids in wal_txns.items():
        for txn_id in txn_ids:
            if txn_id in known:
                failed.add(txn_id)
            else:
                problems.append(f"{site_id}: WAL record of {txn_id!r} left behind")
    return failed, problems


async def run(
    name: str, seed: int, seconds: float, work_dir: Path, traced: bool
) -> dict[str, Any]:
    """One measured run of a live workload; the result dict for run.py."""
    shape = SHAPES[name]
    n_transactions = round(shape.rate * seconds)
    tracer = Tracer()
    if traced:
        layers.install(tracer)
    try:
        return await _measure(shape, seed, seconds, n_transactions, work_dir, tracer, traced)
    finally:
        tracer.unwrap_all()


async def _measure(
    shape: LiveShape,
    seed: int,
    seconds: float,
    n_transactions: int,
    work_dir: Path,
    tracer: Tracer,
    traced: bool,
) -> dict[str, Any]:
    setup_times: list[float] = []
    prepared: Optional[Prepared] = None
    for attempt in range(SETUPS):
        data_dir = work_dir / f"cluster{attempt}"
        if prepared is not None:
            await prepared.sweeper.stop()
            await prepared.cluster.shutdown()
            shutil.rmtree(prepared.cluster.data_dir)
        prepared = await set_up(shape, seed, n_transactions, data_dir, tracer, traced)
        setup_times.append(prepared.seconds)
    assert prepared is not None
    cluster, sweeper = prepared.cluster, prepared.sweeper
    assert cluster.sim is not None
    logs = [site.log for site in cluster.sites.values()]
    requests_before = sum(log.force_requests for log in logs)
    forces_before = sum(log.force_count for log in logs)
    sweeps_before = sweeper.sweeps
    wal_before = len(sweeper.wal_lengths)
    start_units = cluster.sim.now + LEAD_S / TIME_SCALE
    stream = stretch(prepared.stream, start_units, seconds / TIME_SCALE)
    window_start = time.perf_counter()
    for txn in stream:
        cluster.submit(txn)
    ids = [txn.txn_id for txn in stream]
    count = windows_for(seconds)
    width = seconds / count / TIME_SCALE
    edges = [start_units + k * width for k in range(count + 1)]
    cpu_at = []
    for edge in edges:
        await asyncio.sleep(max(0.0, (edge - cluster.sim.now) * TIME_SCALE))
        cpu_at.append(time.process_time())
    await sweeper.until_forgotten(ids, DRAIN_LIMIT_S)
    await sweeper.stop()
    force_requests = sum(log.force_requests for log in logs) - requests_before
    forces = sum(log.force_count for log in logs) - forces_before
    sweeps = sweeper.sweeps - sweeps_before
    await cluster.finalize()
    decide_s = cluster.decision_latencies()
    outcomes = cluster.outcomes()
    await cluster.shutdown()

    stores, wal_txns = read_disk(cluster.data_dir, sorted(cluster.hosts))
    everything = prepared.warmup + stream
    failed, problems = check(
        everything, outcomes, set(sweeper.forgotten_at), stores, wal_txns
    )
    warm_failed = failed - set(ids)
    if warm_failed:
        problems.append(f"warm-up transactions failed: {sorted(warm_failed)}")
    failed &= set(ids)

    windows = [Window(width * TIME_SCALE) for _ in range(count)]
    for txn in stream:
        window = windows[min(count - 1, int((txn.submit_at - start_units) / width))]
        window.ops += 1
        forgotten = sweeper.forgotten_at.get(txn.txn_id)
        if forgotten is not None and edges[0] <= forgotten < edges[-1]:
            windows[min(count - 1, int((forgotten - start_units) / width))].done += 1
        if txn.txn_id in failed:
            continue
        window.decide_ms.append(decide_s[txn.txn_id] * 1e3)
        window.forget_ms.append((forgotten - txn.submit_at) * TIME_SCALE * 1e3)
    for window, before, after in zip(windows, cpu_at, cpu_at[1:]):
        window.cpu_s = after - before
    result: dict[str, Any] = {
        "attempted": len(ids),
        "failed": len(failed),
        "problems": problems,
        "setup_s": statistics.median(setup_times),
        "windows": windows,
        "layers": None,
    }
    if traced:
        result["layers"] = layers.metrics(
            tracer,
            window_start,
            txns=len(ids),
            seeds=0,
            sweeps=sweeps,
            wal_lengths=sweeper.wal_lengths[wal_before:],
            force_requests=force_requests,
            forces=forces,
        )
        result["tracer"] = tracer
    return result
