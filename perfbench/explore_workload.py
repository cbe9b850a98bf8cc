"""The explore workload: the adversarial explorer, in-process.

``ParallelRunner(jobs=1).sweep`` over five slices per round: PrAny in
the plain, sharded and replicated (3 acceptors) topologies, plus U2PC
and C2PC. Slice sizes keep every slice near a fifth of a round's time
(a replicated seed costs ~12x a plain one); each run prints the shares
it measured to standard error. Every round sweeps the same fixed seed
range of every slice, so the scenario set does not depend on
``--seed`` and every run attempts whole rounds of the same operations.
No socket and no file is touched: the simulator kernel, tracing,
engines, checkers and replication do all the work.

Each round also sweeps :data:`KNOWN_FAILURE`, a PrAny scenario on which
the program breaks Theorem 3 today (a participant keeps the UPDATE
record of a transaction forever). It fails every time and counts as one failed
operation per round; when the program is mended it starts to pass.

An operation is one seed. Its *decide* time runs from the start of its
sweep to the start of ``MDBS.finalize`` (the scenario has been driven
to quiescence); its *forget* time runs to the end of the sweep
(finalized, i.e. flushed and collected, and judged by the oracle).

Set-up is pure CPU work, so its time follows the host's speed, which
drifts over seconds. One set-up therefore runs before each measured
window, spread over the run like the windows themselves, and
``setup_s`` is their median. Spans recorded during a set-up are
dropped.

Checks, independent of the explorer's own pass/fail:

* Theorem 3: PrAny shows no oracle violation in any topology (a PrAny
  seed with one fails);
* Theorem 1: U2PC shows at least one atomicity violation in the run;
* Theorem 2: C2PC shows operational violations and no atomicity
  violation (a C2PC seed with one fails);
* a seed that raised or ran past :data:`SEED_LIMIT_S` fails;
* one PrAny seed, swept again, replays to the same trace digest.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Any

from repro.explore import GeneratorConfig, ParallelRunner
from repro.mdbs.system import MDBS

import layers
from spans import Tracer
from stats import Window, ratio, windows_for

#: (slice name, generator knobs, seeds per round).
SLICES: tuple[tuple[str, dict[str, Any], int], ...] = (
    ("prany-plain", {"protocol": "prany"}, 60),
    ("prany-sharded", {"protocol": "prany", "sharded": True}, 80),
    ("prany-replicated", {"protocol": "prany", "replicated": 3}, 6),
    ("u2pc", {"protocol": "u2pc"}, 64),
    ("c2pc", {"protocol": "c2pc"}, 16),
)
#: Generator salt of every slice.
SALT = 0
#: Warm-up seeds per slice in each set-up, swept from this seed on.
WARMUP_SEEDS = 6
WARMUP_BASE = 10_000
#: (slice, seed) of the scenario that breaks Theorem 3 on every sweep.
KNOWN_FAILURE = ("prany-plain", 1700)
#: Fewest set-ups a run takes, however few windows it has.
SETUPS = 3
#: A seed slower than this counts as timed out.
SEED_LIMIT_S = 10.0


class FinalizeClock:
    """Notes when ``MDBS.finalize`` starts: the end of a seed's decide
    phase. One clock read per seed, installed for untraced runs too."""

    def __init__(self) -> None:
        self.started = 0.0
        self._original = MDBS.finalize

    def __enter__(self) -> "FinalizeClock":
        original = self._original
        clock = self

        def finalize(mdbs: MDBS, *args: Any, **kwargs: Any) -> None:
            clock.started = time.perf_counter()
            original(mdbs, *args, **kwargs)

        MDBS.finalize = finalize  # type: ignore[method-assign]
        return self

    def __exit__(self, *_: Any) -> None:
        MDBS.finalize = self._original  # type: ignore[method-assign]


def set_up() -> tuple[dict[str, ParallelRunner], float]:
    """Build the runners and sweep a warm-up slice of every topology."""
    began = time.perf_counter()
    built = {
        name: ParallelRunner(GeneratorConfig(salt=SALT, **knobs), jobs=1)
        for name, knobs, _ in SLICES
    }
    for runner in built.values():
        runner.sweep(range(WARMUP_BASE, WARMUP_BASE + WARMUP_SEEDS))
    return built, time.perf_counter() - began


def round_operations() -> list[tuple[str, int]]:
    """The (slice, seed) pairs one round sweeps, in order."""
    operations = [
        (name, seed) for name, _, size in SLICES for seed in range(size)
    ]
    return operations + [KNOWN_FAILURE]


def run(seconds: float, traced: bool) -> dict[str, Any]:
    tracer = Tracer()
    if traced:
        layers.install(tracer)
    try:
        with FinalizeClock() as clock:
            return _measure(seconds, traced, tracer, clock)
    finally:
        tracer.unwrap_all()


def _measure(
    seconds: float, traced: bool, tracer: Tracer, clock: FinalizeClock
) -> dict[str, Any]:
    operations = round_operations()
    count = windows_for(seconds)
    width = seconds / count
    setup_times = []
    for _ in range(SETUPS - count):  # a short run still takes SETUPS
        with tracer.discarded():
            built, elapsed = set_up()
        setup_times.append(elapsed)
    windows = []
    slice_s = {name: 0.0 for name, _, _ in SLICES}
    failed = attempted = 0
    u2pc_atomicity = c2pc_operational = 0
    replay: "tuple[str, int, str] | None" = None
    window_start = 0.0
    for _ in range(count):
        with tracer.discarded():
            built, elapsed = set_up()
        setup_times.append(elapsed)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if not windows:
            window_start = wall0
        window = Window(0.0)
        windows.append(window)
        while window.ops == 0 or time.perf_counter() - wall0 < width:
            for name, seed in operations:
                window.ops += 1
                attempted += 1
                clock.started = 0.0
                began = time.perf_counter()
                try:
                    summary = built[name].sweep([seed]).completed[0]
                except Exception:  # a raising seed is a failed operation
                    failed += 1
                    continue
                ended = time.perf_counter()
                slice_s[name] += ended - began
                categories = set(summary.categories)
                if name.startswith("prany"):
                    bad = bool(categories)
                    if replay is None and not bad:
                        replay = (name, seed, summary.trace_sha256)
                elif name == "u2pc":
                    bad = False
                    u2pc_atomicity += "atomicity" in categories
                else:
                    bad = "atomicity" in categories
                    c2pc_operational += "operational" in categories
                if bad or ended - began > SEED_LIMIT_S or clock.started == 0.0:
                    failed += 1
                    continue
                window.done += 1
                window.decide_ms.append((clock.started - began) * 1e3)
                window.forget_ms.append((ended - began) * 1e3)
        window.seconds = time.perf_counter() - wall0
        window.cpu_s = time.process_time() - cpu0
    total_s = sum(slice_s.values())
    print(
        "perfbench: explore share of round time: "
        + ", ".join(
            f"{name} {100 * ratio(t, total_s):.1f}%" for name, t in slice_s.items()
        ),
        file=sys.stderr,
    )

    result: dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "problems": [],
        "setup_s": statistics.median(setup_times),
        "windows": windows,
        "layers": None,
    }
    if traced:
        txns = sum(
            span.value
            for span in tracer.since(window_start).get("explore.generate", [])
        )
        result["layers"] = layers.metrics(
            tracer,
            window_start,
            txns=txns,
            seeds=attempted,
            sweeps=0,
            wal_lengths=[],
            force_requests=0,
            forces=0,
        )
        result["tracer"] = tracer
    problems = result["problems"]
    if not u2pc_atomicity:
        problems.append("U2PC showed no atomicity violation (Theorem 1)")
    if not c2pc_operational:
        problems.append("C2PC showed no operational violation (Theorem 2)")
    if replay is None:
        problems.append("no PrAny seed completed, nothing to replay")
    else:
        name, seed, digest = replay
        if built[name].sweep([seed]).completed[0].trace_sha256 != digest:
            problems.append(f"{name} seed {seed} did not replay bit-exactly")

    return result
