"""E7 — system runtime (table).

The paper's system-side measurement: what does question selection cost
as the knowledge base grows? Selection is the per-question inner loop
(rank every unresolved rule), so its latency must stay in the
low-millisecond range even with thousands of known rules — crowd
latency, not CPU, must dominate a session.

Two measurements:

- the full-session latency table (per-question cost bucketed by
  knowledge-base size, open-question simulation included);
- a closed-only throughput benchmark against a *pre-seeded* knowledge
  base at the largest configured size, which isolates the knowledge-base
  data structures (index, cached summaries, maintained views) from the
  cost of simulating members' memories. This one asserts a throughput
  floor, so an accidental O(n²) regression in the inner loop fails CI
  instead of surfacing as benchmark drift months later;
- an in-flight window sweep under the dispatch engine: the same
  session at windows 1, 8 and 32, asserting that simulated makespan
  improves monotonically as more questions overlap. Here the clock is
  the *simulated* one — the sweep measures the dispatcher's batching
  payoff, while pytest-benchmark still records the CPU cost of driving
  the event loop;
- a checkpoint-overhead variant: the same full session run plain and
  with a SQLite store checkpointing every 100 questions, asserting the
  persistence layer stays within a 10% share of session wall time
  (``docs/persistence.md``).

Both print the session's own instrumentation (``repro.obs``), so the
numbers come with their per-phase breakdown attached.
"""

import time

import numpy as np

from repro.core import Rule
from repro.crowd import SimulatedCrowd, standard_answer_model
from repro.dispatch import DispatchConfig, Dispatcher, LognormalLatency
from repro.estimation import Thresholds
from repro.eval import format_rows
from repro.eval.runner import ExperimentConfig, build_world
from repro.miner import CrowdMiner, CrowdMinerConfig, FixedRatioPolicy
from repro.storage import SQLiteBackend

from conftest import run_once

SETTINGS = {
    "full": dict(n_items=300, n_patterns=30, n_members=60, budget=3_000),
    "smoke": dict(n_items=80, n_patterns=10, n_members=15, budget=400),
}

#: The dispatch sweep: budget for the windowed sessions and the
#: latency every member answers with (lognormal, median ~a minute).
DISPATCH_SETTINGS = {
    "full": dict(budget=1_500, median=60.0, sigma=1.0),
    "smoke": dict(budget=250, median=60.0, sigma=1.0),
}

#: In-flight windows swept by the dispatch benchmark, small to large.
DISPATCH_WINDOWS = (1, 8, 32)

#: The KB-scale benchmark: how many rules are pre-seeded (the largest
#: knowledge-base size exercised) and how many closed questions are
#: then pushed through it.
KB_SETTINGS = {
    "full": dict(seed_rules=5_000, budget=1_500, floor_qps=400.0),
    "smoke": dict(seed_rules=1_000, budget=300, floor_qps=600.0),
}

#: The checkpoint-overhead variant: checkpoint cadence and the maximum
#: share of session wall time the persistence layer may consume. The
#: 10% ceiling is the repo's stated overhead budget for ``--checkpoint``
#: at the default cadence (``docs/persistence.md``).
CKPT_SETTINGS = {
    "full": dict(checkpoint_every=100, max_overhead=0.10),
    "smoke": dict(checkpoint_every=100, max_overhead=0.10),
}


def _print_obs(miner, title):
    snapshot = miner.obs.snapshot()
    print()
    print(f"--- instrumentation ({title}) ---")
    print(snapshot.format())


def test_e7_selection_latency(benchmark, scale):
    cfg = SETTINGS[scale]
    config = ExperimentConfig(
        name="e7",
        n_items=cfg["n_items"],
        n_patterns=cfg["n_patterns"],
        n_members=cfg["n_members"],
        budget=cfg["budget"],
        checkpoints=(cfg["budget"],),
        repetitions=1,
        seed=77,
    )
    _, population, _ = build_world(config, seed=77)
    crowd = SimulatedCrowd.from_population(
        population, answer_model=standard_answer_model(), seed=78
    )
    miner = CrowdMiner(
        crowd,
        CrowdMinerConfig(thresholds=Thresholds(0.10, 0.5), budget=cfg["budget"], seed=79),
    )

    buckets: dict[int, list[float]] = {}

    def run():
        bucket_width = 250
        while not miner.is_done:
            kb_size = len(miner.state)
            started = time.perf_counter()
            if miner.step() is None:
                break
            elapsed = time.perf_counter() - started
            buckets.setdefault(kb_size // bucket_width * bucket_width, []).append(elapsed)
        return buckets

    run_once(benchmark, run)

    rows = []
    for bucket in sorted(buckets):
        samples = buckets[bucket]
        mean_ms = 1_000 * sum(samples) / len(samples)
        worst_ms = 1_000 * max(samples)
        rows.append((f"{bucket}–{bucket + 249}", len(samples), f"{mean_ms:.2f}", f"{worst_ms:.2f}"))
    print()
    print(f"=== E7: per-question latency vs knowledge-base size ({scale}) ===")
    print(format_rows(("KB size (rules)", "questions", "mean ms/q", "max ms/q"), rows))
    _print_obs(miner, f"e7 session, {scale}")

    # The claim: selection stays interactive (well under the seconds a
    # human needs to answer) even at the largest knowledge-base size.
    largest = max(buckets)
    mean_ms = 1_000 * sum(buckets[largest]) / len(buckets[largest])
    assert mean_ms < 200.0


def _random_seed_rules(items, count, rng):
    """``count`` distinct random rules over ``items`` (2–4 item bodies).

    Returned in generation order (a dict keeps insertion order), so the
    seed-rule order follows ``rng`` alone, not the hash seed.
    """
    rules: dict[Rule, None] = {}
    while len(rules) < count:
        size = int(rng.integers(2, 5))
        chosen = [items[k] for k in rng.choice(len(items), size=size, replace=False)]
        cut = int(rng.integers(1, size))
        rules[Rule(chosen[:cut], chosen[cut:])] = None
    return tuple(rules)


def test_e7_kb_scale_closed_throughput(benchmark, scale):
    """Closed-question throughput with thousands of rules pre-seeded.

    Every question here is a closed question against an already-large
    knowledge base, so the measured cost is the knowledge base itself:
    strategy ranking over the unresolved view, evidence recording,
    summary (re)computation and lattice maintenance. The full-scale
    floor is set far below the measured throughput of the incremental
    implementation but above what a per-question full-scan rebuild can
    reach at 5 000 rules — it guards the complexity class, not the
    constant. (The smoke floor is necessarily looser: a 1 000-rule KB
    doesn't separate the complexity classes as sharply.)
    """
    cfg = KB_SETTINGS[scale]
    world = ExperimentConfig(
        name="e7-kb",
        n_items=SETTINGS[scale]["n_items"],
        n_patterns=SETTINGS[scale]["n_patterns"],
        n_members=SETTINGS[scale]["n_members"],
        budget=cfg["budget"],
        checkpoints=(cfg["budget"],),
        repetitions=1,
        seed=91,
    )
    model, population, _ = build_world(world, seed=91)
    rng = np.random.default_rng(92)
    seed_rules = _random_seed_rules(model.domain.items, cfg["seed_rules"], rng)
    crowd = SimulatedCrowd.from_population(
        population, answer_model=standard_answer_model(), seed=93
    )
    miner = CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=Thresholds(0.10, 0.5),
            budget=cfg["budget"],
            seed_rules=seed_rules,
            open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
            expand_generalizations=False,
            expand_splits=False,
            seed=94,
        ),
    )

    def run():
        started = time.perf_counter()
        asked = 0
        while asked < cfg["budget"] and not miner.is_done:
            if miner.step() is None:
                break
            asked += 1
        return asked, time.perf_counter() - started

    asked, elapsed = run_once(benchmark, run)

    qps = asked / elapsed if elapsed > 0 else float("inf")
    print()
    print(f"=== E7: closed-question throughput at {len(seed_rules)} seeded rules ({scale}) ===")
    print(
        f"{asked} questions in {elapsed:.3f}s — {qps:.0f} q/s "
        f"({1_000 * elapsed / max(1, asked):.2f} ms/q)"
    )
    _print_obs(miner, f"kb-scale session, {scale}")

    assert asked > 0
    assert qps >= cfg["floor_qps"], (
        f"closed-question throughput {qps:.0f} q/s fell below the "
        f"{cfg['floor_qps']} q/s floor at {len(seed_rules)} rules"
    )


def _e7_session(cfg, storage, checkpoint_every):
    """The standard E7 session, optionally persisted to ``storage``."""
    config = ExperimentConfig(
        name="e7-ckpt",
        n_items=cfg["n_items"],
        n_patterns=cfg["n_patterns"],
        n_members=cfg["n_members"],
        budget=cfg["budget"],
        checkpoints=(cfg["budget"],),
        repetitions=1,
        seed=77,
    )
    _, population, _ = build_world(config, seed=77)
    crowd = SimulatedCrowd.from_population(
        population, answer_model=standard_answer_model(), seed=78
    )
    return CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=Thresholds(0.10, 0.5),
            budget=cfg["budget"],
            checkpoint_every=checkpoint_every,
            seed=79,
        ),
        storage=storage,
    )


def test_e7_checkpoint_overhead(benchmark, scale, tmp_path):
    """Persistence overhead of a checkpointed session vs the plain one.

    Runs the identical E7 session twice — without storage, and with the
    SQLite backend checkpointing every ``checkpoint_every`` questions —
    and bounds the persistence layer's share of the checkpointed
    session's wall time. The assertion reads the session's own
    ``storage.checkpoint`` timer rather than the plain-vs-persisted
    throughput delta: on a shared CI runner the end-to-end delta is
    dominated by machine noise (the true overhead is a few percent),
    while the timer share measures exactly the cost being budgeted and
    stays stable. The write-ahead answer log batches into the
    checkpoint transaction, so its per-question cost is one uncommitted
    INSERT — included in the wall time, invisible in the timer, and an
    order of magnitude below the capture cost it rides along with.
    Both throughputs are still printed for the table.
    """
    cfg = dict(SETTINGS[scale])
    cfg.update(CKPT_SETTINGS[scale])

    def run():
        results = {}
        for label, storage, every in (
            ("plain", None, 0),
            ("sqlite", SQLiteBackend(tmp_path / "e7.db", fresh=True), cfg["checkpoint_every"]),
        ):
            miner = _e7_session(cfg, storage, every)
            started = time.perf_counter()
            asked = 0
            while not miner.is_done:
                if miner.step() is None:
                    break
                asked += 1
            if storage is not None:
                miner.checkpoint()  # final capture, as the CLI does
            elapsed = time.perf_counter() - started
            if storage is not None:
                storage.close()
            results[label] = (asked, elapsed, miner)
        return results

    results = run_once(benchmark, run)

    rows = []
    for label, (asked, elapsed, miner) in results.items():
        snapshot = miner.obs.snapshot()
        timer = snapshot.timers.get("storage.checkpoint")
        rows.append(
            (
                label,
                asked,
                f"{elapsed:.3f}",
                f"{asked / elapsed:.0f}",
                0 if timer is None else timer.calls,
                "-" if timer is None else f"{1_000 * timer.total_seconds:.0f}",
            )
        )
    print()
    print(
        f"=== E7: checkpoint overhead, sqlite every "
        f"{cfg['checkpoint_every']} questions ({scale}) ==="
    )
    print(
        format_rows(
            ("session", "questions", "wall s", "q/s", "checkpoints", "ckpt ms"),
            rows,
        )
    )
    _print_obs(results["sqlite"][2], f"checkpointed e7 session, {scale}")

    asked, elapsed, miner = results["sqlite"]
    snapshot = miner.obs.snapshot()
    assert asked == cfg["budget"]
    assert snapshot.counters["storage.answers_logged"] == asked
    # The in-session cadence plus the final capture.
    expected = asked // cfg["checkpoint_every"] + 1
    assert snapshot.counters["storage.checkpoints"] == expected
    overhead = snapshot.timers["storage.checkpoint"].total_seconds / elapsed
    assert overhead <= cfg["max_overhead"], (
        f"checkpointing consumed {100 * overhead:.1f}% of session wall time, "
        f"over the {100 * cfg['max_overhead']:.0f}% budget"
    )


def test_e7_dispatch_window_sweep(benchmark, scale):
    """Simulated makespan vs in-flight window under human-scale latency.

    The crowd answers on a lognormal clock (median about a minute), so
    with one question in flight the session's wall time is the sum of
    every answer delay. Widening the window overlaps those waits; the
    sweep asserts the payoff is monotone — each wider window finishes
    the same budget in no more simulated time, and window 8 beats
    window 1 outright.
    """
    cfg = DISPATCH_SETTINGS[scale]
    world = ExperimentConfig(
        name="e7-dispatch",
        n_items=SETTINGS[scale]["n_items"],
        n_patterns=SETTINGS[scale]["n_patterns"],
        n_members=SETTINGS[scale]["n_members"],
        budget=cfg["budget"],
        checkpoints=(cfg["budget"],),
        repetitions=1,
        seed=85,
    )
    _, population, _ = build_world(world, seed=85)

    def run():
        makespans = {}
        for window in DISPATCH_WINDOWS:
            crowd = SimulatedCrowd.from_population(
                population, answer_model=standard_answer_model(), seed=86
            )
            miner = CrowdMiner(
                crowd,
                CrowdMinerConfig(
                    thresholds=Thresholds(0.10, 0.5),
                    budget=cfg["budget"],
                    seed=87,
                ),
            )
            dispatcher = Dispatcher(
                miner,
                DispatchConfig(
                    window=window,
                    latency=LognormalLatency(
                        median=cfg["median"], sigma=cfg["sigma"]
                    ),
                    seed=88,
                ),
            )
            result = dispatcher.run()
            makespans[window] = (result.dispatch, miner)
        return makespans

    makespans = run_once(benchmark, run)

    rows = []
    for window in DISPATCH_WINDOWS:
        stats, _ = makespans[window]
        rows.append(
            (
                window,
                stats.issued,
                stats.completed,
                stats.in_flight_high_water,
                f"{stats.makespan:,.0f}",
            )
        )
    print()
    print(f"=== E7: simulated makespan vs in-flight window ({scale}) ===")
    print(
        format_rows(
            ("window", "issued", "completed", "high water", "makespan (sim s)"),
            rows,
        )
    )
    _print_obs(makespans[DISPATCH_WINDOWS[-1]][1], f"window {DISPATCH_WINDOWS[-1]}, {scale}")

    # Monotone payoff: a wider window never loses, and overlapping
    # even eight questions wins outright over the serial session.
    for narrow, wide in zip(DISPATCH_WINDOWS, DISPATCH_WINDOWS[1:]):
        assert makespans[wide][0].makespan <= makespans[narrow][0].makespan, (
            f"window {wide} took {makespans[wide][0].makespan:.0f}s, "
            f"more than window {narrow} at {makespans[narrow][0].makespan:.0f}s"
        )
    assert makespans[8][0].makespan < makespans[1][0].makespan
