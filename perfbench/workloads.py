"""The in-process workloads: the E7 session, the 50k-rule KB, sharded dispatch.

Each workload builds its inputs from the workload seed, sets up the
program (everything up to the first question) and then runs a fixed
amount of work. One process runs one repeat; every repeat of a seed
asks the same questions in the same order, so repeats compare step for
step and must end in the same session fingerprint. ``serveload.py``
holds the fourth workload, which drives a server in another process.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

from repro.core import Rule
from repro.crowd import ArrayCrowd, SimulatedCrowd, standard_answer_model
from repro.dispatch import DispatchConfig, LognormalLatency, ShardedDispatcher
from repro.estimation import Thresholds
from repro.eval.metrics import score_report
from repro.eval.runner import ExperimentConfig, build_world
from repro.miner import CrowdMiner, CrowdMinerConfig, FixedRatioPolicy
from repro.miner.oracle import compute_ground_truth

import hostprobe
from stats import FailureBook
from tracing import Tracer, trace_miner

THRESHOLDS = Thresholds(0.10, 0.5)


def stream(base: int, seed: int) -> int:
    """The seed of one random stream: ``base`` for workload seed 0, then apart by 1000s.

    Each workload keeps its world (population and habits) fixed at the
    world seed of the pytest benchmark it comes from, because the cost
    of a world swings by 2x and more from one world seed to the next
    (habit-pool sizes, peak RSS). The workload seed varies what a run
    would vary: the crowd's answer noise, the miner's choices, the seed
    rules and latency draws.
    """
    return base + 1_000 * seed


def random_rules(items, count: int, seed: int) -> tuple[Rule, ...]:
    """``count`` distinct random rules with 2–4-item bodies over ``items``.

    The order depends only on ``seed``: draws are deduplicated through
    an insertion-ordered dict, never through set iteration, whose order
    follows string hashing and so changes with ``PYTHONHASHSEED``.
    """
    rng = np.random.default_rng(seed)
    n = len(items)
    rules: dict[Rule, None] = {}
    while len(rules) < count:
        want = count - len(rules)
        sizes = rng.integers(2, 5, size=want)
        picks = rng.integers(0, n, size=(want, 4))
        cuts = 1 + (rng.random(want) * (sizes - 1)).astype(np.int64)
        for size, row, cut in zip(sizes.tolist(), picks.tolist(), cuts.tolist()):
            chosen = row[:size]
            if len(set(chosen)) < size:
                continue  # a repeated item; drawn again on the next pass
            names = [items[k] for k in chosen]
            rules.setdefault(Rule(names[:cut], names[cut:]), None)
            if len(rules) == count:
                break
    return tuple(rules)


def rules_fingerprint(rules) -> str:
    return hashlib.sha256("\n".join(map(str, rules)).encode()).hexdigest()


class Outcome:
    """What one measured run produced."""

    def __init__(self) -> None:
        self.questions = 0  #: questions counted into the knowledge base
        self.wall_s = 0.0
        self.steps: list[float] = []  #: wall seconds of each step
        #: host-speed samples (``hostprobe.sample``) taken between steps, untraced runs only
        self.samples: list[float] = []
        #: (steps, samples) of more repeats from the same run (serve's session copies)
        self.repeats: list[tuple[list[float], list[float]]] = []
        self.fingerprints: list[str] = []
        self.quality: dict[str, float] = {}  #: deterministic outputs (f1, makespan)
        self.checks = FailureBook()
        self.layers: dict[str, float] = {}
        self.cost: float | None = None  #: per-question cost compared by trace.overhead_ratio
        self.rss_mb: float | None = None  #: peak RSS, when not this process's own
        self.levels: list | None = None  #: serve's open-loop measurements per offered rate


def kb_layers(miners) -> dict[str, float]:
    """Knowledge-base metrics from the miners' own obs snapshots, summed."""
    out = {"kb.rules_final": 0, "kb.record_s": 0.0, "kb.propagate_s": 0.0}
    hits = lookups = 0
    for miner in miners:
        snap = miner.obs.snapshot()
        out["kb.rules_final"] += len(miner.state)
        for name in ("kb.record", "kb.propagate"):
            timer = snap.timers.get(name)
            out[name + "_s"] += 0.0 if timer is None else timer.total_seconds
        hits += snap.counters.get("kb.summary_hits", 0)
        lookups += snap.counters.get("kb.summary_hits", 0) + snap.counters.get(
            "kb.summary_misses", 0
        )
    out["kb.summary_hit_ratio"] = hits / lookups if lookups else 0.0
    return out


def _call_layers(tracer: Tracer, crowd, out: dict) -> None:
    """Crowd and miner metrics from the spans around their public calls."""
    summary = tracer.summary()

    def total(name, key="seconds"):
        return summary.get(name, {}).get(key, 0.0)

    first, again = total("crowd.open_first"), total("crowd.open")
    out["crowd.open_calls"] = total("crowd.open_first", "calls") + total("crowd.open", "calls")
    out["crowd.open_s"] = first + again
    out["crowd.open_first_s"] = first
    out["crowd.open_first_share"] = first / (first + again) if first + again else 0.0
    out["crowd.closed_calls"] = crowd.closed_answers
    out["crowd.closed_s"] = total("crowd.closed")
    out["crowd.next_member_s"] = total("crowd.next_member")
    out["crowd.self_s"] = sum(
        total(name, "self_seconds")
        for name in ("crowd.open_first", "crowd.open", "crowd.closed", "crowd.next_member")
    )
    out["miner.is_done_s"] = total("miner.is_done")
    out["miner.propose_s"] = total("miner.propose")
    out["miner.ingest_s"] = total("miner.ingest")
    out["miner.pose_self_s"] = total("miner.pose", "self_seconds")
    out["miner.self_s"] = sum(
        total(name, "self_seconds")
        for name in ("miner.is_done", "miner.step", "miner.propose", "miner.pose", "miner.ingest")
    )
    run = summary.get("run")
    out["trace.uncovered_share"] = run["self_seconds"] / run["seconds"] if run else 0.0


# -- step-loop workloads ---------------------------------------------------------


def _step_loop(
    miner, questions: int, outcome: Outcome, tracer: Tracer | None, sample_every: int
) -> None:
    """Ask up to ``questions`` questions one ``step`` at a time; a step includes its ``is_done``.

    Untraced, a host-speed sample follows every ``sample_every``-th step,
    outside the step's time.
    """
    steps = outcome.steps
    started = perf_counter()
    if tracer is None:
        while len(steps) < questions:
            t0 = perf_counter()
            if miner.is_done or miner.step() is None:
                break
            steps.append(perf_counter() - t0)
            if len(steps) % sample_every == 0:
                outcome.samples.append(hostprobe.sample())
    else:
        run = tracer.begin("run")
        while len(steps) < questions:
            t0 = perf_counter()
            tracer.request = miner.questions_asked
            span = tracer.begin("miner.is_done")
            done = miner.is_done
            tracer.end(span)
            if done:
                break
            span = tracer.begin("miner.step")
            event = miner.step()
            tracer.end(span)
            if event is None:
                break
            steps.append(perf_counter() - t0)
        tracer.end(run)
    outcome.wall_s = perf_counter() - started
    outcome.questions = miner.questions_asked


class StepWorkload:
    """Common run/check logic of the two synchronous step-loop workloads."""

    questions: int  #: steps a run takes (at most the miner's budget)
    sample_every: int  #: steps between host-speed samples

    def run(self, tracer: Tracer | None) -> Outcome:
        outcome = Outcome()
        miner = self.miner
        crowd = trace_miner(miner, tracer) if tracer is not None else None
        _step_loop(miner, self.questions, outcome, tracer, self.sample_every)
        result = miner.result()
        outcome.fingerprints.append(result.fingerprint())
        # Every step must have landed as a counted question.
        ok = len(result.log) == outcome.questions == self.questions
        if ok:
            outcome.checks.ok(outcome.questions)
        else:
            outcome.checks.ok(len(result.log))
            outcome.checks.fail(
                f"{outcome.questions} of {self.questions} questions asked, "
                f"{len(result.log)} logged"
            )
        self.check(miner, outcome)
        outcome.layers.update(self.setup_layers)
        if tracer is not None:
            _call_layers(tracer, crowd, outcome.layers)
            outcome.layers.update(kb_layers([miner]))
        return outcome

    def check(self, miner, outcome: Outcome) -> None:
        pass


class E7Session(StepWorkload):
    """The full-scale E7 world: one mixed open/closed session, no storage.

    A run asks the first 100 questions of the 3,000-question session.
    Those hold 16 open answers, each a member's first, which mines that
    member's habit pool: the costliest steps of the whole session, and
    nearly all of a run's time.

    The session is bench_e7_runtime's (crowd seed 78, miner seed 79)
    whatever the workload seed. Which members answer those open
    questions changes with any seed that changes an answer, and their
    habit pools differ in size: with the session following workload
    seeds 1–5, one host ran the prefix at 12.7–16.8 q/s, its tail step
    at 215–359 ms. That spread would hide the change being measured.
    """

    name = "e7-session"
    budget = 3_000
    questions = 100
    sample_every = 5
    world_seed = 77  #: bench_e7_runtime's E7 world

    def __init__(self, seed: int) -> None:
        config = ExperimentConfig(
            name="e7",
            n_items=300,
            n_patterns=30,
            n_members=60,
            transactions_per_member=200,
            budget=self.budget,
            checkpoints=(self.budget,),
            repetitions=1,
            seed=self.world_seed,
        )
        self.config_fp = hashlib.sha256(repr(config).encode()).hexdigest()
        t0 = perf_counter()
        _model, population, _ = build_world(config, seed=self.world_seed, ground_truth=False)
        t1 = perf_counter()
        self.truth = compute_ground_truth(
            population, config.thresholds(), max_body_size=config.max_body_size
        )
        t2 = perf_counter()
        crowd = SimulatedCrowd.from_population(
            population, answer_model=standard_answer_model(), seed=78
        )
        self.miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(thresholds=THRESHOLDS, budget=self.budget, seed=79),
        )
        self.setup_layers = {"synth.world_s": t1 - t0, "oracle.ground_truth_s": t2 - t1}

    def inputs_fingerprint(self) -> str:
        return self.config_fp

    def check(self, miner, outcome: Outcome) -> None:
        reported = miner.state.significant_rules(mode="point")
        f1 = score_report(reported, self.truth, miner.questions_asked).f1
        outcome.quality["f1"] = f1
        if len(self.truth) == 0 or not 0.0 <= f1 <= 1.0:
            outcome.checks.fail(f"f1 {f1} against {len(self.truth)} true rules")


class KbClosed(StepWorkload):
    """50,000 seeded random rules, closed questions only, no lattice expansion."""

    name = "kb-50k-closed"
    n_rules = 50_000
    world_seed = 91  #: bench_e7_runtime's KB-scale world
    budget = questions = 1_000
    sample_every = 4

    def __init__(self, seed: int) -> None:
        config = ExperimentConfig(
            name="kb",
            n_items=300,
            n_patterns=30,
            n_members=60,
            transactions_per_member=200,
            budget=self.budget,
            checkpoints=(self.budget,),
            repetitions=1,
            seed=self.world_seed,
        )
        t0 = perf_counter()
        model, population, _ = build_world(config, seed=self.world_seed, ground_truth=False)
        t1 = perf_counter()
        self.rules = random_rules(model.domain.items, self.n_rules, stream(92, seed))
        crowd = SimulatedCrowd.from_population(
            population, answer_model=standard_answer_model(), seed=stream(93, seed)
        )
        t2 = perf_counter()
        self.miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(
                thresholds=THRESHOLDS,
                budget=self.budget,
                seed_rules=self.rules,
                open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
                expand_generalizations=False,
                expand_splits=False,
                seed=stream(94, seed),
            ),
        )
        t3 = perf_counter()
        self.setup_layers = {"synth.world_s": t1 - t0, "miner.seed_kb_s": t3 - t2}

    def inputs_fingerprint(self) -> str:
        return rules_fingerprint(self.rules)

    def check(self, miner, outcome: Outcome) -> None:
        if miner.result().open_questions:
            outcome.checks.fail("an open question in a closed-only session")


# -- sharded dispatch ------------------------------------------------------------


class DispatchSharded:
    """A 100k-member array crowd behind two shards × window 32, closed only.

    A run is one dispatched session of 8,000 issued questions, about
    2 s on a 2-core machine.
    """

    name = "dispatch-sharded-100k"
    n_members = 100_000
    n_rules = 2_000
    issued = 8_000
    timeout = 600.0
    world_seed = 41
    sample_every = 50  #: landed answers between host-speed samples

    def __init__(self, seed: int) -> None:
        self.seed = seed
        config = ExperimentConfig(
            name="dispatch",
            n_items=80,
            n_patterns=10,
            n_members=self.n_members,
            transactions_per_member=100,
            budget=self.issued,
            checkpoints=(self.issued,),
            repetitions=1,
            seed=self.world_seed,
            population_backend="array",
        )
        t0 = perf_counter()
        model, population, _ = build_world(config, seed=self.world_seed, ground_truth=False)
        t1 = perf_counter()
        self.rules = random_rules(model.domain.items, self.n_rules, stream(42, seed))
        crowd = ArrayCrowd(
            population, answer_model=standard_answer_model(), seed=stream(43, seed)
        )
        t2 = perf_counter()
        self.miner = CrowdMiner(
            crowd,
            CrowdMinerConfig(
                thresholds=THRESHOLDS,
                budget=self.issued,
                seed_rules=self.rules,
                open_policy=FixedRatioPolicy(0.0, fallback_to_open=False),
                expand_generalizations=False,
                expand_splits=False,
                seed=stream(44, seed),
            ),
        )
        t3 = perf_counter()
        self.dispatcher = ShardedDispatcher(
            self.miner,
            DispatchConfig(
                window=32,
                timeout=self.timeout,
                latency=LognormalLatency(median=60.0, sigma=1.0),
                seed=stream(45, seed),
            ),
            shards=2,
        )
        self.setup_layers = {"synth.world_s": t1 - t0, "miner.seed_kb_s": t3 - t2}

    def inputs_fingerprint(self) -> str:
        return rules_fingerprint(self.rules)

    def run(self, tracer: Tracer | None) -> Outcome:
        outcome = Outcome()
        outcome.layers.update(self.setup_layers)
        miner, dispatcher = self.miner, self.dispatcher
        crowd = None
        if tracer is not None:
            root = tracer.begin("run")
            crowd = trace_miner(miner, tracer)
            for shard in dispatcher.shards:
                shard.scheduler.next_member = tracer.wrap(
                    "crowd.next_member", shard.scheduler.next_member
                )
        # A step is one merge-loop turn that delivers an answer: the
        # time between consecutive returns from ingest_answer, less the
        # host-speed samples taken between them (untraced runs).
        steps, samples = outcome.steps, outcome.samples
        resumed = [0.0]
        ingest = miner.ingest_answer
        every = self.sample_every if tracer is None else 0

        def stamped_ingest(proposal, answer):
            event = ingest(proposal, answer)
            landed = perf_counter()
            steps.append(landed - resumed[0])
            resumed[0] = landed
            if every and len(steps) % every == 0:
                samples.append(hostprobe.sample())
                resumed[0] = perf_counter()
            return event

        miner.ingest_answer = stamped_ingest
        started = resumed[0] = perf_counter()
        if tracer is None:
            result = dispatcher.run()
        else:
            span = tracer.begin("dispatch.run")
            result = dispatcher.run()
            tracer.end(span)
            tracer.end(root)
        outcome.wall_s = perf_counter() - started
        stats = result.dispatch
        outcome.questions = stats.completed
        outcome.fingerprints.append(result.fingerprint())
        outcome.quality["sim_makespan_s"] = stats.makespan
        books = (
            stats.completed
            + stats.stale_discarded
            + stats.malformed
            + stats.rejected
            + stats.timeouts
            + stats.crashed
        )
        outcome.checks.ok(stats.issued - (stats.malformed + stats.rejected + stats.crashed))
        for _ in range(stats.malformed + stats.rejected + stats.crashed):
            outcome.checks.fail("a malformed, rejected or crashed answer")
        if books != stats.issued or stats.issued != self.issued:
            outcome.checks.fail(f"dispatch books do not balance: {stats}")
        if tracer is not None:
            layers = outcome.layers
            _call_layers(tracer, crowd, layers)
            layers.update(kb_layers([miner]))
            layers["dispatch.self_s"] = tracer.summary()["dispatch.run"]["self_seconds"]
            layers["dispatch.issued"] = stats.issued
            layers["dispatch.completed"] = stats.completed
            layers["dispatch.stale"] = stats.stale_discarded
            layers["dispatch.timeouts"] = stats.timeouts
            layers["dispatch.dropped"] = stats.dropped
            layers["dispatch.useful_ratio"] = stats.completed / stats.issued
        return outcome


WORKLOADS = {w.name: w for w in (E7Session, KbClosed, DispatchSharded)}
