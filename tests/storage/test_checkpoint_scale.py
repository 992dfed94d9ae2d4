"""Checkpoints stay bounded at crowd scale, and sharded sessions resume.

Satellites of the scaling refactor (``docs/scaling.md``): a checkpoint
must carry the session (knowledge base, dispatch books, sparse crowd
state) and the population *recipe* — never the per-member state, which
is regenerated on demand. So checkpoint size must be flat in member
count, and a sharded session killed mid-flight must resume
byte-identically, exactly like the single-dispatcher contract in
``test_checkpoint_resume.py``.
"""

from repro._util import as_rng
from repro.crowd import ArrayCrowd, ExactAnswerModel
from repro.dispatch import DispatchConfig, LognormalLatency, ShardedDispatcher
from repro.estimation import Thresholds
from repro.eval.runner import (
    ExperimentConfig,
    _miner_config,
    build_crowd,
    build_world,
)
from repro.miner import CrowdMiner, CrowdMinerConfig, FixedRatioPolicy
from repro.storage import capture_session, load_session, open_backend, restore_session
from repro.synth import ArrayPopulation, folk_remedies_model


def array_session(n_members, questions=60):
    model = folk_remedies_model(seed=1)
    population = ArrayPopulation(
        model, n_members=n_members, transactions_per_member=80, seed=7
    )
    crowd = ArrayCrowd(population, answer_model=ExactAnswerModel(), seed=5)
    miner = CrowdMiner(
        crowd,
        CrowdMinerConfig(
            thresholds=Thresholds(0.10, 0.5),
            budget=questions,
            open_policy=FixedRatioPolicy(0.2),
            seed=6,
        ),
    )
    miner.run()
    return miner


class TestCheckpointSizeAtScale:
    def test_size_flat_in_member_count(self):
        small = array_session(n_members=1_000)
        large = array_session(n_members=100_000)
        small_payload = capture_session(small)
        large_payload = capture_session(large)
        # Same session over a 100x crowd: the payload may only differ
        # by which members happened to be questioned, never by O(n)
        # member state.
        assert len(large_payload) < 1.2 * len(small_payload) + 4096, (
            f"checkpoint grew from {len(small_payload)} to "
            f"{len(large_payload)} bytes over a 100x crowd"
        )

    def test_restored_large_session_still_answers(self):
        miner = array_session(n_members=100_000, questions=40)
        restored, dispatcher = restore_session(capture_session(miner))
        assert dispatcher is None
        assert restored.questions_asked == miner.questions_asked
        # The restored crowd regenerates member state on demand.
        member = restored.crowd.next_member()
        rule = next(iter(restored.state.rules())).rule
        answer = restored.crowd.ask_closed(member, rule)
        assert 0.0 <= answer.stats.support <= 1.0


CFG = ExperimentConfig(
    name="sharded-resume",
    budget=160,
    checkpoints=(160,),
    repetitions=1,
    n_items=24,
    n_patterns=5,
    n_members=12,
    transactions_per_member=50,
)


def make_miner(storage=None, checkpoint_every=0):
    _, population, _ = build_world(CFG, 42)
    rng = as_rng(777)
    crowd = build_crowd(CFG, population, rng)
    config = _miner_config(CFG, rng)
    config.checkpoint_every = checkpoint_every
    return CrowdMiner(crowd, config, storage=storage)


def dispatch_config():
    return DispatchConfig(
        window=8, timeout=500.0, latency=LognormalLatency(2.0, 1.0), seed=99
    )


class TestShardedKillResume:
    def test_mid_flight_kill_resumes_byte_identically(self, tmp_path):
        baseline = ShardedDispatcher(make_miner(), dispatch_config(), shards=4).run()

        path = str(tmp_path / "sharded.db")
        storage = open_backend(path)
        miner = make_miner(storage=storage, checkpoint_every=40)
        dispatcher = ShardedDispatcher(miner, dispatch_config(), shards=4)
        dispatcher._fill_all()
        while dispatcher.in_flight_count and miner.questions_asked < 130:
            upcoming = dispatcher._next_event()
            if upcoming is None:
                break
            dispatcher.shards[upcoming[1]].clock.pop()
            dispatcher._maybe_checkpoint()
            dispatcher._fill_all()
        assert dispatcher.in_flight_count, "want questions in flight at the kill"
        del miner, dispatcher
        storage.close()

        resumed_storage = open_backend(path, resume=True)
        miner, dispatcher, info = load_session(resumed_storage)
        assert isinstance(dispatcher, ShardedDispatcher)
        assert dispatcher.n_shards == 4
        assert info.questions == 120
        result = dispatcher.run()
        assert result.fingerprint() == baseline.fingerprint()
        assert result.dispatch == baseline.dispatch
        resumed_storage.close()

    def test_sharded_snapshot_roundtrips_in_memory(self):
        miner = make_miner()
        dispatcher = ShardedDispatcher(miner, dispatch_config(), shards=3)
        dispatcher._fill_all()
        for _ in range(25):
            upcoming = dispatcher._next_event()
            if upcoming is None:
                break
            dispatcher.shards[upcoming[1]].clock.pop()
            dispatcher._fill_all()
        payload = capture_session(miner, dispatcher)

        final = dispatcher.run()
        restored_miner, restored_dispatcher = restore_session(payload)
        assert isinstance(restored_dispatcher, ShardedDispatcher)
        resumed = restored_dispatcher.run()
        assert resumed.fingerprint() == final.fingerprint()
        assert resumed.dispatch == final.dispatch
