"""Scrub-on-open and checkpoint repair for a full mining session.

The storage half of the chaos tentpole, exercised without HTTP: a real
miner checkpoints to a real store, the store gets damaged the way
disks damage things (torn tails, flipped bits), and
``load_session(repair=True)`` must fall back to the newest checkpoint
whose checksum holds — finishing with a fingerprint byte-identical to
an undamaged run's. Without ``repair`` the corruption must be *loud*:
a :class:`CorruptStoreError` naming the damage, never garbage state.
"""

import pytest

from repro.miner import CrowdMiner
from repro.serve import Scenario
from repro.storage import (
    CorruptStoreError,
    SQLiteBackend,
    load_session,
    open_backend,
    scrub_store,
)

SCENARIO = Scenario(n_members=6, transactions_per_member=40, budget=30)


def build_miner(storage):
    return CrowdMiner(
        SCENARIO.build_crowd(),
        SCENARIO.miner_config(checkpoint_every=5),
        storage=storage,
    )


def damage(path, checkpoint_id, *, mode):
    """Corrupt one checkpoint row the way a disk would."""
    import sqlite3

    conn = sqlite3.connect(path)
    (blob,) = conn.execute(
        "SELECT payload FROM checkpoints WHERE id=?", (checkpoint_id,)
    ).fetchone()
    if mode == "torn":
        blob = blob[: len(blob) // 3]
    else:
        damaged = bytearray(blob)
        damaged[len(damaged) // 2] ^= 0x10
        blob = bytes(damaged)
    conn.execute(
        "UPDATE checkpoints SET payload=? WHERE id=?", (blob, checkpoint_id)
    )
    conn.commit()
    conn.close()


@pytest.fixture
def finished_store(tmp_path):
    """A completed durable session and its clean fingerprint."""
    path = tmp_path / "s.db"
    storage = SQLiteBackend(path)
    miner = build_miner(storage)
    result = miner.run()
    miner.checkpoint()
    storage.close()
    return path, result.fingerprint()


class TestScrub:
    def test_clean_store_scrubs_clean(self, finished_store):
        path, _fp = finished_store
        storage = open_backend(path, resume=True)
        verified, corrupt = scrub_store(storage)
        assert corrupt == []
        assert len(verified) >= 2
        storage.close()

    @pytest.mark.parametrize("mode", ["torn", "bitflip"])
    def test_scrub_localizes_damage(self, finished_store, mode):
        path, _fp = finished_store
        storage = open_backend(path, resume=True)
        victim = storage.checkpoints()[-2].checkpoint_id
        storage.close()
        damage(path, victim, mode=mode)
        storage = open_backend(path, resume=True)
        verified, corrupt = scrub_store(storage)
        assert [info.checkpoint_id for info in corrupt] == [victim]
        assert victim not in {info.checkpoint_id for info in verified}
        storage.close()


class TestRepair:
    def test_corrupt_latest_is_loud_without_repair(self, finished_store):
        path, _fp = finished_store
        storage = open_backend(path, resume=True)
        latest = storage.checkpoints()[-1].checkpoint_id
        storage.close()
        damage(path, latest, mode="bitflip")
        storage = open_backend(path, resume=True)
        with pytest.raises(CorruptStoreError, match="--repair"):
            load_session(storage)
        storage.close()

    def test_repair_falls_back_and_converges(self, finished_store):
        path, clean_fp = finished_store
        storage = open_backend(path, resume=True)
        latest = storage.checkpoints()[-1].checkpoint_id
        storage.close()
        damage(path, latest, mode="torn")
        storage = open_backend(path, resume=True)
        miner, dispatcher, info = load_session(storage, repair=True)
        assert dispatcher is None
        assert info.checkpoint_id != latest
        # The bad row is gone from the store, not just skipped.
        assert latest not in {c.checkpoint_id for c in storage.checkpoints()}
        assert miner.obs.snapshot().counters["storage.repaired"] == 1
        result = miner.run()
        miner.checkpoint()
        storage.close()
        assert result.fingerprint() == clean_fp

    def test_repair_survives_multiple_corrupt_checkpoints(self, finished_store):
        path, clean_fp = finished_store
        storage = open_backend(path, resume=True)
        victims = [info.checkpoint_id for info in storage.checkpoints()[-3:]]
        storage.close()
        for n, victim in enumerate(victims):
            damage(path, victim, mode="torn" if n % 2 else "bitflip")
        storage = open_backend(path, resume=True)
        miner, _dispatcher, info = load_session(storage, repair=True)
        assert info.checkpoint_id not in victims
        assert miner.obs.snapshot().counters["storage.repaired"] == len(victims)
        result = miner.run()
        storage.close()
        assert result.fingerprint() == clean_fp

    def test_nothing_verified_is_corrupt_store_error(self, finished_store):
        path, _fp = finished_store
        storage = open_backend(path, resume=True)
        victims = [info.checkpoint_id for info in storage.checkpoints()]
        storage.close()
        for victim in victims:
            damage(path, victim, mode="bitflip")
        storage = open_backend(path, resume=True)
        with pytest.raises(CorruptStoreError, match="no verified checkpoint"):
            load_session(storage, repair=True)
        storage.close()

    def test_readonly_repair_skips_without_dropping(self, finished_store):
        path, _fp = finished_store
        storage = open_backend(path, resume=True)
        latest = storage.checkpoints()[-1].checkpoint_id
        n_checkpoints = len(storage.checkpoints())
        storage.close()
        damage(path, latest, mode="bitflip")
        storage = open_backend(path, readonly=True)
        miner, _dispatcher, info = load_session(
            storage, rollback=False, repair=True
        )
        assert info.checkpoint_id != latest
        # Read-only: the corrupt row is skipped, never deleted.
        assert len(storage.checkpoints()) == n_checkpoints
        storage.close()
