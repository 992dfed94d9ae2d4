"""Contract tests for the pluggable storage backends.

Both backends must satisfy the same :class:`StorageBackend` protocol:
an ordered, truncatable write-ahead answer log; a monotonically
numbered checkpoint history; and honest bookkeeping. The memory
backend lives in process memory only; the SQLite backend persists
everything in one WAL-mode database and rejects files it does not own.
"""

import pytest

from repro.io import PersistenceError
from repro.storage import (
    AnswerRecord,
    CorruptStoreError,
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    StorageError,
    open_backend,
)


def record(seq, member="u1", kind="closed", rule=None, support=0.3, confidence=0.7):
    return AnswerRecord(
        seq=seq,
        member_id=member,
        kind=kind,
        rule_key=rule,
        support=support,
        confidence=confidence,
    )


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        store = MemoryBackend()
    else:
        store = SQLiteBackend(tmp_path / "session.db")
    yield store
    store.close()


class TestProtocol:
    def test_both_backends_satisfy_the_protocol(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_answer_log_is_ordered_by_seq(self, backend):
        for seq in (2, 0, 1):
            backend.append_answer(record(seq, member=f"u{seq}"))
        assert [r.seq for r in backend.answers()] == [0, 1, 2]
        assert [r.member_id for r in backend.answers()] == ["u0", "u1", "u2"]

    def test_answer_log_round_trips_fields(self, backend):
        original = record(
            0, member="члан-7", kind="open", rule='[["咳"],["蜂蜜"]]',
            support=0.125, confidence=0.875,
        )
        backend.append_answer(original)
        backend.append_answer(record(1, rule=None, support=None, confidence=None))
        stored, dry = backend.answers()
        assert stored == original
        assert dry.rule_key is None and dry.support is None

    def test_truncate_drops_the_tail_only(self, backend):
        for seq in range(5):
            backend.append_answer(record(seq))
        backend.truncate_answers(3)
        assert [r.seq for r in backend.answers()] == [0, 1, 2]
        backend.truncate_answers(0)
        assert backend.answers() == []

    def test_checkpoint_history_is_monotonic(self, backend):
        first = backend.save_checkpoint(b"one", questions=10, kb_rules=3)
        backend.append_answer(record(0))
        second = backend.save_checkpoint(b"two-longer", questions=20, kb_rules=5)
        assert second.checkpoint_id > first.checkpoint_id
        assert [c.checkpoint_id for c in backend.checkpoints()] == [
            first.checkpoint_id,
            second.checkpoint_id,
        ]
        assert first.answers_logged == 0
        assert second.answers_logged == 1
        assert second.payload_bytes == len(b"two-longer")

    def test_latest_checkpoint_returns_newest_payload(self, backend):
        assert backend.latest_checkpoint() is None
        backend.save_checkpoint(b"old", questions=1, kb_rules=1)
        backend.save_checkpoint(b"new", questions=2, kb_rules=2)
        info, payload = backend.latest_checkpoint()
        assert payload == b"new"
        assert info.questions == 2

    def test_describe_is_one_line(self, backend):
        assert "\n" not in backend.describe()


class TestMemoryBackend:
    def test_pathless_backend_has_no_disk_footprint(self):
        store = MemoryBackend()
        store.save_checkpoint(b"payload", questions=1, kb_rules=1)
        assert store.bytes_on_disk() == 0


class TestSQLiteBackend:
    def test_bytes_on_disk_grows_with_checkpoints(self, tmp_path):
        store = SQLiteBackend(tmp_path / "session.db")
        store.save_checkpoint(b"x" * 4096, questions=1, kb_rules=1)
        assert store.bytes_on_disk() > 0
        store.close()

    def test_reopen_resumes_the_same_store(self, tmp_path):
        path = tmp_path / "session.db"
        store = SQLiteBackend(path)
        store.append_answer(record(0))
        store.save_checkpoint(b"payload", questions=7, kb_rules=4)
        store.close()
        reopened = SQLiteBackend(path)
        assert [r.seq for r in reopened.answers()] == [0]
        info, payload = reopened.latest_checkpoint()
        assert (info.questions, payload) == (7, b"payload")
        reopened.close()

    def test_fresh_wipes_an_existing_store(self, tmp_path):
        path = tmp_path / "session.db"
        store = SQLiteBackend(path)
        store.append_answer(record(0))
        store.save_checkpoint(b"payload", questions=7, kb_rules=4)
        store.close()
        wiped = SQLiteBackend(path, fresh=True)
        assert wiped.answers() == []
        assert wiped.latest_checkpoint() is None
        wiped.close()

    def test_rejects_a_foreign_database(self, tmp_path):
        import sqlite3

        path = tmp_path / "other.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        conn.execute("INSERT INTO meta VALUES ('schema_version', '999')")
        conn.commit()
        conn.close()
        with pytest.raises(StorageError):
            SQLiteBackend(path)

    def test_resume_leaves_a_foreign_database_untouched(self, tmp_path):
        import sqlite3

        path = tmp_path / "app.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE users (name TEXT)")
        conn.commit()
        conn.close()
        with pytest.raises(StorageError, match="not a session store"):
            open_backend(path, resume=True)
        conn = sqlite3.connect(path)
        tables = conn.execute("SELECT name FROM sqlite_master").fetchall()
        mode = conn.execute("PRAGMA journal_mode").fetchone()
        conn.close()
        assert tables == [("users",)]
        assert mode == ("delete",)

    def test_fresh_open_drops_only_its_own_tables(self, tmp_path):
        import sqlite3

        path = tmp_path / "app.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE users (name TEXT)")
        conn.execute("CREATE TABLE answers (stale INTEGER)")
        conn.commit()
        conn.close()
        SQLiteBackend(path, fresh=True).close()
        conn = sqlite3.connect(path)
        tables = {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )}
        columns = [row[1] for row in conn.execute("PRAGMA table_info(answers)")]
        conn.close()
        assert "users" in tables
        assert "stale" not in columns


class TestOpenBackend:
    def test_kinds_and_defaults(self, tmp_path):
        sql = open_backend(tmp_path / "a.db")
        assert isinstance(sql, SQLiteBackend)
        sql.close()

    def test_sqlite_requires_a_path(self):
        with pytest.raises(StorageError):
            open_backend(None)

    def test_resume_requires_an_existing_store(self, tmp_path):
        with pytest.raises(StorageError):
            open_backend(tmp_path / "missing.db", resume=True)

    @pytest.mark.parametrize("mode", ["resume", "readonly"])
    def test_alien_file_is_storage_error(self, tmp_path, mode):
        path = tmp_path / "alien.bin"
        path.write_bytes(b"PNG\x00not ours" * 16)
        with pytest.raises(StorageError, match="not a session store"):
            open_backend(path, **{mode: True})

    def test_corrupt_store_error_is_both_hierarchies(self):
        assert issubclass(CorruptStoreError, StorageError)
        assert issubclass(CorruptStoreError, PersistenceError)
