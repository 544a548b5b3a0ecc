"""Unit tests for the uncertain-table substrate."""

import pytest

from repro.core.errors import ModelError
from repro.db.attributes import ExactValue, IntervalValue, MissingValue
from repro.db.scoring import InverseAttributeScore
from repro.db.table import UncertainTable


@pytest.fixture
def table():
    rows = [
        {"id": "a", "rent": 600.0, "rooms": 1},
        {"id": "b", "rent": (650.0, 1100.0), "rooms": 2},
        {"id": "c", "rent": None, "rooms": 3},
    ]
    return UncertainTable(
        "apts", ["id", "rent", "rooms"], rows, key="id",
        uncertain_columns=["rent"],
    )


class TestConstruction:
    def test_cells_coerced(self, table):
        assert isinstance(table.rows[0]["rent"], ExactValue)
        assert isinstance(table.rows[1]["rent"], IntervalValue)
        assert isinstance(table.rows[2]["rent"], MissingValue)

    def test_payload_columns_stay_plain(self, table):
        assert table.rows[0]["rooms"] == 1

    def test_default_wraps_all_numeric(self):
        t = UncertainTable(
            "t", ["id", "x"], [{"id": "a", "x": 1.0}], key="id"
        )
        assert isinstance(t.rows[0]["x"], ExactValue)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ModelError):
            UncertainTable(
                "t", ["id"], [{"id": "a"}, {"id": "a"}], key="id"
            )

    def test_missing_key_column(self):
        with pytest.raises(ModelError):
            UncertainTable("t", ["x"], [], key="id")

    def test_missing_cell_rejected(self):
        with pytest.raises(ModelError):
            UncertainTable("t", ["id", "x"], [{"id": "a"}], key="id")

    def test_unknown_uncertain_column(self):
        with pytest.raises(ModelError):
            UncertainTable(
                "t", ["id"], [], key="id", uncertain_columns=["zz"]
            )


class TestRelationalOperations:
    def test_select(self, table):
        narrow = table.select(lambda row: row["rooms"] >= 2)
        assert len(narrow) == 2
        assert len(table) == 3  # original untouched

    def test_project(self, table):
        projected = table.project(["rent"])
        assert projected.columns == ["id", "rent"]
        assert "rooms" not in projected.rows[0]

    def test_project_unknown_column(self, table):
        with pytest.raises(ModelError):
            table.project(["zz"])

    def test_head(self, table):
        assert len(table.head(2)) == 2

    def test_column(self, table):
        assert table.column("rooms") == [1, 2, 3]
        with pytest.raises(ModelError):
            table.column("zz")

    def test_iteration(self, table):
        assert [row["id"] for row in table] == ["a", "b", "c"]


class TestBridging:
    def test_to_records(self, table):
        scoring = InverseAttributeScore("rent", (300.0, 3500.0))
        records = table.to_records(scoring, payload_columns=["rooms"])
        assert [r.record_id for r in records] == ["a", "b", "c"]
        assert records[0].is_deterministic
        assert not records[1].is_deterministic
        assert records[2].lower == 0.0 and records[2].upper == 10.0
        assert records[0].payload == {"rooms": 1}

    def test_scoring_attribute_must_exist(self, table):
        scoring = InverseAttributeScore("price", (0.0, 1.0))
        with pytest.raises(ModelError):
            table.to_records(scoring)

    def test_uncertainty_rate(self, table):
        assert table.uncertainty_rate("rent") == pytest.approx(2 / 3)

    def test_rank_convenience(self, table):
        scoring = InverseAttributeScore("rent", (300.0, 3500.0))
        result = table.rank(scoring, k=2, seed=5)
        assert len(result.answers) == 2
        # The exact $600 listing is the strongest top-2 candidate.
        assert result.answers[0].record_id == "a"
        assert result.answers[0].probability > 0.5


class TestToRecordsValidation:
    """`to_records(validate=True)` routes scores through validate_records."""

    @staticmethod
    def make_table(rows):
        return UncertainTable(
            "apts", ["id", "rent"], rows, key="id",
            uncertain_columns=["rent"],
        )

    def test_clean_data_validates(self):
        table = self.make_table(
            [{"id": "a", "rent": 600.0}, {"id": "b", "rent": (650.0, 1100.0)}]
        )
        scoring = InverseAttributeScore("rent", (300.0, 3500.0))
        records = table.to_records(scoring, validate=True)
        assert [rec.record_id for rec in records] == ["a", "b"]

    def test_corrupt_scoring_names_offending_record(self):
        import numpy as np

        from repro.core.distributions import UniformScore

        class NaNSamplingScore(UniformScore):
            def sample(self, rng, size=None):
                out = np.asarray(super().sample(rng, size), dtype=float)
                if out.ndim:
                    out[0] = np.nan
                return out

        class CorruptScoring(InverseAttributeScore):
            def score_row(self, row):
                return NaNSamplingScore(0.0, 1.0)

        table = self.make_table([{"id": "bad", "rent": 600.0}])
        scoring = CorruptScoring("rent", (300.0, 3500.0))
        # Without the flag the corrupt model slips through...
        assert table.to_records(scoring)[0].record_id == "bad"
        # ...with it, ingestion fails and names the record.
        with pytest.raises(ModelError, match="'bad'"):
            table.to_records(scoring, validate=True)


class TestWeightedAttributes:
    """Weighted (multiple-imputation) values ingest and rank (§II-A)."""

    @staticmethod
    def make_table():
        # Scores on [0, 10] under "cheaper is better" over [0, 1000]:
        # w is 8 (weight 3) or 2 (weight 1), i is uniform on [3, 8] and
        # e is exactly 5. w is top whenever it scores 8; otherwise i
        # beats e when it lands above 5.
        rows = [
            {"id": "w", "rent": ([200.0, 800.0], [3.0, 1.0])},
            {"id": "i", "rent": (200.0, 700.0)},
            {"id": "e", "rent": 500.0},
        ]
        return UncertainTable(
            "apts", ["id", "rent"], rows, key="id",
            uncertain_columns=["rent"],
        )

    EXPECTED = {"w": 0.75, "i": 0.25 * 0.6, "e": 0.25 * 0.4}

    def test_from_table_matches_hand_computed_top1(self):
        from repro.core.engine import RankingEngine

        scoring = InverseAttributeScore("rent", (0.0, 1000.0))
        engine = RankingEngine.from_table(self.make_table(), scoring, seed=3)
        samples = 20_000
        result = engine.utop_rank(
            1, 1, l=3, method="montecarlo", samples=samples
        )
        got = {a.record_id: a.probability for a in result.answers}
        for rid, p in self.EXPECTED.items():
            sigma = (p * (1.0 - p) / samples) ** 0.5
            assert abs(got[rid] - p) < 5.0 * sigma, rid

    def test_table_rank(self):
        scoring = InverseAttributeScore("rent", (0.0, 1000.0))
        result = self.make_table().rank(scoring, k=1)
        assert result.answers[0].record_id == "w"
        assert result.answers[0].probability == pytest.approx(0.75, abs=0.03)
