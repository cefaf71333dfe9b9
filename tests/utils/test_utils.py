"""Tests for RNG management and table rendering."""

import numpy as np
import pytest

from repro.utils.rng import RngRegistry, new_rng
from repro.utils.tables import format_table


class TestRng:
    def test_new_rng_seeded_reproducible(self):
        assert new_rng(5).integers(0, 100) == new_rng(5).integers(0, 100)

    def test_registry_same_name_same_generator(self):
        rngs = RngRegistry(0)
        assert rngs.get("x") is rngs.get("x")

    def test_registry_different_names_differ(self):
        rngs = RngRegistry(0)
        a = rngs.get("stream").integers(0, 10_000, 20)
        b = rngs.get("model").integers(0, 10_000, 20)
        assert not np.array_equal(a, b)

    def test_registry_order_independent(self):
        """Child streams depend only on (seed, name), not creation order."""
        r1 = RngRegistry(7)
        r1.get("a")
        v1 = r1.get("b").integers(0, 10_000, 10)
        r2 = RngRegistry(7)
        v2 = r2.get("b").integers(0, 10_000, 10)
        np.testing.assert_array_equal(v1, v2)

    def test_registry_seed_changes_streams(self):
        a = RngRegistry(0).get("x").integers(0, 10_000, 10)
        b = RngRegistry(1).get("x").integers(0, 10_000, 10)
        assert not np.array_equal(a, b)

    def test_registry_names(self):
        rngs = RngRegistry(0)
        rngs.get("one")
        rngs.get("two")
        assert set(rngs.names()) == {"one", "two"}


class TestTables:
    def test_alignment(self):
        table = format_table(["col", "b"], [["x", 1], ["longer", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")
        # all rows same width after strip of trailing spaces
        assert "longer" in lines[3]

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_none_rendered_empty(self):
        table = format_table(["a"], [[None], ["x"]])
        lines = table.split("\n")
        assert lines[2].strip() == ""
        assert lines[3].strip() == "x"

    def test_doctest_example(self):
        out = format_table(["a", "b"], [[1, 2.5]])
        assert out == "a | b\n--+----\n1 | 2.5"
