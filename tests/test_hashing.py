"""Tests for deterministic routing hashes."""

import pytest

from repro.mpc.hashing import stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_salt_changes_value(self):
        assert stable_hash("key", salt=0) != stable_hash("key", salt=1)

    def test_types_distinguished(self):
        """Unequal keys of different types hash apart; keys Python calls
        equal (``True``/``1``/``1.0``) hash alike, so they meet."""
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) == stable_hash(1) == stable_hash(1.0)
        assert stable_hash(None) != stable_hash(0)

    def test_tuples_order_sensitive(self):
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_nested_tuples(self):
        assert stable_hash(((1, 2), 3)) != stable_hash((1, (2, 3)))

    def test_large_ints(self):
        assert stable_hash(2**100) == stable_hash(2**100)
        assert stable_hash(2**100) != stable_hash(2**100 + 1)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_hash([1, 2])

    def test_spread_over_buckets(self):
        """A basic uniformity check: no bucket absorbs half the keys."""
        buckets = [0] * 16
        for i in range(4096):
            buckets[stable_hash(("key", i)) % 16] += 1
        assert max(buckets) < 2 * (4096 // 16)
        assert min(buckets) > (4096 // 16) // 2

    def test_string_spread(self):
        buckets = [0] * 8
        for i in range(2048):
            buckets[stable_hash(f"value-{i}") % 8] += 1
        assert max(buckets) < 2 * (2048 // 8)
