import numpy as np
import pytest

from qmt import ArityMismatchError, Event, ProductRectangle, embed_product, rectangle_cover


def ev(indices, n):
    return Event.from_indices(indices, n)


class TestEvent:
    def test_construction_and_membership(self):
        e = ev([0, 2], 3)
        assert 0 in e and 2 in e and 1 not in e
        assert e.indices() == (0, 2)
        assert len(e) == 2

    def test_empty_and_full(self):
        assert Event.empty(3).bits == 0
        assert Event.full(3).indices() == (0, 1, 2)
        assert not Event.empty(3)
        assert Event.full(0) == Event.empty(0)

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(ValueError):
            Event(0b1000, 3)
        with pytest.raises(ValueError):
            Event.from_indices([3], 3)
        with pytest.raises(ValueError):
            Event(-1, 3)
        with pytest.raises(ValueError, match="arity must be non-negative"):
            Event(0, -1)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            ev([0], 2) | ev([0], 3)

    def test_only_events_combine(self):
        with pytest.raises(TypeError, match="expected Event, got int"):
            ev([0], 2) | 5

    def test_numpy_integer_indices(self):
        # a fixed-width shift would wrap at 64 and overflow the sign bit at 63
        assert Event.from_indices([np.int64(70)], 100) == ev([70], 100)
        assert Event.from_indices(np.array([63, 2]), 100) == ev([2, 63], 100)
        with pytest.raises(TypeError):
            Event.from_indices([1.0], 3)

    def test_complement_of_complement(self):
        e = ev([1], 4)
        assert e.complement().complement() == e

    def test_difference_and_subset(self):
        a, b = ev([0, 1], 3), ev([1, 2], 3)
        assert a.difference(b) == ev([0], 3) and b.difference(a) == ev([2], 3)
        assert a.difference(a) == Event.empty(3)
        assert ev([1], 3).issubset(a) and Event.empty(3).issubset(a) and a.issubset(a)
        assert not a.issubset(b) and not Event.full(3).issubset(a)
        with pytest.raises(ArityMismatchError):
            a.issubset(ev([0], 2))


class TestZ2Operations:
    """Symmetric difference is the Z2 addition of the event algebra, and
    intersection its multiplication."""

    def test_zero_element(self):
        b = ev([1, 2], 3)
        assert Event.empty(3) ^ b == b

    def test_full_is_complement(self):
        b = ev([0, 2], 3)
        assert Event.full(3) ^ b == b.complement()

    def test_overlapping_symdiff(self):
        assert ev([0, 1], 3) ^ ev([1, 2], 3) == ev([0, 2], 3)

    def test_union_intersection_complement(self):
        a, b = ev([0, 1], 3), ev([1, 2], 3)
        assert a | b == ev([0, 1, 2], 3)
        assert a & b == ev([1], 3)
        assert a.complement() == ev([2], 3)

    def test_group_law(self):
        # a + (a + b) = b for every same-arity pair
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            a = Event(int(rng.integers(0, 1 << n)), n)
            b = Event(int(rng.integers(0, 1 << n)), n)
            assert a ^ (a ^ b) == b


class TestProductEmbedding:
    def test_singleton_product(self):
        r = ProductRectangle(ev([0], 2), ev([1], 2))
        assert embed_product(r) == ev([1], 4)

    def test_full_product(self):
        r = ProductRectangle(Event.full(2), Event.full(3))
        e = embed_product(r)
        assert e == Event.full(6)
        assert len(e) == 6

    def test_column_product(self):
        r = ProductRectangle(ev([0, 1], 2), ev([0], 2))
        assert embed_product(r) == ev([0, 2], 4)

    def test_pair_index_convention(self):
        # (i, j) -> i*n2 + j, for every singleton pair of a 3 x 4 space
        for i in range(3):
            for j in range(4):
                r = ProductRectangle(ev([i], 3), ev([j], 4))
                assert embed_product(r).indices() == (i * 4 + j,)


class TestRectangleCover:
    def test_atoms_cover_singleton(self):
        cover = rectangle_cover(ev([1], 4), 2, 2, "atoms")
        assert cover == [ProductRectangle(ev([0], 2), ev([1], 2))]

    def test_rows_cover_diagonal(self):
        cover = rectangle_cover(ev([0, 3], 4), 2, 2, "rows")
        assert cover == [
            ProductRectangle(ev([0], 2), ev([0], 2)),
            ProductRectangle(ev([1], 2), ev([1], 2)),
        ]

    def test_full_event_covers(self):
        full = Event.full(4)
        rows = rectangle_cover(full, 2, 2, "rows")
        atoms = rectangle_cover(full, 2, 2, "atoms")
        assert len(rows) == 2 and len(atoms) == 4
        assert rows[0] == ProductRectangle(ev([0], 2), Event.full(2))
        for cover in (rows, atoms):
            rebuilt = Event.empty(4)
            for r in cover:
                piece = embed_product(r)
                assert rebuilt.isdisjoint(piece)
                rebuilt = rebuilt | piece
            assert rebuilt == full

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            rectangle_cover(Event.empty(4), 2, 2, "columns")

    def test_arity_must_be_the_product(self):
        with pytest.raises(ArityMismatchError, match="event arity 4 != 2\\*3"):
            rectangle_cover(Event.empty(4), 2, 3)

    def test_covers_partition_random_events(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            e = Event(int(rng.integers(0, 1 << (n1 * n2))), n1 * n2)
            for strategy in ("atoms", "rows"):
                seen = 0
                for r in rectangle_cover(e, n1, n2, strategy):
                    bits = embed_product(r).bits
                    assert seen & bits == 0
                    seen |= bits
                assert seen == e.bits

