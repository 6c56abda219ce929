import warnings

import numpy as np
import pytest

from qmt import (
    Event,
    ProductRectangle,
    QuantumSystem,
    Tolerance,
    classify,
    compose,
    eval_composed_factored,
    eval_D,
    marginal_check,
    rectangle_cover,
    self_compose,
)
from qmt.compose import _kron, _kron_form
from qmt.errors import ArityMismatchError, AxiomViolationError, BruteForceLimitError

from conftest import random_hermitian_system, same_bits


def ev(indices, n):
    return Event.from_indices(indices, n)


class TestCompose:
    def test_reference_counterexample_value(self, m_system, n_system):
        composed = compose(m_system, n_system)
        e = ev([0, 3], 4)
        assert eval_D(composed, e, e).real == pytest.approx(-0.4, abs=1e-12)

    def test_kron_entries_and_labels(self, m_system, n_system):
        composed = compose(m_system, n_system)
        assert composed.n == 4
        assert composed.labels[1] == "(g0,g1)"
        assert composed.matrix[0, 3] == pytest.approx(m_system.matrix[0, 1] * n_system.matrix[0, 1])

    def test_identity_factor(self, n_system):
        one = QuantumSystem([[1.0]])
        assert np.allclose(compose(n_system, one).matrix, n_system.matrix)
        assert np.allclose(compose(one, n_system).matrix, n_system.matrix)

    def test_classical_times_classical(self):
        p = QuantumSystem(np.diag([0.3, 0.7]))
        q = QuantumSystem(np.diag([0.4, 0.6]))
        composed = compose(p, q)
        assert classify(composed).classical
        assert np.allclose(np.diag(composed.matrix).real, np.outer([0.3, 0.7], [0.4, 0.6]).ravel())

    def test_arity_overflow(self):
        big = QuantumSystem(np.diag(np.full(70, 1.0 / 70)))
        with pytest.raises(BruteForceLimitError):
            compose(big, big)

    def test_product_is_np_kron_and_read_only(self):
        rng = np.random.default_rng(5)
        a, b = random_hermitian_system(rng, 5), random_hermitian_system(rng, 3)
        composed = compose(a, b)
        want = np.kron(a.matrix, b.matrix)
        assert np.array_equal(composed.matrix.view(np.uint64), want.view(np.uint64))
        assert not composed.matrix.flags.writeable
        assert composed.matrix.base is None or not composed.matrix.base.flags.writeable

    def test_normalisation_is_trusted_from_the_factors(self):
        # Each factor is within its slack of 1.  The product's sum, about
        # 1 + 2 * off, falls outside the product's own slack once off
        # exceeds half of it, yet the product is a system because its
        # factors are: compose builds every one, and only the raw matrix
        # is refused by the constructor.
        refused = 0
        for off in (0.4e-9, 0.6e-9, 0.9e-9, 1.5e-9):
            one = QuantumSystem([[1.0 + off]])
            two = QuantumSystem(np.diag([0.5, 0.5 + off]))
            for a, b in ((one, one), (one, two), (two, two)):
                product = compose(a, b)
                assert same_bits(product.matrix, np.kron(a.matrix, b.matrix))
                try:
                    QuantumSystem(product.matrix)
                except AxiomViolationError as exc:
                    assert "expected 1" in str(exc)
                    refused += 1
        assert 0 < refused < 12

    def test_a_product_whose_norm_overflows_is_refused(self):
        # ||s|| is about 1.4e100, so three factors' norms multiply to 2.8e300
        # and four to inf, with no numpy warning.
        s = QuantumSystem([[0.5, 1e100j], [-1e100j, 0.5]], tol=Tolerance(0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert abs(self_compose(s, 3).matrix[0, 7]) == pytest.approx(1e300, rel=1e-15)
            with pytest.raises(AxiomViolationError, match="norm overflows double precision"):
                self_compose(s, 4)


class TestSelfCompose:
    def test_power_one_is_same_matrix(self, n_system):
        assert np.allclose(self_compose(n_system, 1).matrix, n_system.matrix)

    def test_single_atom_any_power(self):
        one = QuantumSystem([[1.0]])
        assert np.allclose(self_compose(one, 5).matrix, [[1.0]])

    def test_kronecker_power_structure(self, m_system):
        power = self_compose(m_system, 4)
        assert power.n == 16
        # entry ((0,0,0,0), (1,1,1,1)) is the off-diagonal entry to the 4th
        assert power.matrix[0, 15] == pytest.approx(m_system.matrix[0, 1] ** 4)

    def test_materialization_limit(self, m_system):
        with pytest.raises(BruteForceLimitError):
            self_compose(m_system, 13)  # 2**13 > 4096
        self_compose(m_system, 12)

    def test_invalid_power(self, m_system):
        with pytest.raises(ValueError):
            self_compose(m_system, 0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_equals_the_chained_compose_bit_for_bit(self, k):
        rng = np.random.default_rng(40 + k)
        for n in (1, 2, 3, 4):
            s = random_hermitian_system(rng, n)
            s = QuantumSystem(s.matrix, [f"x{i}" for i in range(n)], metadata={"name": "s"})
            chained = s
            for _ in range(k - 1):
                chained = compose(chained, s)
            power = self_compose(s, k)
            assert same_bits(power.matrix, chained.matrix), (n, k)
            assert power.labels == chained.labels
            assert power.metadata == chained.metadata


class TestFactoredEvaluation:
    def test_worked_diagonal_sum(self, m_system, n_system):
        # diagonal product events: (2 - 2 - 2 + 0)/5 = -2/5
        rects = [
            ProductRectangle(ev([0], 2), ev([0], 2)),
            ProductRectangle(ev([1], 2), ev([1], 2)),
        ]
        value = eval_composed_factored(m_system, n_system, rects, rects)
        assert value.real == pytest.approx(-0.4, abs=1e-12)

    def test_normalization(self, m_system, n_system):
        rects = [ProductRectangle(Event.full(2), Event.full(2))]
        assert eval_composed_factored(m_system, n_system, rects, rects) == pytest.approx(1.0)

    def test_rejects_overlapping_rectangles(self, m_system, n_system):
        rects = [
            ProductRectangle(ev([0], 2), Event.full(2)),
            ProductRectangle(ev([0], 2), ev([1], 2)),
        ]
        with pytest.raises(ValueError):
            eval_composed_factored(m_system, n_system, rects, rects)

    def test_rejects_rectangles_of_other_arities(self, m_system, n_system):
        good = [ProductRectangle(Event.full(2), Event.full(2))]
        bad = [ProductRectangle(Event.full(2), Event.full(3))]
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(ArityMismatchError, match="rectangle arities"):
                eval_composed_factored(m_system, n_system, a, b)

    def test_cover_strategies_agree_and_match_materialized(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n1 = int(rng.integers(2, 4))
            n2 = int(rng.integers(2, 4))
            s1 = random_hermitian_system(rng, n1)
            s2 = random_hermitian_system(rng, n2)
            composed = compose(s1, s2)
            e_a = Event(int(rng.integers(1, 1 << (n1 * n2))), n1 * n2)
            e_b = Event(int(rng.integers(1, 1 << (n1 * n2))), n1 * n2)
            values = []
            for strategy in ("atoms", "rows"):
                cover_a = rectangle_cover(e_a, n1, n2, strategy)
                cover_b = rectangle_cover(e_b, n1, n2, strategy)
                values.append(eval_composed_factored(s1, s2, cover_a, cover_b))
            x, y = (np.array([p in e for p in range(n1 * n2)], dtype=float) for e in (e_a, e_b))
            kron = _kron_form([s1.matrix, s2.matrix], x, y)
            assert values[0] == pytest.approx(values[1], abs=1e-12)
            assert values[0] == pytest.approx(kron, abs=1e-12)
            assert values[0] == pytest.approx(eval_D(composed, e_a, e_b), abs=1e-12)


class TestMarginalCheck:
    def test_first_factor_atom(self, m_system, n_system):
        value = marginal_check(m_system, n_system, ev([0], 2), ev([0], 2))
        assert value.real == pytest.approx(2.0)

    def test_full_events(self, m_system, n_system):
        value = marginal_check(m_system, n_system, Event.full(2), Event.full(2))
        assert value == pytest.approx(1.0)

    def test_off_diagonal(self, n_system, m_system):
        value = marginal_check(n_system, m_system, ev([0], 2), ev([1], 2))
        assert value.real == pytest.approx(0.4)

    def test_events_must_belong_to_the_first_factor(self, m_system, n_system):
        for a, b in ((ev([0], 3), ev([0], 2)), (ev([0], 2), ev([0], 4))):
            with pytest.raises(ArityMismatchError, match="first factor"):
                marginal_check(m_system, n_system, a, b)

    def test_exhaustive_agreement_with_first_factor(self):
        rng = np.random.default_rng(23)
        s1 = random_hermitian_system(rng, 3)
        s2 = random_hermitian_system(rng, 3)
        for a_bits in range(8):
            for b_bits in range(8):
                a, b = Event(a_bits, 3), Event(b_bits, 3)
                assert marginal_check(s1, s2, a, b) == pytest.approx(
                    eval_D(s1, a, b), abs=1e-12
                )

    def test_factored_route_beyond_materialization(self):
        # 70*70 = 4900 composed atoms cannot be materialized; the factored
        # evaluation must still reproduce the first factor's values
        n = 70
        weights = np.linspace(1.0, 2.0, n)
        s = QuantumSystem(np.diag(weights / weights.sum()))
        a = ev([0, 3], n)
        b = ev([3, 5], n)
        value = marginal_check(s, s, a, b)
        assert value == pytest.approx(eval_D(s, a, b), abs=1e-12)

    def test_dense_factors_beyond_materialization(self):
        # 64*65 = 4160 composed atoms with dense complex factors
        rng = np.random.default_rng(31)
        s1 = random_hermitian_system(rng, 64)
        s2 = random_hermitian_system(rng, 65)
        a = ev(rng.choice(64, size=20, replace=False).tolist(), 64)
        b = ev(rng.choice(64, size=33, replace=False).tolist(), 64)
        value = marginal_check(s1, s2, a, b)
        assert value == pytest.approx(eval_D(s1, a, b), rel=1e-9, abs=1e-12)


class TestKronForm:
    def test_matches_materialized_product(self):
        # rectangular, non-symmetric blocks and x != y catch a transposed
        # block or a reversed axis order, which Hermitian x^T M x would hide
        rng = np.random.default_rng(5)
        shapes = [(2, 3), (4, 1), (3, 5)]
        blocks = [rng.standard_normal(sh) + 1j * rng.standard_normal(sh) for sh in shapes]
        full = np.kron(np.kron(blocks[0], blocks[1]), blocks[2])
        x = rng.standard_normal(full.shape[0])
        y = rng.standard_normal(full.shape[1])
        assert _kron_form(blocks, x, y) == pytest.approx(x @ full @ y, rel=1e-12)

    def test_matches_the_tensordot_contraction(self):
        def reference(blocks, x, y):
            t = np.asarray(y).reshape([b.shape[1] for b in blocks])
            for b in blocks:
                t = np.tensordot(t, b, axes=([0], [1]))
            return complex(np.dot(x, t.reshape(-1)))

        rng = np.random.default_rng(11)
        for shapes in ([(3, 3)], [(2, 3), (4, 1), (3, 5)], [(4, 4)] * 5, [(1, 1), (6, 2)]):
            blocks = [rng.standard_normal(sh) + 1j * rng.standard_normal(sh) for sh in shapes]
            x = rng.standard_normal(int(np.prod([sh[0] for sh in shapes])))
            y = rng.standard_normal(int(np.prod([sh[1] for sh in shapes])))
            want = reference(blocks, x, y)
            assert abs(_kron_form(blocks, x, y) - want) <= 1e-13 * abs(want), shapes


class TestKron:
    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 3), (4, 4)), ((8, 8), (8, 8)), ((2, 5), (3, 1)), ((1, 4), (3, 2)),
        ((1, 1), (1, 1)), ((1, 1), (3, 3)), ((3, 3), (1, 1)),
    ])
    def test_equals_np_kron_bit_for_bit(self, a_shape, b_shape):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(a_shape) + 1j * rng.standard_normal(a_shape)
        b = rng.standard_normal(b_shape) + 1j * rng.standard_normal(b_shape)
        got, want = _kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
