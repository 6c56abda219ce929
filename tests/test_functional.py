import numpy as np
import pytest

from qmt import (
    ArityMismatchError,
    AxiomViolationError,
    BruteForceLimitError,
    Event,
    GenSpec,
    MeasureTable,
    QuantumSystem,
    SumRuleViolationError,
    Tolerance,
    check_axioms,
    check_quantal_sum_rule,
    classify,
    eval_D,
    event_matrix,
    generate,
    measure_table,
    quantal_measure,
    system_from_measure,
)
from qmt import functional
from qmt.algebra import ENUMERATION_LIMIT
from qmt.functional import (
    DEFAULT_TOL,
    MEASURE_TABLE_LIMIT,
    _half_sum,
    _half_sum_check,
    event_measures,
    first_weak_violation,
)
from qmt.gen import KINDS

from conftest import (
    classical_outside_s,
    oracle_event_value,
    random_hermitian_system,
    strong_with_a_negative_event,
    violator_past_the_sweep,
    weak_only_above_limit,
)


def ev(indices, n=2):
    return Event.from_indices(indices, n)


class TestQuantumSystem:
    def test_rejects_non_hermitian(self):
        with pytest.raises(AxiomViolationError, match="Hermitian"):
            QuantumSystem([[0.5, 0.5], [0.2, 0.0]])

    def test_rejects_non_normalized(self):
        with pytest.raises(AxiomViolationError, match="sum"):
            QuantumSystem([[2.0, -1.0], [-1.0, 0.5]])

    def test_rejects_non_square(self):
        with pytest.raises(AxiomViolationError):
            QuantumSystem([[1.0, 0.0]])

    def test_rejects_wrong_label_count(self):
        with pytest.raises(AxiomViolationError):
            QuantumSystem([[1.0]], labels=("a", "b"))

    def test_matrix_is_read_only(self, m_system):
        with pytest.raises(ValueError):
            m_system.matrix[0, 0] = 5.0

    def test_default_labels(self, n_system):
        assert n_system.labels == ("g0", "g1")

    def test_attributes_are_immutable(self, n_system):
        with pytest.raises(AttributeError, match="QuantumSystem is immutable"):
            n_system.labels = ("a", "b")
        assert repr(n_system) == "QuantumSystem(n=2, labels=('g0', 'g1'))"

    @pytest.mark.parametrize("i", [-1, 2])
    def test_atom_out_of_range(self, n_system, i):
        with pytest.raises(ValueError, match=f"atom index {i} out of range for 2 atoms"):
            n_system.atom(i)

    def test_eps_widening_admits_borderline(self):
        m = np.array([[0.25, 0.25], [0.25, 0.25 + 3e-9]])
        with pytest.raises(AxiomViolationError):
            QuantumSystem(m)
        QuantumSystem(m, tol=Tolerance(1e-8, 1e-8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        # NaN compares false, so without a finiteness check it passes the
        # Hermitian and normalisation tests.
        m = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(AxiomViolationError, match="finite"):
            QuantumSystem(m)
        with pytest.raises(AxiomViolationError, match="finite"):
            check_axioms(m)

    @pytest.mark.parametrize("matrix", [
        [[0.5, 1e200j], [1e200j, 0.5]],  # not Hermitian, by 2e200
        [[0.6e308, 0.5j], [-0.5j, 0.4e308]],  # entries sum to 1e308
    ], ids=["non-hermitian", "non-normalised"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_norm_past_the_double_range(self, matrix):
        # The slack scales with the Frobenius norm, which overflows here,
        # without a warning; an infinite slack would let any matrix pass.
        for check in (QuantumSystem, check_axioms):
            with pytest.raises(AxiomViolationError, match="norm must be finite"):
                check(np.array(matrix))

    @pytest.mark.parametrize("eps", [-1e-9, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, eps):
        with pytest.raises(ValueError):
            Tolerance(eps, 1e-9)
        with pytest.raises(ValueError):
            Tolerance(1e-9, eps)


class TestEvalD:
    def test_normalization_reference_n(self, n_system):
        assert eval_D(n_system, Event.full(2), Event.full(2)) == pytest.approx(1.0)

    def test_empty_event_gives_zero(self, n_system):
        assert eval_D(n_system, Event.empty(2), Event.full(2)) == 0

    def test_full_sum_of_m(self, m_system):
        assert eval_D(m_system, ev([0, 1]), ev([0, 1])) == pytest.approx(1.0)

    def test_arity_mismatch(self, m_system):
        with pytest.raises(ArityMismatchError):
            eval_D(m_system, Event.full(3), Event.full(3))

    def test_bi_additivity_on_random_disjoint_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            s = random_hermitian_system(rng, n)
            mask_a = int(rng.integers(0, 1 << n))
            mask_b = int(rng.integers(0, 1 << n)) & ~mask_a
            mask_c = int(rng.integers(0, 1 << n))
            a, b, c = Event(mask_a, n), Event(mask_b, n), Event(mask_c, n)
            lhs = eval_D(s, a | b, c)
            rhs = eval_D(s, a, c) + eval_D(s, b, c)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(12)
        s = random_hermitian_system(rng, 4)
        for _ in range(50):
            a = Event(int(rng.integers(0, 16)), 4)
            b = Event(int(rng.integers(0, 16)), 4)
            assert eval_D(s, a, b) == pytest.approx(np.conj(eval_D(s, b, a)))

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(13)
        s = random_hermitian_system(rng, 5)
        for _ in range(30):
            a = Event(int(rng.integers(0, 32)), 5)
            b = Event(int(rng.integers(0, 32)), 5)
            expected = oracle_event_value(s.matrix, a.indices(), b.indices())
            assert eval_D(s, a, b) == pytest.approx(expected)


class TestEventMatrix:
    def test_atoms_reproduce_atomic_matrix(self, n_system):
        m = event_matrix(n_system, list(n_system.atoms()))
        assert np.allclose(m, n_system.matrix)

    def test_coarse_grained_entries(self, n_system):
        m = event_matrix(n_system, [ev([0]), ev([0, 1])])
        assert np.allclose(m, [[0.2, 0.6], [0.6, 1.0]])

    def test_empty_event(self, n_system):
        assert np.allclose(event_matrix(n_system, [Event.empty(2)]), [[0.0]])

    def test_requires_distinct_events(self, n_system):
        with pytest.raises(ValueError):
            event_matrix(n_system, [ev([0]), ev([0])])

    def test_arity_mismatch(self, n_system):
        with pytest.raises(ArityMismatchError):
            event_matrix(n_system, [ev([0]), Event.full(3)])


class TestQuantalMeasure:
    def test_full_event_is_one(self, m_system):
        assert quantal_measure(m_system, Event.full(2)) == pytest.approx(1.0)

    def test_zero_diagonal_atom(self, n_system):
        assert quantal_measure(n_system, ev([1])) == pytest.approx(0.0)

    def test_union_value(self, n_system):
        assert quantal_measure(n_system, ev([0, 1])) == pytest.approx(1.0)

    def test_imaginary_residue_rejected(self):
        # admit a slightly non-Hermitian matrix, then measure it strictly
        loose = Tolerance(1e-5, 1e-5)
        skewed = QuantumSystem([[0.25, 0.25 + 1e-6j], [0.25, 0.25]], tol=loose)
        with pytest.raises(AxiomViolationError, match="imaginary"):
            quantal_measure(skewed, ev([0, 1]))
        assert quantal_measure(skewed, ev([0, 1]), tol=loose) == pytest.approx(1.0)


class TestCheckAxioms:
    def test_all_pass_on_reference_system(self, m_system):
        report = check_axioms(m_system)
        assert report.hermitian and report.normalized and report.is_system
        assert report.weakly_positive is True
        assert "construction" in report.additivity

    def test_normalization_failure(self):
        report = check_axioms(np.array([[2.0, -1.0], [-1.0, 0.5]]))
        assert report.hermitian and not report.normalized
        assert report.entry_sum == pytest.approx(0.5)

    def test_weak_positivity_detail(self):
        report = check_axioms(np.array([[1.5, -0.25], [-0.25, 0.0]]))
        assert report.is_system and report.weakly_positive is True

    def test_weak_violation_reported(self):
        report = check_axioms(np.array([[-0.5, 0.5], [0.5, 0.5]]))
        assert report.weakly_positive is False
        assert report.weak_violation == ev([0])
        assert report.weak_violation_value == pytest.approx(-0.5)

    def test_weak_decision_is_classify_s(self):
        systems = [strong_with_a_negative_event(), classical_outside_s()]
        systems += [generate(GenSpec(kind, n, 3)) for kind in KINDS for n in range(2, 9)]
        rng = np.random.default_rng(8)
        systems += [random_hermitian_system(rng, n) for n in range(1, 9)]
        for s in systems:
            report, c = check_axioms(s), classify(s)
            assert report.weakly_positive == c.weakly_positive
            assert report.weak_violation == c.weak_violation
            assert report.weak_violation_value == c.weak_violation_value
        # S within tolerance: W by theorem, though one event sums to -3.6e-9.
        assert check_axioms(strong_with_a_negative_event()).weakly_positive is True

    def test_weak_above_the_enumeration_limit(self):
        n = ENUMERATION_LIMIT + 1
        assert check_axioms(generate(GenSpec("strong", n, 1))).weakly_positive is True
        assert check_axioms(generate(GenSpec("posentry", n, 1))).weakly_positive is True
        assert check_axioms(weak_only_above_limit(n)).weakly_positive is True
        # Neither S nor dual(P): the events of the first 20 atoms are swept,
        # and a violator there is the lowest of the whole system.
        s = generate(GenSpec("hermitian_only", n, 1))
        report = check_axioms(s)
        assert report.is_system and report.weakly_positive is False
        assert report.weak_violation == Event.from_indices([3], n)
        assert report.weak_violation_value == s.matrix[3, 3].real < 0
        # With no violator there, W stays unknown.
        report = check_axioms(violator_past_the_sweep())
        assert report.is_system and report.weakly_positive is None
        assert report.weak_violation is None


def chunked_sweep(matrix, chunk=1 << 14):
    """The earlier one-GEMM-per-chunk sweep: v M v^T over explicit 0/1 rows."""
    n = matrix.shape[0]
    total = 1 << n
    out = np.empty(total)
    shifts = np.arange(n, dtype=np.uint64)
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        v = (masks[:, None] >> shifts[None, :] & 1).astype(float)
        out[start : start + len(masks)] = ((v @ matrix) * v).sum(axis=1).real
    return out


def nearly_hermitian(rng, n):
    """Random system whose real part is asymmetric by about 1e-10, within tolerance."""
    s = random_hermitian_system(rng, n)
    skew = rng.standard_normal((n, n)) * 1e-10
    m = s.matrix + skew - skew.sum() / n**2
    return QuantumSystem(m).matrix


def first_below(mu, slack):
    bad = np.flatnonzero(mu < -slack)
    return int(bad[0]) if bad.size else None


def lowest_violator_at(mask, n=20):
    """n atoms whose lowest-bitmask negative event is ``mask``.

    A single atom gets -1 on the diagonal.  Two atoms are coupled by -2; k > 2
    atoms pairwise by -c with 1/(k-1) < c < 1/(k-2), so the whole mask is
    negative and each of its proper subsets is not.  Any lower mask misses
    an atom of ``mask``, and no other atom is coupled.
    """
    atoms = [i for i in range(n) if mask >> i & 1]
    k = len(atoms)
    m = np.eye(n)
    if k == 1:
        m[atoms[0], atoms[0]] = -1.0
    else:
        c = 2.0 if k == 2 else (1 / (k - 1) + 1 / (k - 2)) / 2
        m[np.ix_(atoms, atoms)] = -c
        m[atoms, atoms] = 1.0
    return m / m.sum()


def high_block_violator():
    """16 atoms: the events holding atoms 12 and 13 and at most one more are negative."""
    m = np.eye(16)
    m[12, 13] = m[13, 12] = -2.0
    return m / m.sum()


class TestEventSweep:
    def assert_matches_oracle(self, m):
        want, got = chunked_sweep(m), event_measures(m)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert got.argmin() == want.argmin()
        slack = functional.DEFAULT_TOL.scaled(m)
        found = first_weak_violation(m, slack)
        expected = first_below(want, slack)
        assert (found and found[0].bits) == expected

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_chunked_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            self.assert_matches_oracle(nearly_hermitian(rng, n))
        for kind in KINDS:
            if kind == "weak_not_strong_not_posentry" and n < 2:
                continue
            self.assert_matches_oracle(generate(GenSpec(kind, n, n)).matrix)

    def test_matches_chunked_oracle_at_twenty_atoms(self):
        self.assert_matches_oracle(nearly_hermitian(np.random.default_rng(20), 20))

    def test_asymmetric_real_part_is_not_symmetrised(self):
        # A kernel that assumed Re(M) symmetric would double A_HL and miss A_LH.
        m = np.zeros((14, 14))
        m[0, 13] = 1.0
        mu = event_measures(m)
        assert mu[1 | 1 << 13] == 1.0 and mu[1] == mu[1 << 13] == 0.0

    def test_first_violator_in_a_high_block(self):
        m = high_block_violator()
        mu = chunked_sweep(m)
        later = np.flatnonzero(mu < 0)
        assert later[0] == 0x3000 and (later >= 1 << 14).any()
        event, value = first_weak_violation(m, 1e-9)
        assert event == Event(0x3000, 16)
        assert value == m[np.ix_([12, 13], [12, 13])].sum()

    def test_reduction_stops_at_the_first_violating_block(self, monkeypatch):
        monkeypatch.setattr(functional, "SWEEP_BLOCK_HIGH", 1)
        seen = []
        blocks = functional._sweep_blocks

        def counted(matrix):
            for first, values in blocks(matrix):
                seen.append(first)
                yield first, values

        monkeypatch.setattr(functional, "_sweep_blocks", counted)
        m = high_block_violator()
        assert first_weak_violation(m, 1e-9)[0] == Event(0x3000, 16)
        assert seen == [0] + [1 << i for i in range(1, 12)] + [0x1000, 0x2000, 0x3000]
        assert np.allclose(event_measures(m), chunked_sweep(m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "mask",
        [1, 2, 3, 4, 7, 8, (1 << 11) - 1, 1 << 11, (1 << 12) - 1, 1 << 12,
         (1 << 13) - 1, 1 << 13, (1 << 19) + 1],
    )
    def test_lowest_violator_at_a_block_boundary(self, mask):
        # The first and last masks of the low blocks [0, 2), [2, 4), [4, 8),
        # [2**11, 2**12) and of the high blocks [1, 2) and [2, 4), and the
        # second mask of the last high block.
        m = lowest_violator_at(mask)
        self.assert_matches_oracle(m)
        assert first_weak_violation(m, functional.DEFAULT_TOL.scaled(m))[0].bits == mask

    def test_blocks_double_in_mask_order(self, monkeypatch):
        m = np.eye(20) / 20
        monkeypatch.setattr(functional, "SWEEP_BLOCK_HIGH", 256)
        firsts = [first for first, _ in functional._sweep_blocks(m)]
        low = [0] + [1 << i for i in range(1, 12)]
        assert firsts == low + [1 << (12 + i) for i in range(8)]
        monkeypatch.setattr(functional, "SWEEP_BLOCK_HIGH", 4)
        sizes = [values.shape for _, values in functional._sweep_blocks(m)]
        low = [(1, 2)] + [(1, 1 << i) for i in range(1, 12)]
        assert sizes == low + [(1, 4096), (2, 4096)] + [(4, 4096)] * 63
        # With no high atoms the low blocks are the whole sweep.
        blocks = list(functional._sweep_blocks(np.eye(5) / 5))
        assert [first for first, _ in blocks] == [0, 2, 4, 8, 16]
        assert [values.shape for _, values in blocks] == [(1, 2), (1, 2), (1, 4), (1, 8), (1, 16)]
        assert [values.shape for _, values in functional._sweep_blocks(np.eye(1))] == [(1, 2)]

    def test_a_violating_atom_0_computes_the_low_block_alone(self, monkeypatch):
        seen = []
        blocks = functional._sweep_blocks

        def counted(matrix):
            for first, values in blocks(matrix):
                seen.append(first)
                yield first, values

        monkeypatch.setattr(functional, "_sweep_blocks", counted)
        assert first_weak_violation(lowest_violator_at(1), 1e-9)[0] == Event(1, 20)
        assert seen == [0]

    def test_violation_needs_the_direct_sum_too(self, monkeypatch):
        # A blocked value below -slack whose direct sum is not is skipped.
        m = high_block_violator()
        blocks = functional._sweep_blocks
        poked = []

        def shifted(matrix):
            for first, values in blocks(matrix):
                if values.shape[1] > 5:
                    values[0, 5] = -1.0
                    poked.append(first + 5)
                yield first, values

        monkeypatch.setattr(functional, "_sweep_blocks", shifted)
        assert first_weak_violation(m, 1e-9)[0] == Event(0x3000, 16)
        assert poked == [(1 << i) + 5 for i in range(3, 12)] + [0x1005, 0x2005]

    def test_limit(self):
        with pytest.raises(BruteForceLimitError):
            event_measures(np.eye(21) / 21)
        # Above the limit the sweep covers the first ENUMERATION_LIMIT atoms' events.
        assert first_weak_violation(np.eye(21) / 21, 1e-9) is None
        s = generate(GenSpec("hermitian_only", 21, 1))
        found = first_weak_violation(s.matrix, DEFAULT_TOL.scaled(s.matrix))
        assert found[0] == Event.from_indices([3], 21) == classify(s).weak_violation


class TestQuantalSumRule:
    def test_holds_for_any_hermitian_system(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = random_hermitian_system(rng, 3)
            report = check_quantal_sum_rule(s)
            assert report.passed and report.exhaustive

    def test_empty_triple_is_trivial(self, m_system):
        assert check_quantal_sum_rule(m_system).passed

    def test_exhaustive_up_to_the_table_limit(self):
        s = random_hermitian_system(np.random.default_rng(23), MEASURE_TABLE_LIMIT)
        report = check_quantal_sum_rule(s)
        assert report.passed and report.exhaustive and report.worst_event is None
        assert report.max_residual <= DEFAULT_TOL.scaled(s.matrix)

    def test_larger_system_holds_by_construction(self):
        rng = np.random.default_rng(22)
        s = random_hermitian_system(rng, MEASURE_TABLE_LIMIT + 1)
        report = check_quantal_sum_rule(s)
        assert report.passed and not report.exhaustive
        assert report.max_residual == 0.0 and report.worst_event is None

    def test_worst_event_is_the_lowest_largest_gap(self):
        values = event_measures(random_hermitian_system(np.random.default_rng(24), 5).matrix)
        values[0b10110] += 0.01
        values[0b01011] += 0.01
        values[0b00111] += 0.005
        report = _half_sum_check(values, 5, DEFAULT_TOL)[1]
        assert not report.passed and report.exhaustive
        assert report.worst_event == Event(0b01011, 5)
        assert report.max_residual == pytest.approx(0.01)

    def test_an_exact_system_passes_at_zero_tolerance(self):
        # The table's full event is 1 and the half-sum matrix's sweep
        # gives 1 - 2**-53: a gap of the two paths' rounding only.
        s = QuantumSystem([[0.3, 0.15], [0.15, 0.4]], tol=Tolerance(0.0, 0.0))
        report = check_quantal_sum_rule(s, Tolerance(0.0, 0.0))
        assert report.passed and report.max_residual == 2.0**-53

    @pytest.mark.parametrize("times, passes", [(0.5, True), (2.0, False)])
    def test_zero_tolerance_allows_the_rounding_bound_only(self, times, passes):
        # Dyadic entries, so every measure is exact; event 0b0111 is then
        # moved by a multiple of the bound 16 (n + 1) u sum |a_ij|.
        m = np.full((4, 4), 1 / 32) + np.diag([1 / 8] * 4)
        values = event_measures(m)
        bound = 16 * 5 * 2.0**-53 * np.abs(m).sum()
        values[0b0111] += times * bound
        exact = Tolerance(0.0, 0.0)
        if passes:
            system_from_measure(MeasureTable(4, values), tol=exact)
        else:
            with pytest.raises(SumRuleViolationError, match="event 0x7 "):
                system_from_measure(MeasureTable(4, values), tol=exact)

    def test_half_sum_matches_the_entrywise_rule(self):
        values = event_measures(random_hermitian_system(np.random.default_rng(25), 6).matrix)
        a = _half_sum(values, 6)
        for i in range(6):
            assert a[i, i] == values[1 << i]
            for j in range(i + 1, 6):
                off = 0.5 * (values[(1 << i) | (1 << j)] - values[1 << i] - values[1 << j])
                assert a[i, j] == a[j, i] == off


class TestMeasureTable:
    def test_from_system_and_validate(self, n_system):
        table = measure_table(n_system)
        table.validate()
        assert table.value(Event.full(2)) == pytest.approx(1.0)
        assert table.value(Event.empty(2)) == pytest.approx(0.0)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            MeasureTable(2, np.zeros(3))

    @pytest.mark.parametrize("n", [0, MEASURE_TABLE_LIMIT + 1])
    def test_arity_outside_the_table_limit(self, n):
        with pytest.raises(BruteForceLimitError, match=f"1 <= n <= 16, got {n}"):
            MeasureTable(n, np.zeros(1 << n))

    def test_value_of_an_event_of_another_arity(self, n_system):
        with pytest.raises(ArityMismatchError, match="event arity 3 != table arity 2"):
            measure_table(n_system).value(Event.full(3))

    def test_system_past_the_table_limit(self):
        s = QuantumSystem(np.eye(MEASURE_TABLE_LIMIT + 1) / (MEASURE_TABLE_LIMIT + 1))
        with pytest.raises(BruteForceLimitError, match="n=17 exceeds measure-table limit 16"):
            measure_table(s)

    def test_validate_rejects_unnormalized(self):
        table = MeasureTable(1, np.array([0.0, 0.5]))
        with pytest.raises(SumRuleViolationError):
            table.validate()

    @pytest.mark.parametrize("mask", [0, 0b100, 0b101, 0b111])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, mask, bad):
        values = np.array([0.0, 0.2, 0.3, 0.5, 0.5, 0.7, 0.8, 1.0])
        values[mask] = bad
        with pytest.raises(ValueError, match="finite"):
            MeasureTable(3, values)

    @pytest.mark.parametrize("n", [10, MEASURE_TABLE_LIMIT])
    def test_validate_rejects_sum_rule_break_on_many_atoms(self, n):
        table = measure_table(generate(GenSpec("strong", n, 5)))
        table.validate()
        values = table.values.copy()
        values[0b111] += 0.01
        with pytest.raises(SumRuleViolationError, match="event 0x7 "):
            MeasureTable(n, values).validate()

    def test_validate_rejects_sum_rule_break(self):
        # three atoms, tamper with a pair value so the (0,1,2) triple breaks
        values = np.zeros(8)
        values[0b111] = 1.0
        values[0b001] = 0.2
        values[0b010] = 0.3
        values[0b100] = 0.5
        values[0b011] = 0.5
        values[0b110] = 0.8
        values[0b101] = 0.9  # should be 0.7 for additivity
        with pytest.raises(SumRuleViolationError):
            MeasureTable(3, values).validate()


class TestMeasureCorrespondence:
    def test_classical_probability_vector(self):
        values = np.array([0.0, 0.3, 0.7, 1.0])
        system = system_from_measure(MeasureTable(2, values))
        assert np.allclose(system.matrix, np.diag([0.3, 0.7]))

    def test_single_atom(self):
        system = system_from_measure(MeasureTable(1, np.array([0.0, 1.0])))
        assert np.allclose(system.matrix, [[1.0]])

    def test_interference_off_diagonal(self):
        # both atoms carry unit measure yet the whole space has measure one
        values = np.array([0.0, 1.0, 1.0, 1.0])
        system = system_from_measure(MeasureTable(2, values))
        assert system.matrix[0, 1] == pytest.approx(-0.5)
        assert quantal_measure(system, Event.full(2)) == pytest.approx(1.0)

    def test_round_trip_on_derived_tables(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            r = rng.uniform(0.0, 1.0, size=(n, n))
            sym = (r + r.T) / 2.0
            base = QuantumSystem(sym / sym.sum())
            table = measure_table(base)
            rebuilt = system_from_measure(table)
            assert np.allclose(rebuilt.matrix, base.matrix, atol=1e-12)
            rebuilt_table = measure_table(rebuilt)
            assert np.allclose(rebuilt_table.values, table.values, atol=1e-12)

    def test_sum_rule_violation_rejected(self):
        values = np.array([0.0, 0.6, 0.6, 1.0, 0.9, 1.2, 1.2, 1.0])
        # a genuinely non-quantal table: tampering breaks bi-additivity
        values[0b011] = 0.1
        with pytest.raises(SumRuleViolationError):
            system_from_measure(MeasureTable(3, values))
