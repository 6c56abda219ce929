import sys

import numpy as np
import pytest

from qmt import (
    Event,
    GenSpec,
    QuantumSystem,
    check_axioms,
    classify,
    compose,
    eval_D,
    generate,
    is_classical,
    is_in_dual_of_posentry,
    is_positive_entry,
    is_strongly_positive,
    is_weakly_positive,
)
from qmt.errors import BruteForceLimitError
from qmt.functional import DEFAULT_TOL
from qmt.gen import KINDS

from conftest import (
    classical_outside_s,
    oracle_psd_by_minors,
    oracle_weakly_positive,
    random_hermitian_system,
    strong_with_a_negative_event,
    violator_past_the_sweep,
    weak_only_above_limit,
)


def assert_hierarchy(c):
    if c.strongly_positive or c.positive_entry:
        assert c.weakly_positive and c.weak_violation is None
    if c.classical:
        assert c.positive_entry and c.strongly_positive
    if c.positive_entry:
        assert c.in_dual_of_posentry


class TestWeakPositivity:
    def test_reference_system_passes(self, m_system):
        result = is_weakly_positive(m_system)
        assert result.ok and result.violation is None

    def test_single_atom(self):
        assert is_weakly_positive(QuantumSystem([[1.0]])).ok

    def test_composed_counterexample_fails(self, m_system, n_system):
        composed = compose(m_system, n_system)
        result = is_weakly_positive(composed)
        assert not result.ok
        assert result.value < 0
        # the named counterexample event itself has measure -2/5
        e = Event.from_indices([0, 3], 4)
        assert eval_D(composed, e, e).real == pytest.approx(-0.4, abs=1e-12)

    def test_limit_guard(self):
        # The first 20 atoms were swept and hold no violator; W is unknown.
        with pytest.raises(BruteForceLimitError, match=r"first 20 of 21 atoms, where the sweep"):
            is_weakly_positive(weak_only_above_limit())
        with pytest.raises(BruteForceLimitError, match=r"^weakly positive: unknown \(no violator"):
            is_weakly_positive(violator_past_the_sweep())

    def test_violator_on_the_first_twenty_atoms_above_the_limit(self):
        s = generate(GenSpec("hermitian_only", 21, 1))
        result = is_weakly_positive(s)
        c = classify(s)
        assert not result.ok and result.violation == c.weak_violation
        assert result.violation == Event.from_indices([3], 21)
        assert result.value == c.weak_violation_value == pytest.approx(-0.0208094, abs=1e-7)

    def test_agrees_with_per_event_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            s = random_hermitian_system(rng, n)
            expected_ok, _ = oracle_weakly_positive(s)
            assert is_weakly_positive(s).ok == expected_ok

    def test_oracle_agreement_at_twelve_atoms(self):
        rng = np.random.default_rng(6)
        s = random_hermitian_system(rng, 12)
        expected_ok, _ = oracle_weakly_positive(s)
        assert is_weakly_positive(s).ok == expected_ok


class TestStrongPositivity:
    def test_m_is_strong_with_exact_eigenvalues(self, m_system):
        result = is_strongly_positive(m_system)
        assert result.ok
        # characteristic polynomial x^2 - 3x + 1
        assert result.min_eigenvalue == pytest.approx((3 - np.sqrt(5)) / 2)

    def test_n_is_not_strong(self, n_system):
        result = is_strongly_positive(n_system)
        assert not result.ok
        assert result.min_eigenvalue < 0

    def test_gram_matrices_are_strong(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g = a.conj().T @ a
            s = QuantumSystem(g / g.sum().real)
            assert is_strongly_positive(s).ok

    def test_agrees_with_principal_minor_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            s = random_hermitian_system(rng, n)
            assert is_strongly_positive(s).ok == oracle_psd_by_minors(s.matrix)

    def test_borderline_counts_as_member(self):
        # the class boundary is inclusive: an eigenvalue within tolerance of
        # zero still classifies as strongly positive
        m = np.array([[0.25, 0.25 + 1e-13], [0.25 + 1e-13, 0.25]])
        result = is_strongly_positive(QuantumSystem(m))
        assert result.min_eigenvalue < 0
        assert result.ok


def generated_systems(sizes):
    for n in sizes:
        for kind in KINDS:
            if kind == "weak_not_strong_not_posentry" and n < 2:
                continue
            yield generate(GenSpec(kind, n, 700 + n))


class TestEigenPath:
    def test_positivity_computes_no_eigenvectors(self, monkeypatch):
        systems = list(generated_systems((1, 2, 7, 20)))
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: pytest.fail("eigh called"))
        for s in systems:
            c = classify(s)
            assert c.strongly_positive == (c.min_eigenvalue >= -DEFAULT_TOL.scaled(s.matrix))
            assert check_axioms(s).weakly_positive == c.weakly_positive

    def test_classify_and_the_psd_test_share_lambda_min(self):
        for s in generated_systems(range(1, 21)):
            strong = is_strongly_positive(s)
            c = classify(s)
            # The same eigvalsh call: equal bit for bit, and so is S.
            assert c.min_eigenvalue == strong.min_eigenvalue
            assert c.strongly_positive == strong.ok
            norm = np.linalg.norm(s.matrix)
            assert abs(c.min_eigenvalue - np.linalg.eigh(s.matrix)[0][0]) <= 1e-12 * norm
            v = strong.eigenvector
            assert abs(np.linalg.norm(v) - 1) <= 1e-12
            residual = s.matrix @ v - strong.min_eigenvalue * v
            assert np.linalg.norm(residual) <= 1e-12 * norm


class TestPositiveEntry:
    def test_n_is_positive_entry(self, n_system):
        assert is_positive_entry(n_system).ok

    def test_m_fails_at_off_diagonal(self, m_system):
        result = is_positive_entry(m_system)
        assert not result.ok
        assert result.index == (0, 1)
        assert result.value == pytest.approx(-1.0)

    def test_non_real_entry_fails(self, half_i_system):
        assert not is_positive_entry(half_i_system).ok


class TestClassicalAndDual:
    def test_probability_vector_is_classical(self):
        assert is_classical(QuantumSystem(np.diag([0.3, 0.7])))
        assert is_classical(QuantumSystem([[1.0]]))

    def test_n_is_not_classical(self, n_system):
        assert not is_classical(n_system)

    def test_dual_memberships(self, m_system, n_system, half_i_system):
        assert is_in_dual_of_posentry(half_i_system).ok
        assert not is_in_dual_of_posentry(m_system).ok
        assert is_in_dual_of_posentry(n_system).ok


class TestClassify:
    def test_m_flags(self, m_system):
        flags = classify(m_system).flags()
        assert flags == {
            "weakly_positive": True,
            "strongly_positive": True,
            "positive_entry": False,
            "classical": False,
            "in_dual_of_posentry": False,
            "real_symmetric": True,
        }

    def test_n_flags(self, n_system):
        flags = classify(n_system).flags()
        assert flags == {
            "weakly_positive": True,
            "strongly_positive": False,
            "positive_entry": True,
            "classical": False,
            "in_dual_of_posentry": True,
            "real_symmetric": True,
        }

    def test_weak_only_flags(self, weak_only_system):
        c = classify(weak_only_system)
        assert c.weakly_positive
        assert not c.strongly_positive
        assert not c.positive_entry
        assert c.in_dual_of_posentry
        assert not c.real_symmetric
        # binary quadratic forms are 0.6, 0.4 and 1.0; determinant is -0.01
        assert c.min_eigenvalue < 0

    def test_half_i_flags(self, half_i_system):
        c = classify(half_i_system)
        assert c.in_dual_of_posentry
        assert c.strongly_positive
        assert not c.positive_entry

    def test_strong_decides_weak_without_a_sweep(self, monkeypatch):
        s = strong_with_a_negative_event()
        assert not is_weakly_positive(s).ok  # the sweep alone sees -3.6e-9
        module = sys.modules["qmt.classify"]
        monkeypatch.setattr(module, "is_weakly_positive", lambda *a, **k: pytest.fail("swept"))
        c = classify(s)
        assert c.strongly_positive and c.weakly_positive and c.weak_violation is None
        assert_hierarchy(c)

    def test_classical_requires_strong(self):
        s = classical_outside_s()
        assert is_classical(s)
        c = classify(s)
        assert not c.strongly_positive and not c.classical
        assert c.positive_entry and c.weakly_positive
        assert_hierarchy(c)

    def test_hierarchy_on_borderline_and_random_systems(self):
        rng = np.random.default_rng(31)
        systems = [strong_with_a_negative_event(), classical_outside_s()]
        systems += [random_hermitian_system(rng, int(rng.integers(1, 7))) for _ in range(40)]
        for s in systems:
            assert_hierarchy(classify(s))

    def test_above_the_limit_s_or_p_still_classifies(self):
        strong = generate(GenSpec("strong", 8, 3))
        c = classify(compose(strong, strong))
        assert c.strongly_positive and c.weakly_positive
        posentry = generate(GenSpec("posentry", 24, 1))
        assert classify(posentry).weakly_positive
        assert generate(GenSpec("strong", 21, 1)).n == 21
        # dual(P) => W: Re M >= 0 entrywise, though neither S nor P holds.
        c = classify(weak_only_above_limit())
        assert c.weakly_positive and c.weak_violation is None
        assert c.in_dual_of_posentry and not c.strongly_positive and not c.positive_entry
        # Neither S nor dual(P): the events of the first 20 atoms are swept,
        # and the lowest violator there is exact for the whole system.
        s = generate(GenSpec("hermitian_only", 21, 1))
        c = classify(s)
        assert c.weakly_positive is False and c.weak_violation == Event.from_indices([3], 21)
        assert c.weak_violation_value == s.matrix[3, 3].real < 0
        assert not c.strongly_positive and not c.in_dual_of_posentry
        # No violator among the first 20 atoms: W is unknown.
        c = classify(violator_past_the_sweep())
        assert c.weakly_positive is None and c.weak_violation is None
        assert not c.strongly_positive and not c.in_dual_of_posentry

    def test_hierarchy_on_generated_systems(self):
        for kind in ("strong", "posentry", "classical", "weak_not_strong_not_posentry"):
            for seed in range(12):
                n = 2 + seed % 3
                if kind == "weak_not_strong_not_posentry" and n < 2:
                    continue
                assert_hierarchy(classify(generate(GenSpec(kind, n, seed))))
