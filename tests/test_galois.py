import numpy as np
import pytest

from qmt import (
    Event,
    GenSpec,
    QuantumSystem,
    build_probe_system,
    classify,
    dual_membership_report,
    event_matrix,
    generate,
    probe_quadratic_form,
)

from conftest import random_hermitian_system


class TestBuildProbeSystem:
    def test_balanced_vector(self):
        probe = build_probe_system([1.0, -1.0])
        assert probe.rho == pytest.approx(1.0)
        expected = np.array(
            [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert np.allclose(probe.matrix, expected)

    def test_single_entry(self):
        probe = build_probe_system([1.0])
        assert probe.rho == pytest.approx(2.0)
        assert np.allclose(probe.matrix, np.eye(2) / 2.0)

    def test_zero_vector(self):
        probe = build_probe_system([0.0, 0.0])
        assert probe.rho == pytest.approx(1.0)
        assert np.allclose(probe.matrix, np.diag([0.0, 0.0, 1.0]))

    def test_always_psd_and_normalized(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            probe = build_probe_system(v)
            assert np.linalg.eigvalsh(probe.matrix)[0] >= -1e-12
            assert probe.matrix.sum() == pytest.approx(1.0)
            assert probe.rho >= 1.0

    def test_rejects_empty_vector(self):
        with pytest.raises(ValueError):
            build_probe_system([])

    @pytest.mark.parametrize("v", [[1e200, -1e200], [1e308, 1e308], [1e200, 1.0], [1e160j]])
    def test_rejects_a_vector_past_the_double_range(self, v):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="overflows double"):
            build_probe_system(v)


class TestProbeQuadraticForm:
    def test_reference_negative_value(self, n_system):
        value = probe_quadratic_form(n_system, n_system.atoms(), [1.0, -1.0])
        assert value == pytest.approx(-0.6, abs=1e-12)

    def test_strongly_positive_never_negative(self, m_system):
        rng = np.random.default_rng(56)
        for _ in range(20):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert probe_quadratic_form(m_system, m_system.atoms(), v) >= -1e-9

    def test_zero_vector_gives_zero(self, n_system):
        assert probe_quadratic_form(n_system, n_system.atoms(), [0.0, 0.0]) == pytest.approx(0.0)

    def test_matches_direct_quadratic_form(self):
        rng = np.random.default_rng(57)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            s = random_hermitian_system(rng, n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            events = list(s.atoms())
            via_composition = probe_quadratic_form(s, events, v)
            m1 = event_matrix(s, events)
            rho = 1.0 + abs(v.sum()) ** 2
            direct = (v.conj() @ m1 @ v).real / rho
            assert via_composition == pytest.approx(direct, abs=1e-10)

    def test_general_disjoint_event_lists(self):
        rng = np.random.default_rng(58)
        for _ in range(30):
            s = random_hermitian_system(rng, 4)
            events = [Event.from_indices([0, 1], 4), Event.from_indices([2], 4)]
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            m1 = event_matrix(s, events)
            rho = 1.0 + abs(v.sum()) ** 2
            direct = (v.conj() @ m1 @ v).real / rho
            assert probe_quadratic_form(s, events, v) == pytest.approx(direct, abs=1e-10)

    def test_sixty_four_atoms(self):
        # the composed event lives on 64 * 65 atoms
        rng = np.random.default_rng(59)
        s = random_hermitian_system(rng, 64)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        rho = 1.0 + abs(v.sum()) ** 2
        direct = (v.conj() @ s.matrix @ v).real / rho
        assert probe_quadratic_form(s, s.atoms(), v) == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_large_vectors_get_the_slack_of_the_composed_matrix(self):
        # The value's rounding grows with ||M_s|| ||M_probe||, and ||M_probe||
        # with |v|^2 / rho; the probed matrix's slack alone refused 58 of these.
        checked = 0
        for seed in range(40):
            s = generate(GenSpec("hermitian_only", 8, seed))
            rng = np.random.default_rng(seed)
            for scale in (1e3, 1e5, 1e7):
                v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
                v = (v - v.mean()) * scale
                direct = (v.conj() @ s.matrix @ v).real / (1.0 + abs(v.sum()) ** 2)
                value = probe_quadratic_form(s, s.atoms(), v)
                assert value == pytest.approx(direct, rel=1e-12), (seed, scale)
                checked += 1
        assert checked == 120

    def test_rejects_overlapping_events(self, n_system):
        overlapping = [Event.from_indices([0], 2), Event.from_indices([0, 1], 2)]
        with pytest.raises(ValueError):
            probe_quadratic_form(n_system, overlapping, [1.0, 1.0])

    def test_rejects_length_mismatch(self, n_system):
        with pytest.raises(ValueError):
            probe_quadratic_form(n_system, n_system.atoms(), [1.0])


class TestDualMembershipReport:
    def test_half_i_in_both(self, half_i_system):
        report = dual_membership_report(half_i_system)
        assert report.in_dual_of_posentry
        assert report.strongly_positive
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_n_dual_but_not_strong(self, n_system):
        report = dual_membership_report(n_system)
        assert report.in_dual_of_posentry
        assert not report.strongly_positive
        assert report.probe_value < 0
        # unit eigenvector: the probe value is lambda_min over its normalizer
        rho = 1.0 + abs(report.probe_vector.sum()) ** 2
        assert report.probe_value == pytest.approx(report.min_eigenvalue / rho, abs=1e-12)

    def test_classical_in_everything(self):
        report = dual_membership_report(QuantumSystem(np.diag([0.3, 0.7])))
        assert report.in_dual_of_posentry
        assert report.strongly_positive
        assert report.probe_value >= -1e-12

    def test_probe_detects_strong_positivity_both_ways(self):
        # membership in S iff the min-eigenvector probe is non-negative
        rng = np.random.default_rng(59)
        for seed in range(10):
            for kind in ("strong", "weak_not_strong_not_posentry"):
                n = int(rng.integers(2, 5))
                s = generate(GenSpec(kind, n, seed))
                report = dual_membership_report(s)
                if classify(s).strongly_positive:
                    assert report.probe_value >= -1e-9
                else:
                    assert report.probe_value < 0
