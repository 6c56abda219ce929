"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each test also prints an ACCEPTANCE PASS line on success.
"""

import time

import numpy as np
import pytest

from qmt import (
    Event,
    GenSpec,
    QuantumSystem,
    build_witness,
    classify,
    compose,
    det_identity_residual,
    eval_composed_factored,
    eval_D,
    event_matrix,
    generate,
    measure_table,
    probe_quadratic_form,
    rectangle_cover,
    system_from_measure,
    tensor_closed_probe,
)
from qmt.documents import bundled_document

from conftest import gen_posentry_not_strong, gen_strong_not_posentry, random_hermitian_system


def test_reference_counterexample():
    """Composing the checked-in reference systems yields -0.4 on the
    diagonal pair event, within 1e-12, in under a second."""
    start = time.perf_counter()
    m = bundled_document("strong_not_posentry").to_system()
    n = bundled_document("posentry_not_strong").to_system()
    composed = compose(m, n)
    event = Event.from_indices([0, 3], 4)  # pairs (0,0) and (1,1)
    value = eval_D(composed, event, event)
    elapsed = time.perf_counter() - start
    assert value.real == pytest.approx(-0.4, abs=1e-12)
    assert abs(value.imag) <= 1e-12
    assert elapsed < 1.0
    print(f"\nACCEPTANCE PASS: reference counterexample = {value.real:.12f} ({elapsed:.3f}s)")


def test_classification_regression():
    """Exact positivity flags for the three checked-in reference systems."""
    m = classify(bundled_document("strong_not_posentry").to_system())
    assert (m.weakly_positive, m.strongly_positive, m.positive_entry) == (True, True, False)
    n = classify(bundled_document("posentry_not_strong").to_system())
    assert (n.weakly_positive, n.strongly_positive, n.positive_entry) == (True, False, True)
    h = classify(bundled_document("dual_posentry_member").to_system())
    assert (h.in_dual_of_posentry, h.positive_entry, h.strongly_positive) == (True, False, True)
    print("\nACCEPTANCE PASS: classification regression (exact flag match)")


def test_determinant_identity():
    """m!*det = 2ee - 2eo residual below 1e-10 on 200 random Hermitian
    matrices for each order m in {2, 3, 4, 5}, in under 30 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for m in (2, 3, 4, 5):
        for _ in range(200):
            c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            h = (c + c.conj().T) / 2.0
            worst = max(worst, det_identity_residual(h))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 30.0
    print(f"\nACCEPTANCE PASS: determinant identity (worst residual {worst:.3e}, {elapsed:.1f}s)")


def test_witness_soundness():
    """200 seeded systems outside S and P but inside W, at 2 and 3 atoms:
    every witness verifies negative with predicted/verified agreement to
    1e-9 relative, and the Kronecker cross-check agrees whenever the
    power has at most 4096 atoms; all in under 5 minutes."""
    start = time.perf_counter()
    checked = 0
    cross_checked = 0
    for atoms in (2, 3):
        for seed in range(100):
            s = generate(GenSpec("weak_not_strong_not_posentry", atoms, seed))
            w = build_witness(s)
            assert w.verified_value < 0, (atoms, seed)
            gap = abs(w.predicted_value - w.verified_value)
            assert gap <= 1e-9 * max(1.0, abs(w.predicted_value)), (atoms, seed)
            if s.n**w.k <= 4096:
                assert w.cross_checked, (atoms, seed)
                cross_gap = abs(w.cross_check_value - w.verified_value)
                assert cross_gap <= 1e-9 * max(1.0, abs(w.verified_value)), (atoms, seed)
                cross_checked += 1
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE PASS: witness soundness (200/200 verified negative, "
        f"{cross_checked} Kronecker cross-checks up to 4096 atoms, {elapsed:.1f}s)"
    )


def test_kronecker_closure():
    """Strong x strong stays strong, positive-entry x positive-entry stays
    positive-entry, classical x classical stays classical; 200 random
    pairs each, zero violations."""
    rng = np.random.default_rng(77)
    for kind, flag in (
        ("strong", "strongly_positive"),
        ("posentry", "positive_entry"),
        ("classical", "classical"),
    ):
        for trial in range(200):
            n1 = int(rng.integers(2, 4))
            n2 = int(rng.integers(2, 4))
            s1 = generate(GenSpec(kind, n1, 2 * trial))
            s2 = generate(GenSpec(kind, n2, 2 * trial + 1))
            composed = classify(compose(s1, s2))
            assert composed.flags()[flag], (kind, trial)
    print("\nACCEPTANCE PASS: Kronecker closure (3 classes x 200 pairs, zero violations)")


def test_composition_well_definedness():
    """Factored evaluation is cover-independent: atom and row rectangle
    covers agree to 1e-12 on 500 random composed events."""
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(500):
        n1 = int(rng.integers(2, 4))
        n2 = int(rng.integers(2, 4))
        s1 = random_hermitian_system(rng, n1)
        s2 = random_hermitian_system(rng, n2)
        arity = n1 * n2
        e_a = Event(int(rng.integers(1, 1 << arity)), arity)
        e_b = Event(int(rng.integers(1, 1 << arity)), arity)
        values = [
            eval_composed_factored(
                s1,
                s2,
                rectangle_cover(e_a, n1, n2, strategy),
                rectangle_cover(e_b, n1, n2, strategy),
            )
            for strategy in ("atoms", "rows")
        ]
        worst = max(worst, abs(values[0] - values[1]))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE PASS: composition well-definedness (worst gap {worst:.3e})")


def test_galois_probe_identity():
    """The composed-event probe equals the direct quadratic form over the
    normalizer to 1e-10 on 200 random draws, and reproduces -0.6 on the
    reference system with the balanced vector."""
    n_sys = bundled_document("posentry_not_strong").to_system()
    value = probe_quadratic_form(n_sys, n_sys.atoms(), [1.0, -1.0])
    assert value == pytest.approx(-0.6, abs=1e-12)

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        s = random_hermitian_system(rng, n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        events = list(s.atoms())
        via_composition = probe_quadratic_form(s, events, v)
        rho = 1.0 + abs(v.sum()) ** 2
        direct = (v.conj() @ event_matrix(s, events) @ v).real / rho
        worst = max(worst, abs(via_composition - direct))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE PASS: Galois probe identity (-0.6 reproduced, worst gap {worst:.3e})")


def test_p_or_s_embedding():
    """Composing a positive-entry-only with a strongly-positive-only system
    always leaves both classes; 50 pairs, zero violations."""
    for seed in range(50):
        s1 = gen_posentry_not_strong(2 + seed % 2, seed)
        s2 = gen_strong_not_posentry(2 + (seed + 1) % 2, seed)
        report = tensor_closed_probe(s1, s2)
        c = classify(compose(s1, s2))
        assert not c.strongly_positive, seed
        assert not c.positive_entry, seed
        assert report.padded_min_eigenvalue < 0, seed
    print("\nACCEPTANCE PASS: P-or-S embedding (50 pairs, zero violations)")


def test_measure_roundtrip():
    """100 random quantal measure tables at up to 4 atoms: the induced real
    symmetric system reproduces the measure on every event to 1e-10."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 5))
        if trial % 2 == 0:
            r = rng.uniform(0.0, 1.0, size=(n, n))
            sym = (r + r.T) / 2.0
            source = QuantumSystem(sym / sym.sum())
        else:
            a = rng.standard_normal((n, n))
            g = a.T @ a
            source = QuantumSystem(g / g.sum())
        table = measure_table(source)
        rebuilt = system_from_measure(table)
        assert np.abs(rebuilt.matrix.imag).max() == 0.0
        assert np.allclose(rebuilt.matrix, rebuilt.matrix.T)
        reproduced = measure_table(rebuilt)
        worst = max(worst, float(np.abs(reproduced.values - table.values).max()))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE PASS: measure round-trip (worst gap {worst:.3e})")
