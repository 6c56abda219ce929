"""Derandomised property tests: the event sweep, the W-from-S-or-dual(P) rule, documents."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from qmt import GenSpec, MeasureTable, SumRuleViolationError, classify, generate
from qmt.documents import dumps, loads
from qmt.functional import DEFAULT_TOL, event_measures, first_weak_violation

from conftest import (
    document,
    oracle_dumps,
    oracle_quantal_table,
    random_hermitian_system,
    same_bits,
)

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@FIXED
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_measure_is_the_direct_sum(n, seed, data):
    m = random_hermitian_system(np.random.default_rng(seed), n).matrix
    mu = event_measures(m)
    scale = np.abs(mu).max()
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    for mask in masks:
        idx = np.array([i for i in range(n) if mask >> i & 1], dtype=np.intp)
        direct = m[np.ix_(idx, idx)].sum().real
        assert abs(mu[mask] - direct) <= 1e-12 * scale


@FIXED
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]),
    data=st.data(),
)
def test_validate_agrees_with_the_triple_oracle(n, seed, size, data):
    """A system's table, one event nudged by ``size`` of its scale: both checks agree."""
    values = event_measures(random_hermitian_system(np.random.default_rng(seed), n).matrix)
    mask = data.draw(st.integers(0, (1 << n) - 1))
    values[mask] += data.draw(st.sampled_from([1.0, -1.0])) * size * (1.0 + np.abs(values).max())
    table = MeasureTable(n, values)
    try:
        table.validate()
        verdict = True
    except SumRuleViolationError:
        verdict = False
    assert verdict == oracle_quantal_table(table.values, n)


@FIXED
@given(
    kind=st.sampled_from(
        ["strong", "posentry", "classical", "weak_not_strong_not_posentry", "hermitian_only"]
    ),
    n=st.integers(1, 10),
    seed=st.integers(0, 10**6),
)
def test_s_or_dual_implies_weakly_positive(kind, n, seed):
    assume(n >= 2 or kind != "weak_not_strong_not_posentry")
    s = generate(GenSpec(kind, n, seed))
    c = classify(s)
    if c.strongly_positive or c.in_dual_of_posentry:
        assert c.weakly_positive and c.weak_violation is None
        assert event_measures(s.matrix).min() >= -DEFAULT_TOL.scaled(s.matrix)
    else:
        assert kind == "hermitian_only"


@FIXED
@given(n=st.integers(1, 10), data=st.data())
def test_nonnegative_real_part_has_no_weak_violation(n, data):
    """dual(P) => W, on the sweep itself: with Re M >= 0 entrywise no measure is negative.

    The imaginary part is antisymmetric and arbitrary; it adds nothing to any
    measure, and the sweep must not let it.
    """
    size = st.floats(0.0, 1e6)
    real = np.array(data.draw(st.lists(size, min_size=n * n, max_size=n * n))).reshape(n, n)
    anti = np.triu(np.array(data.draw(st.lists(
        st.floats(-1e6, 1e6), min_size=n * n, max_size=n * n))).reshape(n, n), 1)
    m = real + 1j * (anti - anti.T)
    assert first_weak_violation(m, 0.0) is None


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@FIXED
@given(data=st.data(), n=st.integers(1, 5))
def test_documents_round_trip(data, n):
    """dumps matches the per-entry writer and loads returns the same bits.

    The one exception is the known negative-zero defect: -0.0 is written as
    -0 and read back as +0.0.
    """
    parts = data.draw(st.lists(finite_doubles, min_size=2 * n * n, max_size=2 * n * n))
    # Reuse drawn values so that repeated entries, as in Kronecker powers, occur.
    picks = data.draw(st.lists(st.integers(0, len(parts) - 1), min_size=len(parts),
                               max_size=len(parts)))
    values = np.array([parts[k] for k in picks])
    matrix = values.view(complex).reshape(n, n)
    text = dumps(document(matrix))
    assert text == oracle_dumps(document(matrix))
    assert same_bits(loads(text).matrix, matrix + 0.0)  # + 0.0 turns -0.0 into +0.0
    assert dumps(loads(text)) == dumps(document(matrix + 0.0))
