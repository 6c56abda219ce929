"""Derandomised property tests: the event sweep, the W-from-S-or-dual(P) rule, documents,
composition and the measure round trip."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from qmt import GenSpec, MeasureTable, SumRuleViolationError, classify, compose, generate
from qmt.documents import dumps, loads
from qmt.functional import (
    DEFAULT_TOL,
    event_measures,
    first_weak_violation,
    measure_table,
    system_from_measure,
)

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


@FIXED
@given(sizes=st.lists(st.integers(1, 4), min_size=3, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_compose_is_associative(sizes, seed):
    """(a.b).c and a.(b.c) agree up to the pair-index permutation of their atoms.

    Atom (i, j, k) sits at (i*nb + j)*nc + k on the left and i*(nb*nc) +
    (j*nc + k) on the right, so the permutation read off the labels is the
    identity, and the entries differ only by the rounding of a triple product,
    a few ulps of the product of the factors' moduli.
    """
    rng = np.random.default_rng(seed)
    a, b, c = (random_hermitian_system(rng, n) for n in sizes)
    left, right = compose(compose(a, b), c), compose(a, compose(b, c))
    flat = [label.replace("(", "").replace(")", "") for label in right.labels]
    perm = np.array([flat.index(label.replace("(", "").replace(")", ""))
                     for label in left.labels])
    assert (perm == np.arange(left.n)).all()
    gap = np.abs(left.matrix - right.matrix[np.ix_(perm, perm)])
    moduli = np.kron(np.kron(np.abs(a.matrix), np.abs(b.matrix)), np.abs(c.matrix))
    assert (gap <= 8 * np.finfo(float).eps * moduli).all()


@FIXED
@given(
    kinds=st.lists(st.sampled_from(["strong", "classical"]), min_size=2, max_size=2),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=2),
    seeds=st.lists(st.integers(0, 10**6), min_size=2, max_size=2),
)
def test_strong_composed_with_strong_is_strong(kinds, sizes, seeds):
    """S (x) S is in S: the Kronecker product of PSD matrices is PSD."""
    s1, s2 = (generate(GenSpec(*spec)) for spec in zip(kinds, sizes, seeds))
    assert classify(compose(s1, s2)).strongly_positive


@FIXED
@given(
    kinds=st.lists(st.sampled_from(["posentry", "classical"]), min_size=2, max_size=2),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=2),
    seeds=st.lists(st.integers(0, 10**6), min_size=2, max_size=2),
)
def test_posentry_composed_with_posentry_is_posentry(kinds, sizes, seeds):
    """P (x) P is in P: products of non-negative reals are non-negative reals."""
    s1, s2 = (generate(GenSpec(*spec)) for spec in zip(kinds, sizes, seeds))
    assert classify(compose(s1, s2)).positive_entry


@FIXED
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_measure_table_round_trip(n, seed):
    """A system's table gives back its real part, whose table is the same table.

    The imaginary part is antisymmetric and adds nothing to any measure, so
    the real symmetric system is the one the table determines.
    """
    s = random_hermitian_system(np.random.default_rng(seed), n)
    table = measure_table(s)
    back = system_from_measure(table)
    scale = np.abs(s.matrix).max()
    assert np.abs(back.matrix - s.matrix.real).max() <= 1e-12 * scale
    assert np.abs(measure_table(back).values - table.values).max() <= 1e-12 * scale
