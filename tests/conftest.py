"""Shared fixtures and independent oracles used across the test suite."""

import cmath
import itertools
import json
import math

import numpy as np
import pytest

from qmt import (
    DocumentError,
    Event,
    GenSpec,
    QuantumSystem,
    SystemDocument,
    classify,
    eval_D,
    generate,
    perm_sums,
    quantal_measure,
)
from qmt.errors import QCapError, QmtError, SearchExhaustedError
from qmt.functional import _min_eigenvalue
from qmt.witness import (
    DOUBLE_SUM_CELLS,
    PAIR_SEARCH_LIMIT,
    PERM_ORDER_MAX,
    SUBSET_SEARCH_LIMIT,
    VALUE_FLOOR,
    NegDetSubset,
    _exponent_rows,
)

# Reference 2-atom systems used throughout: one strongly positive with a
# negative entry, one positive-entry with a non-PSD atomic matrix, one
# weakly positive system outside both classes, and one strongly positive
# system with non-real entries.
M_MATRIX = np.array([[2.0, -1.0], [-1.0, 1.0]])
N_MATRIX = np.array([[0.2, 0.4], [0.4, 0.0]])
WEAK_ONLY_MATRIX = np.array([[0.6, 0.5j], [-0.5j, 0.4]])
HALF_I_MATRIX = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
HALF_SWAP_MATRIX = np.array([[0.0, 0.5], [0.5, 0.0]])


@pytest.fixture(scope="session")
def m_system():
    return QuantumSystem(M_MATRIX)


@pytest.fixture(scope="session")
def n_system():
    return QuantumSystem(N_MATRIX)


@pytest.fixture(scope="session")
def weak_only_system():
    return QuantumSystem(WEAK_ONLY_MATRIX)


@pytest.fixture(scope="session")
def half_i_system():
    return QuantumSystem(HALF_I_MATRIX)


def random_hermitian_system(rng, n):
    """Random normalized Hermitian (quasi-)system, any positivity."""
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (c + c.conj().T) / 2.0
    total = h.sum().real
    while abs(total) < 0.1:
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (c + c.conj().T) / 2.0
        total = h.sum().real
    return QuantumSystem(h / total)


def strong_with_a_negative_event():
    """S within tolerance, yet the event {0, 1} measures about -3.6e-9."""
    u, w = np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    m = np.outer(u, u) - 1.8e-9 * np.outer(w, w)
    return QuantumSystem(m / m.sum())


def classical_outside_s():
    """Diagonal within tolerance, but its off-diagonal -0.99e-9 makes it non-PSD."""
    m = np.full((6, 6), -0.99e-9)
    np.fill_diagonal(m, 0.0)
    m[0, 0] = 1.0 - m.sum()
    return QuantumSystem(m)


def violator_past_the_sweep(n=22):
    """Outside S and dual(P); its only negative events hold atoms n - 2 and n - 1.

    Above the 20-atom sweep limit no event of the first 20 atoms is
    negative, so weak positivity stays unknown.
    """
    m = np.eye(n)
    m[n - 2, n - 1] = m[n - 1, n - 2] = -2.0
    return QuantumSystem(m / m.sum())


def weak_only_above_limit(n=21):
    """Positive-entry base plus an imaginary antisymmetric part: in W, not S or P."""
    rng = np.random.default_rng(n)
    base = rng.uniform(0.0, 1.0, (n, n))
    base = (base + base.T) / base.sum() / 2.0
    k = rng.standard_normal((n, n))
    return QuantumSystem(base + 0.05j * (k - k.T) / np.abs(k - k.T).max())


def negative_minor_past_the_cap(n=7):
    """M_jl = (delta_jl + 0.25 i sgn(l - j)) / n: in W and dual(P), not S or P.

    Each k-atom principal submatrix has lambda_min (1 - 0.25 cot(pi / 2k)) / n,
    which is >= 0 for k <= 6, so at n >= 7 every negative minor has more
    than 6 atoms.
    """
    j = np.arange(n)
    return QuantumSystem((np.eye(n) + 0.25j * np.sign(j[None, :] - j[:, None])) / n)


def gen_posentry_not_strong(n, seed):
    """Positive-entry system that is not strongly positive (retry until hit)."""
    for attempt in range(200):
        s = generate(GenSpec("posentry", n, seed + 10000 * attempt))
        if not classify(s).strongly_positive:
            return s
    raise AssertionError("no positive-entry, non-PSD draw found")


def gen_strong_not_posentry(n, seed):
    """Strongly positive system with some negative or non-real entry."""
    for attempt in range(200):
        s = generate(GenSpec("strong", n, seed + 10000 * attempt))
        if not classify(s).positive_entry:
            return s
    raise AssertionError("no strongly-positive, non-positive-entry draw found")


# ---------------------------------------------------------------------------
# Independent oracles.  These deliberately avoid the library's computation
# paths: set arithmetic on explicit index tuples, principal minors instead of
# eigenvalues, per-event summation instead of vectorized sweeps.


def oracle_event_value(matrix, a_indices, b_indices):
    """Functional value by explicit double loop over atom indices."""
    total = 0j
    for i in a_indices:
        for j in b_indices:
            total += matrix[i, j]
    return total


def oracle_psd_by_minors(matrix, tol=1e-10):
    """PSD iff every principal minor is non-negative (Hermitian input)."""
    n = matrix.shape[0]
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            sub = matrix[np.ix_(combo, combo)]
            if np.linalg.det(sub).real < -tol:
                return False
    return True


def oracle_weakly_positive(system, tol=1e-9):
    """Weak positivity by per-event evaluation through eval_D."""
    n = system.n
    for bits in range(1 << n):
        value = eval_D(system, Event(bits, n), Event(bits, n))
        if value.real < -tol:
            return False, bits
    return True, None


def oracle_quantal_table(values, n, tol=1e-9):
    """A table normalized and obeying the quantal sum rule on every disjoint triple.

    Each of the 4**n assignments of atoms to (none, A, B, C) is one triple;
    mu(ABC) - mu(AB) - mu(BC) - mu(AC) + mu(A) + mu(B) + mu(C) must vanish.
    The slack is tol times one plus the table's largest magnitude.
    """
    eps = tol * (1.0 + float(np.abs(values).max()))
    if abs(values[0]) > eps or abs(values[-1] - 1.0) > eps:
        return False
    for buckets in itertools.product(range(4), repeat=n):
        a, b, c = (sum(1 << i for i, k in enumerate(buckets) if k == part) for part in (1, 2, 3))
        residual = (values[a | b | c] - values[a | b] - values[b | c] - values[a | c]
                    + values[a] + values[b] + values[c])
        if abs(residual) > eps:
            return False
    return True


# ---------------------------------------------------------------------------
# Document oracles: a copy of the earlier per-entry writer (one format() call
# per double) and per-cell reader loop, which the bulk ones must match.


def oracle_dumps(doc):
    def fmt(x):
        if not math.isfinite(x):
            raise DocumentError(f"non-finite float {x!r} cannot be serialized")
        return format(float(x), ".17g")

    rows = []
    for row in doc.matrix:
        cells = ", ".join(f'{{"re": {fmt(z.real)}, "im": {fmt(z.imag)}}}' for z in row)
        rows.append(f"    [{cells}]")
    matrix_text = ",\n".join(rows)
    atoms_text = ", ".join(json.dumps(a) for a in doc.atoms)
    metadata_text = json.dumps(doc.metadata, sort_keys=True)
    return (
        "{\n"
        f'  "name": {json.dumps(doc.name)},\n'
        f'  "atoms": [{atoms_text}],\n'
        f'  "matrix": [\n{matrix_text}\n  ],\n'
        f'  "metadata": {metadata_text}\n'
        "}\n"
    )


def oracle_matrix(text):
    """The matrix the per-cell loop parsed; DocumentError with its message if bad."""
    raw = json.loads(text)
    n = len(raw["atoms"])
    matrix = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(raw["matrix"]):
        if not (isinstance(row, list) and len(row) == n):
            raise DocumentError(f"matrix row {i} must have {n} entries")
        for j, cell in enumerate(row):
            if not (isinstance(cell, dict) and set(cell) == {"re", "im"}):
                raise DocumentError(f"matrix entry ({i}, {j}) must be an object with re and im")
            re, im = cell["re"], cell["im"]
            if not (
                isinstance(re, (int, float)) and isinstance(im, (int, float))
                and not isinstance(re, bool) and not isinstance(im, bool)
            ):
                raise DocumentError(f"matrix entry ({i}, {j}) must hold numbers")
            try:
                z = complex(float(re), float(im))
            except OverflowError:
                z = complex(math.inf)
            if not cmath.isfinite(z):
                raise DocumentError(f"matrix entry ({i}, {j}) is not finite")
            matrix[i, j] = z
    return matrix


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


def document(matrix, name="m"):
    n = len(matrix)
    return SystemDocument(name, tuple(f"a{i}" for i in range(n)), np.asarray(matrix), {})


# ---------------------------------------------------------------------------
# Witness oracles: the negative-determinant scan one subset at a time, the
# plan search as a scalar loop over subset x pair x p x q that evaluates
# every row of every pair, and the literal double sum as one gather per
# component row and as one gather per slot, which the chunked scan, the
# bounded search and the array double sum in qmt.witness must match.


def oracle_neg_det_candidates(s, tol, limit):
    """Every size's subsets sorted by bitmask, each with its own gather, det and slack."""
    n = s.n
    m = s.matrix
    found = 0
    for size in range(2, min(n, PERM_ORDER_MAX) + 1):
        combos = itertools.combinations(range(n), size)
        for combo in sorted(combos, key=lambda c: sum(1 << i for i in c)):
            idx = np.array(combo, dtype=np.intp)
            sub = m[np.ix_(idx, idx)]
            det = complex(np.linalg.det(sub)).real
            if det < -tol.scaled(sub):
                sub = sub.copy()
                sub.flags.writeable = False
                yield NegDetSubset(tuple(combo), sub, float(det))
                found += 1
                if found >= limit:
                    return
    if not found:
        lo = _min_eigenvalue(m)
        searched = (f"no principal submatrix of at most {PERM_ORDER_MAX} atoms has negative "
                    f"determinant (lambda_min = {lo:.3e})")
        if lo >= -tol.scaled(m):
            why = "the system is PSD or borderline"
        elif n > PERM_ORDER_MAX:
            why = ("the system is not PSD, and a negative minor, if there is one, "
                   f"has more than {PERM_ORDER_MAX} atoms, past the search bound")
        else:
            why = "the system is not PSD, but no principal minor is negative by more than its slack"
        raise SearchExhaustedError(f"{searched}; {why}")


def oracle_search_case_b(s, tol, pairs, q_cap):
    best = None
    ratios = []
    subsets = list(oracle_neg_det_candidates(s, tol, SUBSET_SEARCH_LIMIT))
    diagonals = [
        tuple(max(0.0, quantal_measure(s, s.atom(i), tol)) for i in (pr.first, pr.second))
        for pr in pairs[:PAIR_SEARCH_LIMIT]
    ]
    terms = None
    for si, neg in enumerate(subsets):
        sums = perm_sums(neg.submatrix, tol)
        ee, eo = sums.ee, sums.eo
        if ee >= eo:
            raise QmtError(
                f"negative determinant {neg.det:.3e} but ee={ee:.6g} >= eo={eo:.6g}; "
                "permutation sums are inconsistent"
            )
        m = sums.order
        half = math.factorial(m) // 2
        if eo > 0.0:
            ratios.append(ee / eo)
        if terms is None:
            terms = [[list(_exponent_rows(pr, *d, q_cap, sign)) for sign in (False, True)]
                     for pr, d in zip(pairs, diagonals)]
        case = "b_i" if eo <= 0.0 else "b_ii" if ee <= 0.0 else "b_iii"
        for pi, (pair, (nonneg, negative)) in enumerate(zip(pairs, terms)):
            for p, x_p, y_p, cos_p in nonneg if case == "b_i" else negative:
                if case == "b_iii":
                    target = 0.5 * y_p * abs(cos_p)
                    ratio = ee / eo
                    xq = x_p * ratio
                    q = 1
                    while xq > target and q < q_cap:
                        xq *= ratio
                        q += 1
                    if xq > target:
                        continue
                else:
                    q = 1
                predicted = x_p * ee**q + y_p * cos_p * eo**q
                if not predicted < -VALUE_FLOOR:
                    continue
                rank = (2 * half**q, p + m * q, si, pi, p)
                if best is None or rank < best[0]:
                    ids = (pair.first, pair.second) + neg.atoms
                    best = rank, ids, dict(
                        case=case, phase_pair=pair, neg_det_atoms=neg.atoms, ee=ee, eo=eo,
                        p=p, q=q, k=p + m * q, x_p=x_p, y_p=y_p,
                        component_count=2 * half**q, predicted_value=predicted,
                    )
    if best is None:
        worst = max(ratios) if ratios else float("nan")
        max_theta = max(abs(pr.theta) for pr in pairs)
        raise QCapError(
            f"no witness within q <= {q_cap}: even-even/even-odd ratio up to "
            f"{worst:.9g} and phase magnitude at most {max_theta:.3e} leave no "
            "feasible exponents; raise --qmax"
        )
    return best[1], best[2]


def oracle_double_sum(values, comps):
    total = 0j
    for c in comps:
        total += complex(values[c[None, :], comps].prod(axis=1).sum())
    return total


def oracle_slot_double_sum(values, comps):
    """The double sum slot by slot: every pair's product from scratch, one gather per slot.

    Rows go in blocks of at most DOUBLE_SUM_CELLS pairs, each block's row
    sums added in row order: the kernel that ``qmt.witness._double_sum``
    must match bit for bit.
    """
    n, k = comps.shape
    flat = values.ravel()
    slots = comps.T
    left = slots * len(values)
    step = max(1, DOUBLE_SUM_CELLS // n)
    total = 0j
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        prod = flat[left[0, rows, None] + slots[0]]
        for j in range(1, k):
            prod *= flat[left[j, rows, None] + slots[j]]
        total = sum(prod.sum(axis=1).tolist(), total)
    return total
