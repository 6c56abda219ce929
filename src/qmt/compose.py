"""Tensor composition of systems and evaluation of the result.

Composition is defined through atomic matrices: the composed system's
atomic matrix is the Kronecker product of the factor matrices, under the
global pair-index convention (i, j) -> i*n2 + j.  ``compose`` and
``self_compose`` build it through ``_product``, which trusts it from its
factors: each is Hermitian and normalised within its own slack, so the
product is too, and only its norm, the product of theirs, must be finite.
A composed document whose factors sit at the edge of their slack may so
fall outside its own slack when read back, as its Hermitian residual
could already.  ``_kron_form`` evaluates the probe's, the tensor probe's
and ``marginal_check``'s composed values by mode products on the factors;
the witness cross-check gathers the event's entries from ``self_compose``
blocks.  ``_kron_slack`` gives each composed value the slack its
materialized product would get.  The rectangle double sum
``eval_composed_factored`` is the paper's product rule, kept as the
reference the tests compare against.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .algebra import Event, ProductRectangle, embed_product
from .errors import ArityMismatchError, AxiomViolationError, BruteForceLimitError
from .functional import QuantumSystem, Tolerance, _indicators, _KronProduct, eval_D

# Largest composed atom count materialized as an explicit matrix.
MATERIALIZATION_LIMIT = 4096


def compose(s1: QuantumSystem, s2: QuantumSystem) -> QuantumSystem:
    """Kronecker product of two systems, n1*n2 atoms: a system because its factors are."""
    if s1.n * s2.n > MATERIALIZATION_LIMIT:
        raise BruteForceLimitError(
            f"composed arity {s1.n * s2.n} exceeds materialization limit "
            f"{MATERIALIZATION_LIMIT}"
        )
    return _product([s1, s2])


def self_compose(s: QuantumSystem, k: int) -> QuantumSystem:
    """k-fold Kronecker power of a system: ``compose(compose(s, s), s)`` and so on.

    The power is ``_product`` of k copies of s, with the matrix, labels and
    metadata that k - 1 ``compose`` calls would give.
    """
    if k < 1:
        raise ValueError(f"power k must be >= 1, got {k}")
    if s.n**k > MATERIALIZATION_LIMIT:
        raise BruteForceLimitError(
            f"arity {s.n}**{k} exceeds materialization limit {MATERIALIZATION_LIMIT}; "
            "use factored evaluation instead"
        )
    return s if k == 1 else _product([s] * k)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` as one broadcast product, with the same bytes and less overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _pair_labels(first: Sequence[str], second: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"({a},{b})" for a in first for b in second)


def _product(factors: Sequence[QuantumSystem]) -> QuantumSystem:
    """The system of factors[0] (x) ... (x) factors[-1]: the ``_kron`` chain, left to right.

    Labels and metadata are those ``compose`` gives the chain's last pair.
    The norm, one per distinct factor, is checked before any entry is formed.
    """
    with np.errstate(over="ignore"):
        norms = {f: float(np.linalg.norm(f.matrix)) for f in set(factors)}
    if not math.isfinite(math.prod(norms[f] for f in factors)):
        raise AxiomViolationError("the composed matrix's norm overflows double precision")
    matrix, labels = factors[0].matrix, factors[0].labels
    for f in factors[1:]:
        matrix, labels = _kron(matrix, f.matrix), _pair_labels(labels, f.labels)
    last = factors[-1]
    first = factors[0].metadata.get("name", "?") if len(factors) == 2 else "?"
    meta = {"composed_of": [first, last.metadata.get("name", "?")],
            "factor_arities": [len(matrix) // last.n, last.n]}
    return QuantumSystem(_KronProduct(matrix), labels, metadata=meta)


def _kron_slack(tol: Tolerance, *norms: float) -> float:
    """``tol``'s slack for a value of A_1 (x) ... (x) A_r, from the factors' Frobenius norms.

    ||A (x) B||_F = ||A||_F ||B||_F, so this is the slack ``tol.scaled``
    gives the materialized product, without forming it.
    """
    return tol.slack(math.prod(norms))


def _check_disjoint(rects: Sequence[ProductRectangle], what: str) -> None:
    seen = 0
    for r in rects:
        bits = embed_product(r).bits
        if seen & bits:
            raise ValueError(f"rectangles of {what} are not pairwise disjoint")
        seen |= bits


def eval_composed_factored(
    s1: QuantumSystem,
    s2: QuantumSystem,
    decomp_a: Sequence[ProductRectangle],
    decomp_b: Sequence[ProductRectangle],
) -> complex:
    """Composed functional value from rectangle decompositions of two events.

    Computes sum_i sum_j D1(A1_i, B1_j) * D2(A2_i, B2_j).  The value is
    independent of the chosen decompositions, which is what makes the
    product composition rule well defined; tests assert that literally.
    """
    for rects in (decomp_a, decomp_b):
        for r in rects:
            if r.first.arity != s1.n or r.second.arity != s2.n:
                raise ArityMismatchError("rectangle arities do not match the factor systems")
    _check_disjoint(decomp_a, "the first event")
    _check_disjoint(decomp_b, "the second event")
    total = 0j
    for ra in decomp_a:
        for rb in decomp_b:
            total += eval_D(s1, ra.first, rb.first) * eval_D(s2, ra.second, rb.second)
    return total


def _kron_form(blocks: Sequence[np.ndarray], x: np.ndarray, y: np.ndarray) -> complex:
    """x^T (B_1 (x) ... (x) B_r) y by mode products, never forming the product.

    y is reshaped to the blocks' column dimensions, first block most
    significant as in the pair-index convention, and each block is applied
    along its own axis: the vec-trick of Van Loan, "The ubiquitous Kronecker
    product", J. Comput. Appl. Math. 123 (2000).  Each step contracts the
    leading axis and appends the block's row axis last, one ``matmul`` on
    the transposed (d, N/d) view, so after r steps the axes are back in
    order.  Memory is O(N) and time O(N * sum d_i) for N = prod d_i,
    against O(N**2) for both with the product materialized.
    """
    t = np.asarray(y)
    for b in blocks:
        t = t.reshape(b.shape[1], -1).T @ b.T
    return complex(np.dot(x, t.reshape(-1)))


def marginal_check(s1: QuantumSystem, s2: QuantumSystem, a: Event, b: Event) -> complex:
    """Composed value on the padded pair (a x Omega_2, b x Omega_2).

    Contract: equals D1(a, b), since the second factor contributes its full
    normalisation.  Evaluated as the bilinear form of the embedded events'
    indicators under the composed operator M1 (x) M2, by mode products
    (``_kron_form``), so the identity is a genuine check rather than a
    restatement and no n1*n2 matrix is formed at any size.
    """
    if a.arity != s1.n or b.arity != s1.n:
        raise ArityMismatchError("marginal events must belong to the first factor")
    full2 = Event.full(s2.n)
    x, y = _indicators([embed_product(ProductRectangle(e, full2)) for e in (a, b)], s1.n * s2.n)
    return _kron_form([s1.matrix, s2.matrix], x, y)
