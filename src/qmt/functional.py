"""Quantum systems as atomic matrices, their functional, and quantal measures.

A finite system is fully determined by the complex matrix of functional
values on pairs of singleton events (the atoms); all other values follow by
bi-additivity.  The constructor enforces Hermiticity and unit entry sum.
Weak positivity is a classification result, not a construction invariant,
so non-weakly-positive "quasi-systems" are representable too.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .algebra import ENUMERATION_LIMIT, Event
from .errors import (
    ArityMismatchError,
    AxiomViolationError,
    BruteForceLimitError,
    QmtError,
    SumRuleViolationError,
)

# Measure tables, and with them the sum-rule check, cover every event up to this n.
MEASURE_TABLE_LIMIT = 16
# The event sweep splits the atoms into at most SWEEP_LOW_ATOMS low atoms and
# the rest.  The low atoms' masks come in doubling blocks from [0, 2), so a
# violator at mask 1 costs two measures; after them one block covers at most
# SWEEP_BLOCK_HIGH consecutive masks of the rest.  A block then holds at most
# 256 KB of measures, which stay in a core's L2 cache while the reduce reads
# them back.
SWEEP_LOW_ATOMS = 12
SWEEP_BLOCK_HIGH = 1 << 3


@dataclass(frozen=True)
class Tolerance:
    """Absolute plus Frobenius-scaled relative slack for float comparisons."""

    eps_abs: float = 1e-9
    eps_rel: float = 1e-9

    def __post_init__(self):
        if not (0 <= self.eps_abs < math.inf and 0 <= self.eps_rel < math.inf):
            raise ValueError("tolerances must be finite and non-negative")

    def slack(self, scale: float) -> float:
        """eps_abs plus eps_rel times ``scale``: the slack for values of that size."""
        return self.eps_abs + self.eps_rel * scale

    def scaled(self, matrix: np.ndarray) -> float:
        return self.slack(float(np.linalg.norm(matrix)))


DEFAULT_TOL = Tolerance()


class QuantumSystem:
    """An n-atom system: atom labels plus the n x n atomic matrix.

    ``matrix[i, j]`` is the functional value on the singleton pair
    ({atom i}, {atom j}).  The matrix must be Hermitian and its entries
    must sum to 1, both within ``tol``.  ``compose`` passes its Kronecker
    product as a ``_KronProduct``, which skips the Hermiticity pass.
    """

    __slots__ = ("matrix", "labels", "metadata")

    def __init__(self, matrix, labels=None, *, tol: Tolerance = DEFAULT_TOL, metadata=None):
        m, axioms = _matrix_axioms(matrix, tol)
        n = m.shape[0]
        if labels is None:
            labels = tuple(f"g{i}" for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise AxiomViolationError(
                    f"{len(labels)} labels for a {n}-atom matrix"
                )
        if not axioms.hermitian:
            raise AxiomViolationError(
                f"matrix is not Hermitian (max residual {axioms.hermitian_residual:.3e})"
            )
        if not axioms.normalized:
            raise AxiomViolationError(
                f"entries sum to {axioms.entry_sum:.6g}, expected 1"
            )
        # m is fresh: read-only, with the array that owns its memory if it is a view.
        for a in (m, m.base):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "metadata", dict(metadata or {}))

    def __setattr__(self, name, value):
        raise AttributeError("QuantumSystem is immutable")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def atom(self, i: int) -> Event:
        if not 0 <= i < self.n:
            raise ValueError(f"atom index {i} out of range for {self.n} atoms")
        return Event(1 << i, self.n)

    def atoms(self) -> tuple[Event, ...]:
        return tuple(self.atom(i) for i in range(self.n))

    def __repr__(self) -> str:
        return f"QuantumSystem(n={self.n}, labels={self.labels!r})"


def _check_event(s: QuantumSystem, e: Event) -> None:
    if e.arity != s.n:
        raise ArityMismatchError(f"event arity {e.arity} != system arity {s.n}")


def eval_D(s: QuantumSystem, a: Event, b: Event) -> complex:
    """Bi-additive functional value: the sum of atomic entries over a x b."""
    _check_event(s, a)
    _check_event(s, b)
    if not a or not b:
        return 0j
    rows = np.fromiter(a.indices(), dtype=np.intp)
    cols = np.fromiter(b.indices(), dtype=np.intp)
    return complex(s.matrix[np.ix_(rows, cols)].sum())


def _indicators(events: Sequence[Event], n: int) -> np.ndarray:
    """0/1 matrix with one row per event: row i is the indicator of events[i]."""
    out = np.empty((len(events), n))
    for row, e in zip(out, events):
        if e.arity != n:
            raise ArityMismatchError(f"event arity {e.arity} != {n}")
        packed = np.frombuffer(e.bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        row[:] = np.unpackbits(packed, count=n, bitorder="little")
    return out


def event_matrix(s: QuantumSystem, events: Sequence[Event]) -> np.ndarray:
    """Hermitian matrix of functional values over a list of distinct events.

    Entry (i, j) is D(events[i], events[j]); with V the events' indicator
    rows, the whole matrix is V M V^T.
    """
    if len(set(events)) != len(events):
        raise ValueError("events must be distinct")
    v = _indicators(events, s.n)
    return v @ s.matrix @ v.T


def quantal_measure(s: QuantumSystem, a: Event, tol: Tolerance = DEFAULT_TOL) -> float:
    """Diagonal value mu(a) = D(a, a); real for any Hermitian system."""
    z = eval_D(s, a, a)
    if abs(z.imag) > tol.scaled(s.matrix):
        raise AxiomViolationError(
            f"measure of {a!r} has imaginary residue {z.imag:.3e}; input not Hermitian"
        )
    return z.real


def _bit_rows(lo: int, hi: int, width: int) -> np.ndarray:
    """0/1 rows of the masks lo..hi-1 over ``width`` atoms, bit i in column i."""
    return (np.arange(lo, hi)[:, None] >> np.arange(width) & 1).astype(float)


@functools.cache
def _low_bits() -> np.ndarray:
    """Read-only 0/1 rows of all low masks, built by the first sweep for all.

    A sweep over c low atoms reads the first 2**c rows and c columns.
    """
    v = _bit_rows(0, 1 << SWEEP_LOW_ATOMS, SWEEP_LOW_ATOMS)
    v.flags.writeable = False
    return v


def _sweep_blocks(matrix: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first_mask, values): the measures of all 2**n masks in mask order.

    With A = Re(M) and the atoms split into c low and n - c high ones, mask
    h * 2**c + l has measure mu_H(h) + mu_L(l) + v_H (A_HL + A_LH^T) v_L^T,
    which equals v^T A v even when A is only nearly symmetric.  The low
    masks (high mask 0) come first, in doubling blocks [0, 2), [2, 4),
    [4, 8), ..., [2**(c-1), 2**c).  Block [2**j, 2**(j+1)) adds atom j to
    the masks l of the block before it:
    mu_L(2**j + l) = mu_L(l) + A_jj + (A_j,<j + A_<j,j^T) v_l, one
    matrix-vector product, so a single atom's measure is its diagonal entry
    exactly.  Only then is the high atoms' right-hand side built, from the
    whole of mu_L, and each later block is one real GEMM
    [V_H, 1, mu_H] @ [(A_HL + A_LH^T) V_L^T; mu_L; 1] over the high masks
    [1, 2), [2, 4), [4, 8), ..., at most SWEEP_BLOCK_HIGH of them.  So a
    consumer that stops at mask 1 has computed two measures.  Every block
    is 2-D and its row-major values are in mask order.
    """
    return _sweep(matrix, None)


def _sweep(matrix: np.ndarray, out: np.ndarray | None) -> Iterator[tuple[int, np.ndarray]]:
    """The blocks of ``_sweep_blocks``, each also written into its slice of ``out``.

    ``event_measures`` passes 2**n doubles, so the blocks fill its result in
    place with no copy; with ``out`` None the low blocks fill a buffer of
    their own and nothing else is written.
    """
    n = matrix.shape[0]
    if n > ENUMERATION_LIMIT:
        raise BruteForceLimitError(f"event sweep over 2**{n} masks exceeds limit")
    a = np.asarray(matrix).real
    c = min(n, SWEEP_LOW_ATOMS)
    v = _low_bits()[: 1 << c, :c]
    pair_sums = a[:c, :c] + a[:c, :c].T
    mu_low = np.empty(1 << c) if out is None else out[: 1 << c]
    mu_low[:2] = 0.0, a[0, 0]
    yield 0, mu_low[None, :2]
    for j in range(1, c):
        h = 1 << j
        added = np.matmul(v[:h, :j], pair_sums[j, :j], out=mu_low[h : 2 * h])
        added += mu_low[:h]
        added += a[j, j]
        yield h, added[None, :]
    high = 1 << (n - c)
    if high == 1:
        return
    right = np.concatenate([(a[c:, :c] + a[:c, c:].T) @ v.T, [mu_low, np.ones(1 << c)]])
    v = _bit_rows(0, high, n - c)
    mu_high = ((v @ a[c:, c:]) * v).sum(axis=1, keepdims=True)
    left = np.concatenate([v, np.ones_like(mu_high), mu_high], axis=1)
    lo = 1
    while lo < high:
        hi = min(2 * lo, lo + SWEEP_BLOCK_HIGH, high)
        block = None if out is None else out[lo << c : hi << c].reshape(hi - lo, 1 << c)
        yield lo << c, np.matmul(left[lo:hi], right, out=block)
        lo = hi


def event_measures(matrix: np.ndarray) -> np.ndarray:
    """Measures of all 2**n events, indexed by bitmask: the sweep's blocks joined.

    Mask v has measure v^T Re(M) v, the bi-additive diagonal value on its
    event.  Raises ``BruteForceLimitError`` above ``ENUMERATION_LIMIT`` atoms.
    """
    out = np.empty(1 << matrix.shape[0])
    for _ in _sweep(matrix, out):
        pass
    return out


def first_weak_violation(matrix: np.ndarray, slack: float) -> tuple[Event, float] | None:
    """The lowest-bitmask event with measure below -slack, and that measure.

    Sweeps the events of the first ``ENUMERATION_LIMIT`` atoms, the masks
    below 2**ENUMERATION_LIMIT: a violator there is the lowest of the whole
    system, and is returned as an event of all n atoms.  None means no
    violator among them, which decides W only up to ``ENUMERATION_LIMIT``
    atoms.  Reads the sweep's blocks in mask order, the low atoms' 2**c
    masks in doubling blocks from [0, 2) and then high blocks that double
    in size too, and returns from the first block that holds a confirmed
    candidate; later blocks are never computed.  A candidate counts only
    when its direct sum Re 1^T M[S,S] 1 is below -slack too; that sum is
    the returned measure.
    """
    head = matrix[:ENUMERATION_LIMIT, :ENUMERATION_LIMIT]
    atoms = np.arange(len(head))
    for first, values in _sweep_blocks(head):
        if values.min() >= -slack:
            continue
        for offset in np.flatnonzero(values < -slack):
            mask = first + int(offset)
            idx = np.flatnonzero(mask >> atoms & 1)
            value = float(matrix[np.ix_(idx, idx)].sum().real)
            if value < -slack:
                return Event(mask, len(matrix)), value
    return None


class StrongResult(NamedTuple):
    ok: bool
    min_eigenvalue: float
    eigenvector: np.ndarray


class EntryResult(NamedTuple):
    ok: bool
    index: tuple[int, int] | None
    value: complex | None


class _Entries(NamedTuple):
    positive_entry: EntryResult
    dual: EntryResult
    real_symmetric: bool
    diagonal: bool


def _lapack(routine, m: np.ndarray):
    """``routine(m)``, a LAPACK failure raised as a ``QmtError``."""
    try:
        return routine(m)
    except np.linalg.LinAlgError as exc:
        raise QmtError(f"eigendecomposition failed: {exc}") from exc


def _min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, from ``eigvalsh``: no eigenvectors."""
    return float(_lapack(np.linalg.eigvalsh, m)[0])


def _psd_test(m: np.ndarray, slack: float) -> StrongResult:
    """Smallest eigenpair of a Hermitian matrix; ok when the eigenvalue is >= -slack.

    The eigenvalue is ``_min_eigenvalue``'s, so S is decided here bit for
    bit as ``positivity`` decides it; ``eigh`` only supplies its eigenvector.
    """
    lo = _min_eigenvalue(m)
    vec = _lapack(np.linalg.eigh, m)[1][:, 0].copy()
    vec.flags.writeable = False
    return StrongResult(lo >= -slack, lo, vec)


def _first_entry(m: np.ndarray, bad: np.ndarray) -> EntryResult:
    """ok when no entry is marked bad, else the first one in row-major order."""
    flat = np.flatnonzero(bad)
    if flat.size == 0:
        return EntryResult(True, None, None)
    i, j = divmod(int(flat[0]), m.shape[1])
    return EntryResult(False, (i, j), complex(m[i, j]))


def _entry_scan(m: np.ndarray, slack: float) -> _Entries:
    """Every entrywise test, within slack, from one scan of the entries.

    P: every entry real and non-negative.  dual(P): every real part
    non-negative.  Real symmetric: every entry real.  Diagonal: every
    off-diagonal entry zero and every diagonal entry as P requires.
    """
    negative = m.real < -slack
    nonreal = np.abs(m.imag) > slack
    not_p = negative | nonreal
    not_diagonal = np.abs(m) > slack
    np.fill_diagonal(not_diagonal, not_p.diagonal())
    p, dual = _first_entry(m, not_p), _first_entry(m, negative)
    return _Entries(p, dual, not nonreal.any(), not not_diagonal.any())


@dataclass(frozen=True)
class Classification:
    """Membership in every positivity class; ``weakly_positive`` None is unknown."""

    weakly_positive: bool | None
    weak_violation: Event | None
    weak_violation_value: float | None
    strongly_positive: bool
    min_eigenvalue: float
    positive_entry: bool
    entry_violation: tuple[int, int] | None
    classical: bool
    in_dual_of_posentry: bool
    dual_violation: tuple[int, int] | None
    real_symmetric: bool

    def flags(self) -> dict[str, bool | None]:
        return {
            "weakly_positive": self.weakly_positive,
            "strongly_positive": self.strongly_positive,
            "positive_entry": self.positive_entry,
            "classical": self.classical,
            "in_dual_of_posentry": self.in_dual_of_posentry,
            "real_symmetric": self.real_symmetric,
        }


def positivity(m: np.ndarray, slack: float) -> Classification:
    """Every class membership of a Hermitian matrix, from one eigvalsh and one entry scan.

    S is lambda_min >= -slack, and lambda_min comes from ``eigvalsh``: no
    eigenvector is computed, since nothing in the record needs one.

    S => W is a theorem, and so is dual(P) => W: a measure is the sum of the
    real parts of its event's entries.  dual(P) contains P, so when S or
    dual(P) holds W is reported with no sweep and no violation.  Only
    otherwise are the events swept for the lowest-bitmask violator.  Above
    ``ENUMERATION_LIMIT`` atoms the sweep covers the masks below
    2**ENUMERATION_LIMIT, the events of the first ENUMERATION_LIMIT atoms:
    a violator there is still the lowest of the whole system, and with none
    W is None (unknown).  Classical also requires S, and one slack makes
    classical => P => dual(P).  ``classify``, ``check_axioms`` and ``gen``
    all read this record.
    """
    min_eigenvalue, entries = _min_eigenvalue(m), _entry_scan(m, slack)
    strong = min_eigenvalue >= -slack
    n = m.shape[0]
    violation, value = None, None
    if strong or entries.dual.ok:
        weak = True
    else:
        found = first_weak_violation(m, slack)
        if found:
            weak, (violation, value) = False, found
        else:
            weak = None if n > ENUMERATION_LIMIT else True
    return Classification(
        weakly_positive=weak,
        weak_violation=violation,
        weak_violation_value=value,
        strongly_positive=strong,
        min_eigenvalue=min_eigenvalue,
        positive_entry=entries.positive_entry.ok,
        entry_violation=entries.positive_entry.index,
        classical=entries.diagonal and strong,
        in_dual_of_posentry=entries.dual.ok,
        dual_violation=entries.dual.index,
        real_symmetric=entries.real_symmetric,
    )


@dataclass(frozen=True)
class AxiomReport:
    hermitian: bool
    hermitian_residual: float
    normalized: bool
    entry_sum: complex
    additivity: str
    weakly_positive: bool | None = None
    weak_violation: Event | None = None
    weak_violation_value: float | None = None

    @property
    def is_system(self) -> bool:
        return self.hermitian and self.normalized


class _KronProduct(NamedTuple):
    """A fresh Kronecker product of systems' matrices, for ``QuantumSystem``.

    It is Hermitian by construction, within the factors' own residuals, so
    the constructor takes it without a copy or a Hermiticity pass and only
    checks that its entry sum is finite and within ``slack`` of 1.
    """

    matrix: np.ndarray
    slack: float


def _matrix_axioms(matrix, tol: Tolerance) -> tuple[np.ndarray, AxiomReport]:
    """Complex copy of a square, non-empty, finite matrix and its axiom report.

    Shared by ``QuantumSystem`` and ``check_axioms``; weak fields left unset.
    A ``_KronProduct`` is neither copied nor tested for Hermiticity.
    """
    product = isinstance(matrix, _KronProduct)
    if product:
        m = matrix.matrix
    else:
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise AxiomViolationError(f"atomic matrix must be square, got shape {m.shape}")
        if m.shape[0] == 0:
            raise AxiomViolationError("a system needs at least one atom")
    entry_sum = complex(m.sum())
    slack = matrix.slack if product else tol.scaled(m)
    # A NaN or infinite entry makes the sum non-finite (so does a sum that
    # overflows, which no normalised matrix has), without a pass of its own.
    # Entries near 1e154 overflow the norm, and an infinite slack passes anything.
    if not (cmath.isfinite(entry_sum) and math.isfinite(slack)):
        raise AxiomViolationError("matrix entries and their norm must be finite")
    herm_residual = 0.0 if product else float(np.abs(m - m.conj().T).max())
    return m, AxiomReport(
        hermitian=herm_residual <= slack,
        hermitian_residual=herm_residual,
        normalized=abs(entry_sum - 1.0) <= slack,
        entry_sum=entry_sum,
        additivity="by construction (bi-additive evaluation)",
    )


def check_axioms(matrix, tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Check the functional axioms on a raw matrix or a constructed system.

    Hermiticity and normalisation are tested numerically.  Additivity holds
    by construction in the atomic representation, so it is reported as such
    rather than re-tested.  Weak positivity of a Hermitian matrix is read
    from ``positivity``, the record ``classify`` returns: by theorem when S
    or dual(P) holds (which costs one ``eigvalsh``), else by the sweep,
    and unknown (None) above ``ENUMERATION_LIMIT`` atoms.
    """
    m, report = _matrix_axioms(
        matrix.matrix if isinstance(matrix, QuantumSystem) else matrix, tol
    )
    if not report.hermitian:
        return report
    c = positivity(m, tol.scaled(m))
    return replace(
        report,
        weakly_positive=c.weakly_positive,
        weak_violation=c.weak_violation,
        weak_violation_value=c.weak_violation_value,
    )


@dataclass(frozen=True)
class SumRuleReport:
    """``worst_event`` is the event with the largest gap, lowest bitmask among ties."""

    passed: bool
    max_residual: float
    exhaustive: bool
    worst_event: Event | None

    def __bool__(self) -> bool:
        return self.passed


def _half_sum(values: np.ndarray, n: int) -> np.ndarray:
    """Real symmetric atomic matrix of a measure table, by the half-sum rule.

    ``D(A, B) = (mu(A|B) + mu(A&B) - mu(A\\B) - mu(B\\A)) / 2`` on atoms:
    A_ii = mu(i) and A_ij = A_ji = (mu(ij) - mu(i) - mu(j)) / 2.  A table
    obeys the quantal sum rule on every disjoint triple of events if and
    only if this matrix's functional reproduces it on every event (Sorkin,
    "Quantum mechanics as quantum measure theory", Mod. Phys. Lett. A 9
    (1994)), so 2**n measures decide what 4**n triples would.
    """
    bits = 1 << np.arange(n)
    singles = values[bits]
    i, j = np.triu_indices(n, 1)
    a = np.diag(singles)
    a[i, j] = a[j, i] = 0.5 * (values[bits[i] | bits[j]] - singles[i] - singles[j])
    return a


def _half_sum_check(values: np.ndarray, n: int, tol: Tolerance) -> tuple[np.ndarray, SumRuleReport]:
    """``_half_sum`` of a table, and whether its functional reproduces every event.

    By ``_half_sum``'s equivalence the report decides the quantal sum rule.
    """
    a = _half_sum(values, n)
    gaps = np.abs(event_measures(a) - values)
    worst = int(gaps.argmax())
    gap = float(gaps[worst])
    passed = gap <= tol.scaled(a)
    return a, SumRuleReport(passed, gap, True, None if passed else Event(worst, n))


def check_quantal_sum_rule(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> SumRuleReport:
    """The quantal sum rule, decided by ``_half_sum_check`` on the system's measures.

    Exhaustive on every event up to MEASURE_TABLE_LIMIT atoms, which by
    ``_half_sum``'s equivalence covers every disjoint triple.  Above it the
    rule is reported as holding by construction (``exhaustive`` False, zero
    residual): every measure of a matrix-defined system is a bi-additive
    sum of atomic entries, for which the rule is an identity.
    """
    if s.n > MEASURE_TABLE_LIMIT:
        return SumRuleReport(passed=True, max_residual=0.0, exhaustive=False, worst_event=None)
    return _half_sum_check(event_measures(s.matrix), s.n, tol)[1]


@dataclass(frozen=True)
class MeasureTable:
    """Real-valued measure on every event of a small system, indexed by bitmask."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 1 or self.n > MEASURE_TABLE_LIMIT:
            raise BruteForceLimitError(
                f"measure tables support 1 <= n <= {MEASURE_TABLE_LIMIT}, got {self.n}"
            )
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} values, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("measure values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def value(self, e: Event) -> float:
        if e.arity != self.n:
            raise ArityMismatchError(f"event arity {e.arity} != table arity {self.n}")
        return float(self.values[e.bits])

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        """Raise unless ``system_from_measure`` accepts the table (see ``_half_sum``)."""
        system_from_measure(self, tol=tol)


def measure_table(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> MeasureTable:
    """Tabulate mu over every event of a small system."""
    if s.n > MEASURE_TABLE_LIMIT:
        raise BruteForceLimitError(f"n={s.n} exceeds measure-table limit {MEASURE_TABLE_LIMIT}")
    return MeasureTable(s.n, event_measures(s.matrix))


def system_from_measure(
    table: MeasureTable,
    labels: Iterable[str] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> QuantumSystem:
    """Canonical real symmetric system realizing a quantal measure: ``_half_sum``.

    The table must be normalized and obey the quantal sum rule, which holds
    exactly when the induced functional reproduces it on every event (see
    ``_half_sum``); ``_half_sum_check`` compares them.
    """
    vals = table.values
    eps = tol.slack(float(np.abs(vals).max()))
    if abs(vals[0]) > eps:
        raise SumRuleViolationError(f"empty event has measure {vals[0]:.3e}")
    if abs(vals[-1] - 1.0) > eps:
        raise SumRuleViolationError(f"full event has measure {vals[-1]:.6g}")
    m, report = _half_sum_check(vals, table.n, tol)
    try:
        system = QuantumSystem(m, labels, tol=tol)
    except AxiomViolationError as exc:
        raise SumRuleViolationError(
            f"measure does not induce a normalized functional: {exc}"
        ) from exc
    if not report:
        worst = report.worst_event.bits
        raise SumRuleViolationError(
            f"measure violates the quantal sum rule: event {worst:#x} is off by "
            f"{report.max_residual:.3e} from the table's {vals[worst]:.9g}"
        )
    return system
