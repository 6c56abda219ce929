"""Positivity classification of quantum systems.

Membership tests for the nested positivity classes: weak positivity (every
event has non-negative measure), strong positivity (the atomic matrix is
positive semi-definite, which by coarse-graining covers every event matrix),
positive entry (all atomic values real and non-negative), classical
(diagonal atomic matrix), and the dual-of-positive-entry condition (real
parts non-negative).  Borderline values within tolerance count as members:
the classes are closed sets.

S => W and P => W are theorems, so ``classify`` sweeps the 2**n events
only for a system in neither S nor P; only such a system above
``ENUMERATION_LIMIT`` atoms raises ``BruteForceLimitError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import ENUMERATION_LIMIT, Event
from .errors import BruteForceLimitError, QmtError
from .functional import DEFAULT_TOL, QuantumSystem, Tolerance, first_weak_violation


class WeakResult(NamedTuple):
    ok: bool
    violation: Event | None
    value: float | None


class StrongResult(NamedTuple):
    ok: bool
    min_eigenvalue: float
    eigenvector: np.ndarray


class EntryResult(NamedTuple):
    ok: bool
    index: tuple[int, int] | None
    value: complex | None


def is_weakly_positive(
    s: QuantumSystem,
    tol: Tolerance = DEFAULT_TOL,
    *,
    limit: int = ENUMERATION_LIMIT,
) -> WeakResult:
    """Sweep all 2**n events; the witness is the first violator by bitmask."""
    if s.n > limit:
        raise BruteForceLimitError(f"weak positivity sweep needs n <= {limit}, got {s.n}")
    event, value = first_weak_violation(s.matrix, tol.scaled(s.matrix)) or (None, None)
    return WeakResult(event is None, event, value)


def is_strongly_positive(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> StrongResult:
    """PSD test via Hermitian eigendecomposition.

    The most-negative eigenpair is returned either way; the eigenvector
    doubles as a probe vector for the self-duality construction.
    """
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(s.matrix)
    except np.linalg.LinAlgError as exc:
        raise QmtError(f"eigendecomposition failed: {exc}") from exc
    lo = float(eigenvalues[0])
    vec = eigenvectors[:, 0].copy()
    vec.flags.writeable = False
    return StrongResult(lo >= -tol.scaled(s.matrix), lo, vec)


def is_positive_entry(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> EntryResult:
    """All atomic entries real and non-negative.

    Sufficient and necessary for every event pair: each functional value
    is a sum of atomic entries, and the atoms are themselves events.
    """
    slack = tol.scaled(s.matrix)
    m = s.matrix
    bad = (np.abs(m.imag) > slack) | (m.real < -slack)
    idx = np.argwhere(bad)
    if idx.size == 0:
        return EntryResult(True, None, None)
    i, j = (int(x) for x in idx[0])
    return EntryResult(False, (i, j), complex(m[i, j]))


def is_classical(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Diagonal atomic matrix with non-negative (probability) diagonal."""
    slack = tol.scaled(s.matrix)
    m = s.matrix
    off = m - np.diag(np.diag(m))
    if np.abs(off).max() > slack:
        return False
    d = np.diag(m)
    return bool((np.abs(d.imag) <= slack).all() and (d.real >= -slack).all())


def is_in_dual_of_posentry(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> EntryResult:
    """Real part of every atomic entry non-negative."""
    slack = tol.scaled(s.matrix)
    bad = np.argwhere(s.matrix.real < -slack)
    if bad.size == 0:
        return EntryResult(True, None, None)
    i, j = (int(x) for x in bad[0])
    return EntryResult(False, (i, j), complex(s.matrix[i, j]))


def is_real_symmetric(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> bool:
    return bool(np.abs(s.matrix.imag).max() <= tol.scaled(s.matrix))


@dataclass(frozen=True)
class Classification:
    weakly_positive: bool
    weak_violation: Event | None
    weak_violation_value: float | None
    strongly_positive: bool
    min_eigenvalue: float
    min_eigenvector: np.ndarray
    positive_entry: bool
    entry_violation: tuple[int, int] | None
    classical: bool
    in_dual_of_posentry: bool
    dual_violation: tuple[int, int] | None
    real_symmetric: bool

    def flags(self) -> dict[str, bool]:
        return {
            "weakly_positive": self.weakly_positive,
            "strongly_positive": self.strongly_positive,
            "positive_entry": self.positive_entry,
            "classical": self.classical,
            "in_dual_of_posentry": self.in_dual_of_posentry,
            "real_symmetric": self.real_symmetric,
        }


def classify(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Run every membership test; the class hierarchy holds by construction.

    S and P are tested first.  When either holds, W follows by theorem and
    is reported with no sweep and no violation; otherwise
    ``is_weakly_positive`` sweeps, and raises above ``ENUMERATION_LIMIT``.
    Classical also requires S, and one slack makes classical => P => dual(P).
    """
    strong = is_strongly_positive(s, tol)
    entry = is_positive_entry(s, tol)
    weak = WeakResult(True, None, None) if strong.ok or entry.ok else is_weakly_positive(s, tol)
    dual = is_in_dual_of_posentry(s, tol)
    return Classification(
        weakly_positive=weak.ok,
        weak_violation=weak.violation,
        weak_violation_value=weak.value,
        strongly_positive=strong.ok,
        min_eigenvalue=strong.min_eigenvalue,
        min_eigenvector=strong.eigenvector,
        positive_entry=entry.ok,
        entry_violation=entry.index,
        classical=is_classical(s, tol) and strong.ok,
        in_dual_of_posentry=dual.ok,
        dual_violation=dual.index,
        real_symmetric=is_real_symmetric(s, tol),
    )
