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

import numpy as np

from .algebra import ENUMERATION_LIMIT, Event
from .errors import BruteForceLimitError
from .functional import (
    DEFAULT_TOL,
    EntryResult,
    QuantumSystem,
    StrongResult,
    Tolerance,
    WeakResult,
    _entry_test,
    _psd_test,
    first_weak_violation,
    positivity,
)


def _sweep_limit_message(limit: int, n: int) -> str:
    return f"weak positivity sweep needs n <= {limit}, got {n}"


def is_weakly_positive(
    s: QuantumSystem,
    tol: Tolerance = DEFAULT_TOL,
    *,
    limit: int = ENUMERATION_LIMIT,
) -> WeakResult:
    """Sweep all 2**n events; the witness is the first violator by bitmask."""
    if s.n > limit:
        raise BruteForceLimitError(_sweep_limit_message(limit, s.n))
    event, value = first_weak_violation(s.matrix, tol.scaled(s.matrix)) or (None, None)
    return WeakResult(event is None, event, value)


def is_strongly_positive(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> StrongResult:
    """PSD test via Hermitian eigendecomposition.

    The most-negative eigenpair is returned either way; the eigenvector
    doubles as a probe vector for the self-duality construction.
    """
    return _psd_test(s.matrix, tol.scaled(s.matrix))


def is_positive_entry(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> EntryResult:
    """All atomic entries real and non-negative.

    Sufficient and necessary for every event pair: each functional value
    is a sum of atomic entries, and the atoms are themselves events.
    """
    return _entry_test(s.matrix, tol.scaled(s.matrix))


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

    S, P and W come from ``functional.positivity``: when S or P holds, W
    follows by theorem and is reported with no sweep and no violation;
    otherwise the events are swept, and above ``ENUMERATION_LIMIT`` atoms
    this raises.  Classical also requires S, and one slack makes
    classical => P => dual(P).
    """
    strong, entry, weak = positivity(s.matrix, tol.scaled(s.matrix))
    if weak.ok is None:
        raise BruteForceLimitError(_sweep_limit_message(ENUMERATION_LIMIT, s.n))
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
