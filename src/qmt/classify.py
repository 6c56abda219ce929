"""Positivity classification of quantum systems.

Membership tests for the nested positivity classes: weak positivity (every
event has non-negative measure), strong positivity (the atomic matrix is
positive semi-definite, which by coarse-graining covers every event matrix),
positive entry (all atomic values real and non-negative), classical
(diagonal atomic matrix), and the dual-of-positive-entry condition (real
parts non-negative).  Borderline values within tolerance count as members:
the classes are closed sets.

``functional.positivity`` decides every class at once, and ``classify``
returns its record.  S => W and dual(P) => W are theorems, so the 2**n
events are swept only for a system in neither S nor dual(P).  Above
``ENUMERATION_LIMIT`` atoms only the events of the first
``ENUMERATION_LIMIT`` atoms are swept: a violator there is the lowest of
the whole system, and with none such a system's W is unknown (None).  The
``is_*`` functions are single tests, for callers that need one class;
``is_weakly_positive`` sweeps the same events with no theorem shortcut, and
raises ``BruteForceLimitError`` where that leaves W unknown.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import ENUMERATION_LIMIT, Event
from .errors import BruteForceLimitError
from .functional import (
    DEFAULT_TOL,
    Classification,
    EntryResult,
    QuantumSystem,
    StrongResult,
    Tolerance,
    _entry_scan,
    _psd_test,
    first_weak_violation,
    positivity,
)


class WeakResult(NamedTuple):
    ok: bool
    violation: Event | None
    value: float | None


def _sweep_limit_message(n: int) -> str:
    return (f"weakly positive: unknown (no violator on the first {ENUMERATION_LIMIT} of {n}"
            " atoms, where the sweep stops)")


def is_weakly_positive(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> WeakResult:
    """Sweep the events; the witness is the first violator by bitmask.

    Above ``ENUMERATION_LIMIT`` atoms the events of the first
    ``ENUMERATION_LIMIT`` atoms are swept, as ``classify`` sweeps them: a
    violator there is exact, and with none ``BruteForceLimitError`` is raised.
    """
    found = first_weak_violation(s.matrix, tol.scaled(s.matrix))
    if found:
        return WeakResult(False, *found)
    if s.n > ENUMERATION_LIMIT:
        raise BruteForceLimitError(_sweep_limit_message(s.n))
    return WeakResult(True, None, None)


def is_strongly_positive(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> StrongResult:
    """PSD test: lambda_min >= -slack, lambda_min from ``eigvalsh``.

    It is the same ``eigvalsh`` call ``classify`` makes, so both decide S
    bit for bit alike.  One ``eigh`` then supplies a unit eigenvector for
    the smallest eigenvalue, returned either way as the probe vector of
    the self-duality construction; ``classify`` computes none.
    """
    return _psd_test(s.matrix, tol.scaled(s.matrix))


def is_positive_entry(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> EntryResult:
    """All atomic entries real and non-negative.

    Sufficient and necessary for every event pair: each functional value
    is a sum of atomic entries, and the atoms are themselves events.
    """
    return _entry_scan(s.matrix, tol.scaled(s.matrix)).positive_entry


def is_classical(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Diagonal atomic matrix with non-negative (probability) diagonal."""
    return _entry_scan(s.matrix, tol.scaled(s.matrix)).diagonal


def is_in_dual_of_posentry(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> EntryResult:
    """Real part of every atomic entry non-negative."""
    return _entry_scan(s.matrix, tol.scaled(s.matrix)).dual


def classify(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Every class membership, as ``functional.positivity`` decides it.

    ``weakly_positive`` is None (unknown) for a system in neither S nor
    dual(P) above ``ENUMERATION_LIMIT`` atoms whose first
    ``ENUMERATION_LIMIT`` atoms hold no violating event.
    """
    return positivity(s.matrix, tol.scaled(s.matrix))
