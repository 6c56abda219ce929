"""Seeded generators for each positivity class.

Every generator is deterministic in its seed (counter-based Philox stream)
and certifies its output with the record ``classify`` returns before
returning, so a returned system is guaranteed to sit in the requested
class.  No certificate sweeps the 2**n events, so every kind can be
generated above ``ENUMERATION_LIMIT`` atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import is_positive_entry
from .errors import SearchExhaustedError
from .functional import DEFAULT_TOL, QuantumSystem, Tolerance, _min_eigenvalue, positivity

KINDS = (
    "strong",
    "posentry",
    "classical",
    "weak_not_strong_not_posentry",
    "hermitian_only",
)

RNG_ALGORITHM = "philox4x64"
# Draws per ``generate`` call before giving up on certifying one.
MAX_RETRIES = 1000


@dataclass(frozen=True)
class GenSpec:
    kind: str
    atoms: int
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.atoms < 1:
            raise ValueError("atoms must be >= 1")
        if not 0 <= self.seed < 2**128:  # the Philox key's range
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.kind == "weak_not_strong_not_posentry" and self.atoms < 2:
            raise ValueError("the weak-only class needs at least 2 atoms")


def _complex_normal(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _draw_posentry(rng, n):
    r = rng.uniform(0.0, 1.0, size=(n, n))
    sym = (r + r.T) / 2.0
    return sym / sym.sum()


def _draw_strong(rng, n):
    while True:
        a = _complex_normal(rng, n)
        gram = a.conj().T @ a
        total = gram.sum().real
        if total > 0.1:
            return gram / total


def _draw_classical(rng, n):
    weights = rng.uniform(0.1, 1.0, size=n)
    return np.diag(weights / weights.sum()).astype(complex)


def _draw_hermitian(rng, n):
    while True:
        c = _complex_normal(rng, n)
        h = (c + c.conj().T) / 2.0
        total = h.sum().real
        if abs(total) > 0.1:
            return h / total


def _draw_weak_only(rng, n):
    """Positive-entry base plus a scaled imaginary antisymmetric part.

    For a real 0/1 indicator v and real antisymmetric K the form v.T (iK) v
    vanishes, so every event measure equals the base system's, which is
    non-negative; weak positivity is exact by construction.  Scaling K up
    pushes an eigenvalue negative without touching the measures.  It stops
    once lambda_min < -0.02 |M|, and starts at real_peak/2, the least
    power-of-two fraction of the real peak at or above the phase margin
    0.35 * real_peak: thinner margins force witness exponents beyond doubles.
    """
    base = _draw_posentry(rng, n)
    anti = rng.standard_normal((n, n))
    anti = anti - anti.T
    peak = np.abs(anti).max()
    if peak < 1e-6:
        return None
    anti /= peak
    kappa = float(np.abs(base).max()) / 2.0
    for _ in range(71):
        candidate = base + 1j * kappa * anti
        lo = _min_eigenvalue(candidate)
        if lo < -0.02 * float(np.linalg.norm(candidate)):
            return candidate
        kappa *= 2.0
    return None


def generate(spec: GenSpec, tol: Tolerance = DEFAULT_TOL) -> QuantumSystem:
    """Draw a system of the requested class, certified by ``_certified``."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    metadata = {
        "generator": spec.kind,
        "atoms": spec.atoms,
        "seed": spec.seed,
        "rng": RNG_ALGORITHM,
    }
    draw = {
        "strong": _draw_strong,
        "posentry": _draw_posentry,
        "classical": _draw_classical,
        "hermitian_only": _draw_hermitian,
    }.get(spec.kind, _draw_weak_only)
    for _ in range(MAX_RETRIES):
        matrix = draw(rng, spec.atoms)
        if matrix is None:
            continue
        system = QuantumSystem(matrix, tol=tol, metadata=metadata)
        if _certified(system, spec.kind, tol):
            return system
    raise SearchExhaustedError(
        f"could not generate a certified {spec.kind!r} system in {MAX_RETRIES} tries"
    )


def _certified(system: QuantumSystem, kind: str, tol: Tolerance) -> bool:
    """Whether a draw sits in its kind's class, by the record ``classify`` returns.

    The positive-entry kind takes the entry test alone, which needs no
    eigendecomposition; the other kinds read ``functional.positivity``.
    No kind sweeps the events: a weak-only draw's real part is its
    positive-entry base exactly (see ``_draw_weak_only``), so dual(P)
    holds and W follows by theorem.
    """
    if kind == "hermitian_only":
        return True  # constructor already enforced the quasi-system axioms
    if kind == "posentry":
        return is_positive_entry(system, tol).ok
    c = positivity(system.matrix, tol.scaled(system.matrix))
    if kind == "strong":
        return c.strongly_positive
    if kind == "classical":
        return c.classical
    return c.weakly_positive is True and not c.strongly_positive and not c.positive_entry
