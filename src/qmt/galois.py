"""Probe systems for the composition-based positivity test.

For any complex vector v over a list of disjoint events, one can build an
auxiliary PSD system whose composition with the system under test evaluates
the quadratic form v^dagger M v / rho on the corresponding event matrix M.
A negative value certifies that the tested system is not strongly positive
and, at the same time, exhibits a weak-positivity violation of the composed
pair, i.e. non-membership in the dual of the strongly positive class.  The
value is the measure of one event of the composed pair, evaluated under the
Kronecker product of the two atomic matrices by mode products on the
factors, so the composed system is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Event
from .classify import is_in_dual_of_posentry, is_strongly_positive
from .compose import _kron_form, _kron_slack
from .errors import AxiomViolationError
from .functional import DEFAULT_TOL, QuantumSystem, Tolerance, _indicators, _min_eigenvalue


class ProbeSystem(QuantumSystem):
    """PSD system built from a vector v, with normalizer rho = 1 + |sum(v)|^2.

    The atomic matrix carries conj(v_A) v_B / rho on the v-block, 1/rho on
    the extra corner atom, and zeros elsewhere.  The corner atom keeps rho
    strictly positive even when the components of v sum to zero.  A vector
    so large that rho or the outer product overflows raises ``ValueError``.
    """

    __slots__ = ("rho", "vector")

    def __init__(self, v, *, tol: Tolerance = DEFAULT_TOL):
        vec = np.array(v, dtype=complex).reshape(-1)
        if vec.size == 0:
            raise ValueError("probe vector must be non-empty")
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
            total = complex(vec.sum())
            try:
                rho = 1.0 + abs(total) ** 2
            except OverflowError:
                rho = math.inf
            block = np.outer(vec.conj(), vec) / rho
        if not (math.isfinite(rho) and np.isfinite(block).all()):
            raise ValueError("rho = 1 + |sum(v)|^2 or conj(v) v^T / rho overflows double precision")
        m = vec.size
        matrix = np.zeros((m + 1, m + 1), dtype=complex)
        matrix[:m, :m] = block
        matrix[m, m] = 1.0 / rho
        labels = tuple(f"p{i}" for i in range(m)) + ("x",)
        super().__init__(matrix, labels, tol=tol, metadata={"rho": rho})
        object.__setattr__(self, "rho", rho)
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)


def build_probe_system(v, tol: Tolerance = DEFAULT_TOL) -> ProbeSystem:
    """Construct the PSD probe for a vector; PSD and normalized by construction."""
    probe = ProbeSystem(v, tol=tol)
    lo = _min_eigenvalue(probe.matrix)
    if lo < -tol.scaled(probe.matrix):
        raise AxiomViolationError(f"probe system unexpectedly not PSD (lambda_min={lo:.3e})")
    return probe


def probe_quadratic_form(
    s: QuantumSystem,
    events: Sequence[Event],
    v,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Evaluate v^dagger M v / rho through composition with the probe.

    ``v`` is the probe vector, or a ``ProbeSystem`` already built from one.
    The composed event pairs each listed event A_i with the probe atom p_i
    (pair (a, p_i) sits at a*(m+1) + i for m events); its measure under
    M_s (x) M_probe, evaluated by mode products, collapses to the quadratic
    form on the event matrix M of ``events``, scaled by 1/rho.  Its
    imaginary part may be as large as the slack of the composed matrix,
    which grows with |v|**2 / rho.  Requires pairwise disjoint events of
    the probed system's arity.
    """
    probe = v if isinstance(v, ProbeSystem) else build_probe_system(v, tol)
    if len(events) != probe.n - 1:
        raise ValueError(
            f"vector length {probe.n - 1} does not match {len(events)} events"
        )
    rows = _indicators(events, s.n)
    if (rows.sum(axis=0) > 1).any():
        raise ValueError("probe events must be pairwise disjoint")
    x = np.zeros((s.n, probe.n))
    x[:, : probe.n - 1] = rows.T
    x = x.reshape(-1)
    value = _kron_form([s.matrix, probe.matrix], x, x)
    norms = (float(np.linalg.norm(m)) for m in (s.matrix, probe.matrix))
    if abs(value.imag) > _kron_slack(tol, *norms):
        raise AxiomViolationError(
            f"probe value has imaginary residue {value.imag:.3e}"
        )
    return value.real


@dataclass(frozen=True)
class DualReport:
    in_dual_of_posentry: bool
    dual_violation: tuple[int, int] | None
    strongly_positive: bool
    min_eigenvalue: float
    probe_vector: np.ndarray
    probe_value: float


def dual_membership_report(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> DualReport:
    """Report dual-of-P membership and strong positivity with a probe demo.

    The probe vector is the most-negative eigenvector of the atomic matrix;
    when the system is not strongly positive the reported probe value is a
    concrete negative composed measure realizing the exclusion.
    """
    dual = is_in_dual_of_posentry(s, tol)
    strong = is_strongly_positive(s, tol)
    value = probe_quadratic_form(s, s.atoms(), strong.eigenvector, tol)
    return DualReport(
        in_dual_of_posentry=dual.ok,
        dual_violation=dual.index,
        strongly_positive=strong.ok,
        min_eigenvalue=strong.min_eigenvalue,
        probe_vector=strong.eigenvector,
        probe_value=value,
    )
