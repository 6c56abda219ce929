"""Output checks for the benchmark's ops.

Each check returns a list of problems; an empty list means the output is
correct.  Where a check is cheap it recomputes the claim with numpy straight
from the matrix, without calling the qmt code that produced it.
"""

from __future__ import annotations

import json

import numpy as np

REL = 1e-9
# Cross-checks are required up to this many composed atoms (acceptance rule).
CROSS_CHECK_ATOMS = 4096


def slack(matrix: np.ndarray, eps: float = 1e-9) -> float:
    """The library's default tolerance: absolute plus Frobenius-relative."""
    return eps + eps * float(np.linalg.norm(matrix))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b))


def check_witness(n: int, k: int, predicted: float, verified: float,
                  cross_checked: bool, cross_value: float | None) -> list[str]:
    """The acceptance claims of one self-composition witness."""
    problems = []
    if not verified < 0:
        problems.append(f"verified value {verified!r} is not negative")
    if not _close(predicted, verified):
        problems.append(f"predicted {predicted!r} and verified {verified!r} disagree")
    if n**k <= CROSS_CHECK_ATOMS and not cross_checked:
        problems.append(f"{n}^{k} atoms is within the cross-check limit but was not checked")
    if cross_checked and (cross_value is None or not _close(cross_value, verified)):
        problems.append(f"cross-check {cross_value!r} disagrees with verified {verified!r}")
    return problems


def witness_result(n: int, w) -> list[str]:
    return check_witness(n, w.k, w.predicted_value, w.verified_value, w.cross_checked,
                         w.cross_check_value)


def event_measure(matrix: np.ndarray, atoms) -> float:
    """mu(S) = 1^T M[S,S] 1, summed straight from the matrix."""
    idx = np.asarray(list(atoms), dtype=np.intp)
    return float(matrix[np.ix_(idx, idx)].sum().real)


# Flags each generator kind guarantees; hermitian_only guarantees none.
KIND_FLAGS = {
    "strong": {"strongly_positive": True, "weakly_positive": True},
    "posentry": {"positive_entry": True, "weakly_positive": True,
                 "in_dual_of_posentry": True},
    "classical": {"classical": True, "positive_entry": True,
                  "strongly_positive": True, "weakly_positive": True},
    "weak_not_strong_not_posentry": {"weakly_positive": True,
                                     "strongly_positive": False,
                                     "positive_entry": False},
    "hermitian_only": {},
}


def check_flags(flags: dict, kind: str | None) -> list[str]:
    """Flags agree with the generated kind and with the class hierarchy."""
    problems = []
    for name, want in KIND_FLAGS.get(kind, {}).items():
        if flags[name] != want:
            problems.append(f"{kind} system has {name}={flags[name]}")
    implied = (
        ("strongly_positive", "weakly_positive"),
        ("positive_entry", "weakly_positive"),
        ("positive_entry", "in_dual_of_posentry"),
        ("classical", "positive_entry"),
        ("classical", "strongly_positive"),
    )
    for a, b in implied:
        if flags[a] and not flags[b]:
            problems.append(f"hierarchy broken: {a} without {b}")
    return problems


def check_weak_violation(matrix: np.ndarray, flags: dict, atoms, value) -> list[str]:
    """A reported violating event really has measure below -slack."""
    if flags["weakly_positive"]:
        return [] if atoms is None else ["weakly positive system reports a violation"]
    if atoms is None:
        return ["no violating event reported for a non-weakly-positive system"]
    mu = event_measure(matrix, atoms)
    problems = []
    if not mu < -slack(matrix):
        problems.append(f"reported violation has measure {mu!r}, not below -slack")
    if not _close(mu, value):
        problems.append(f"reported violation value {value!r} but 1^T M[S,S] 1 = {mu!r}")
    return problems


def classification(matrix: np.ndarray, kind: str | None, c) -> list[str]:
    atoms = None if c.weak_violation is None else c.weak_violation.indices()
    return check_flags(c.flags(), kind) + check_weak_violation(
        matrix, c.flags(), atoms, c.weak_violation_value)


# -- documents, read without qmt.documents --------------------------------

def parse_doc(text: str) -> tuple[dict, np.ndarray]:
    raw = json.loads(text)
    matrix = np.array([[complex(c["re"], c["im"]) for c in row] for row in raw["matrix"]])
    return raw, matrix


def doc_matrix(text: str) -> np.ndarray:
    return parse_doc(text)[1]


def check_composed(text: str, raw: dict, got: np.ndarray, first: np.ndarray,
                   second: np.ndarray, rewrite) -> list[str]:
    """A composed document equals np.kron of its inputs and is byte-stable.

    ``rewrite(raw, matrix)`` renders the parsed document again with the
    canonical writer; it must reproduce ``text`` byte for byte.
    """
    problems = []
    want = np.kron(first, second)
    if got.shape != want.shape or not np.array_equal(got, want):
        problems.append("composed matrix differs from np.kron of the inputs")
    if rewrite(raw, got) != text:
        problems.append("rewriting the composed document changed its bytes")
    return problems


def check_generated(m: np.ndarray, kind: str) -> list[str]:
    """A generated matrix is normalised, Hermitian and in its class."""
    problems = []
    if np.abs(m - m.conj().T).max() > slack(m):
        problems.append("generated matrix is not Hermitian")
    if abs(m.sum() - 1.0) > slack(m):
        problems.append("generated matrix is not normalised")
    lo = float(np.linalg.eigvalsh(m)[0])
    if kind == "strong" and lo < -slack(m):
        problems.append(f"strong system has eigenvalue {lo!r}")
    if kind == "weak_not_strong_not_posentry":
        if lo >= -slack(m):
            problems.append("weak-only system is PSD")
        if ((np.abs(m.imag) <= slack(m)) & (m.real >= -slack(m))).all():
            problems.append("weak-only system is positive-entry")
    return problems


def check_probe(payload: dict, matrix: np.ndarray) -> list[str]:
    """The probe value equals v^dagger M v / rho for the reported vector."""
    v = np.array([complex(re, im) for re, im in payload["vector"]])
    rho = 1.0 + abs(v.sum()) ** 2
    want = float((v.conj() @ matrix @ v).real / rho)
    problems = []
    if not _close(payload["rho"], rho):
        problems.append(f"rho {payload['rho']!r} != 1 + |sum v|^2 = {rho!r}")
    if abs(payload["value"] - want) > REL * max(1.0, abs(want)) + slack(matrix):
        problems.append(f"probe value {payload['value']!r} != v^dagger M v / rho = {want!r}")
    return problems


def check_classify_payload(payload: dict, matrix: np.ndarray) -> list[str]:
    violation = payload["weak_violation"]
    atoms = None if violation is None else violation["atoms"]
    value = None if violation is None else violation["value"]
    return check_flags(payload["flags"], None) + check_weak_violation(
        matrix, payload["flags"], atoms, value)


def check_witness_payload(payload: dict, n: int) -> list[str]:
    return check_witness(n, payload["k"], payload["predicted_value"],
                         payload["verified_value"], payload["cross_checked"],
                         payload["cross_check_value"])


def check_verify_text(text: str) -> list[str]:
    if "quantal sum rule: pass" not in text:
        return ["verify did not report a passing sum rule"]
    return []
