"""System documents: the on-disk JSON format and its canonical writer.

Schema::

    {
      "name": "<string>",
      "atoms": ["<label>", ...],                  # n entries
      "matrix": [[{"re": <f>, "im": <f>}, ...]],  # n rows of n entries, row-major
      "metadata": { ... }                         # optional provenance map
    }

Complex values are explicit {re, im} objects, never strings.  The writer is
canonical: fixed field order, UTF-8, floats rendered with 17 significant
digits, so write -> read -> write is byte-identical.  Composed systems use
the pair-index convention (i, j) -> i*n2 + j for their atom order.

Both directions work on whole arrays.  The writer formats each distinct
double once (Kronecker products of small factors repeat their entries: the
512-atom compose chain of the cli-docs benchmark holds 524,288 doubles and
33,994 distinct ones) and fills each row from one template.  The reader validates
the parsed cells with a few bulk checks and converts them in one call; only
a document that fails a check is walked cell by cell, for the message.
Negative zero is written as ``-0`` but parsed by ``json`` as +0, so a
document holding one is not byte-stable.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from typing import Any

import numpy as np

from .errors import DocumentError
from .functional import DEFAULT_TOL, QuantumSystem, Tolerance

BUNDLED = (
    "strong_not_posentry",
    "posentry_not_strong",
    "posentry_offdiag",
    "dual_posentry_member",
    "weak_only",
)


@dataclass(frozen=True)
class SystemDocument:
    name: str
    atoms: tuple[str, ...]
    matrix: np.ndarray = field(repr=False)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        m = self.matrix
        # A read-only complex array whose memory nothing can write (a system's,
        # or one ``loads`` just parsed) is shared; anything else is copied.
        owner = m if getattr(m, "base", None) is None else m.base
        if not (isinstance(owner, np.ndarray) and m.dtype == complex
                and not m.flags.writeable and not owner.flags.writeable):
            m = np.array(m, dtype=complex)
            m.flags.writeable = False
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(self.atoms):
            raise DocumentError(
                f"matrix shape {m.shape} does not match {len(self.atoms)} atoms"
            )
        object.__setattr__(self, "matrix", m)

    def to_system(self, tol: Tolerance = DEFAULT_TOL) -> QuantumSystem:
        meta = dict(self.metadata)
        meta.setdefault("name", self.name)
        return QuantumSystem(self.matrix, self.atoms, tol=tol, metadata=meta)

    @classmethod
    def from_system(cls, name: str, system: QuantumSystem) -> "SystemDocument":
        meta = {k: v for k, v in system.metadata.items() if k != "name"}
        return cls(name=name, atoms=system.labels, matrix=system.matrix, metadata=meta)


def _row_texts(matrix: np.ndarray) -> list[list[str]]:
    """Per row, the 17-digit text of each entry's real then imaginary part.

    Each distinct bit pattern is formatted once, so -0.0 and +0.0 stay
    apart.  The first non-finite value in row-major order, real part before
    imaginary, is refused.
    """
    parts = np.ascontiguousarray(matrix, dtype=complex).view(float)
    flat = parts.reshape(-1)
    finite = np.isfinite(flat)
    if not finite.all():
        x = flat[int(np.argmin(finite))]
        raise DocumentError(f"non-finite float {x!r} cannot be serialized")
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    texts = np.array([format(x, ".17g") for x in bits.view(float).tolist()], dtype=object)
    # The inverse's shape varies across numpy versions for 1-D input; reshape it.
    return texts[inverse.reshape(-1)].reshape(parts.shape).tolist()


def dumps(doc: SystemDocument) -> str:
    """Serialize with canonical field order and fixed float formatting."""
    row = "    [" + ", ".join(['{"re": %s, "im": %s}'] * len(doc.atoms)) + "]"
    matrix_text = ",\n".join(row % tuple(texts) for texts in _row_texts(doc.matrix))
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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


def _reject_constant(name: str):
    raise DocumentError(f"non-finite number {name} is not allowed")


def _entry_error(rows: list, n: int) -> str:
    """The message for the first bad row or entry of "matrix", in row-major order."""
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == n):
            return f"matrix row {i} must have {n} entries"
        for j, cell in enumerate(row):
            if not (isinstance(cell, dict) and set(cell) == {"re", "im"}):
                return f"matrix entry ({i}, {j}) must be an object with re and im"
            values = cell["re"], cell["im"]
            if not {type(v) for v in values} <= {int, float}:  # json's bool is neither
                return f"matrix entry ({i}, {j}) must hold numbers"
            try:
                finite = all(math.isfinite(float(v)) for v in values)
            except OverflowError:  # an integer beyond the double range
                finite = False
            if not finite:
                return f"matrix entry ({i}, {j}) is not finite"
    raise AssertionError("no bad entry in a matrix that failed a bulk check")


_RE_IM = operator.itemgetter("re", "im")


def _parse_matrix(rows: list, n: int) -> np.ndarray | None:
    """The n x n complex matrix of the "matrix" rows, or None if any check fails.

    Bulk checks: every row a list of n cells, every cell a dict of two keys
    from which "re" and "im" can both be read (so those are its keys), every
    value an int or float (bool is neither), and one conversion to finite
    doubles.  The result is fresh and read-only.
    """
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {n}):
        return None
    cells = list(chain.from_iterable(rows))
    if not (set(map(type, cells)) <= {dict} and set(map(len, cells)) <= {2}):
        return None
    try:
        values = list(chain.from_iterable(map(_RE_IM, cells)))
    except KeyError:
        return None
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        parts = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond the double range
        return None
    if not np.isfinite(parts).all():
        return None
    parts.flags.writeable = False
    return parts.view(complex).reshape(n, n)


def loads(text: str) -> SystemDocument:
    """Parse a document; non-finite numbers (NaN, Infinity, 1e999) are refused."""
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # malformed JSON, or an integer with too many digits
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # nesting deeper than the parser's recursion limit
        raise DocumentError("invalid JSON: nesting too deep") from exc
    _require(isinstance(raw, dict), "document must be a JSON object")
    for key in ("name", "atoms", "matrix"):
        _require(key in raw, f"missing required field {key!r}")
    name = raw["name"]
    _require(isinstance(name, str), '"name" must be a string')
    atoms = raw["atoms"]
    _require(
        isinstance(atoms, list) and all(isinstance(a, str) for a in atoms),
        '"atoms" must be a list of strings',
    )
    n = len(atoms)
    rows = raw["matrix"]
    _require(isinstance(rows, list) and len(rows) == n, f'"matrix" must have {n} rows')
    matrix = _parse_matrix(rows, n)
    if matrix is None:
        raise DocumentError(_entry_error(rows, n))
    metadata = raw.get("metadata", {})
    _require(isinstance(metadata, dict), '"metadata" must be an object')
    return SystemDocument(name=name, atoms=tuple(atoms), matrix=matrix, metadata=metadata)


def write_document(path, doc: SystemDocument) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def read_document(path) -> SystemDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def bundled_document(name: str) -> SystemDocument:
    """Load one of the documents shipped with the package (see BUNDLED)."""
    if name not in BUNDLED:
        raise DocumentError(f"no bundled document {name!r}; available: {BUNDLED}")
    text = resources.files("qmt.data").joinpath(f"{name}.json").read_text("utf-8")
    return loads(text)
