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
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from importlib import resources
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
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(self.atoms):
            raise DocumentError(
                f"matrix shape {m.shape} does not match {len(self.atoms)} atoms"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def to_system(self, tol: Tolerance = DEFAULT_TOL) -> QuantumSystem:
        meta = dict(self.metadata)
        meta.setdefault("name", self.name)
        return QuantumSystem(self.matrix, self.atoms, tol=tol, metadata=meta)

    @classmethod
    def from_system(cls, name: str, system: QuantumSystem) -> "SystemDocument":
        meta = {k: v for k, v in system.metadata.items() if k != "name"}
        return cls(name=name, atoms=system.labels, matrix=system.matrix, metadata=meta)


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise DocumentError(f"non-finite float {x!r} cannot be serialized")
    return format(float(x), ".17g")


def dumps(doc: SystemDocument) -> str:
    """Serialize with canonical field order and fixed float formatting."""
    rows = []
    for row in doc.matrix:
        cells = ", ".join(
            f'{{"re": {_fmt(z.real)}, "im": {_fmt(z.imag)}}}' for z in row
        )
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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


def _reject_constant(name: str):
    raise DocumentError(f"non-finite number {name} is not allowed")


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
    matrix = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == n, f"matrix row {i} must have {n} entries")
        for j, cell in enumerate(row):
            _require(
                isinstance(cell, dict) and set(cell) == {"re", "im"},
                f"matrix entry ({i}, {j}) must be an object with re and im",
            )
            re, im = cell["re"], cell["im"]
            _require(
                isinstance(re, (int, float)) and isinstance(im, (int, float))
                and not isinstance(re, bool) and not isinstance(im, bool),
                f"matrix entry ({i}, {j}) must hold numbers",
            )
            try:
                z = complex(float(re), float(im))
            except OverflowError:  # an integer beyond the double range
                z = complex(math.inf)
            _require(cmath.isfinite(z), f"matrix entry ({i}, {j}) is not finite")
            matrix[i, j] = z
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
