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

The writer holds about one matrix row at a time: it checks the doubles and
formats each distinct one once (the 512-atom compose chain of the cli-docs
benchmark holds 524,288 doubles and 33,994 distinct ones) before it writes,
then fills each row from one template.  The reader decodes "matrix" row by
row and converts the rows in batches with a few bulk checks, so it holds
about one batch of rows.  If the first batch's doubles repeat, as a composed
system's do, the rest is read through a table that converts each distinct
float spelling once and holds at most about two batches' numbers.  A
document that fails a check is parsed whole and walked cell by cell, for the
message.
Negative zero is written as ``-0`` but parsed by ``json`` as +0, so a
document holding one is not byte-stable.
"""

from __future__ import annotations

import json
import math
import operator
import os
import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from typing import Any, Iterator

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


def _chunks(doc: SystemDocument) -> Iterator[str]:
    """The canonical text in pieces: the header, one per matrix row, the trailer.

    Every check runs before this returns: the first non-finite value in
    row-major order, real part before imaginary, is refused.  Each distinct
    bit pattern is formatted once, so -0.0 and +0.0 stay apart."""
    parts = np.ascontiguousarray(doc.matrix, dtype=complex).view(float)
    flat = parts.reshape(-1)
    if not np.isfinite(flat).all():
        x = flat[int(np.argmin(np.isfinite(flat)))]
        raise DocumentError(f"non-finite float {x!r} cannot be serialized")
    order = np.argsort(flat.view(np.uint64))
    ordered = flat.view(np.uint64)[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first].view(float).tolist()
    del ordered  # each sort temporary goes as soon as it is read
    first[:1] = False  # now the running count of first occurrences is the index
    inverse = np.empty(order.size, dtype=np.int32)
    inverse[order] = np.cumsum(first, dtype=np.int32)
    del order, first
    texts = np.array([format(x, ".17g") for x in distinct], dtype=object)
    row = ",\n    [" + ", ".join(['{"re": %s, "im": %s}'] * len(doc.atoms)) + "]"
    rows = ((row if i else row[2:]) % tuple(texts[r].tolist())
            for i, r in enumerate(inverse.reshape(parts.shape)))
    atoms_text = ", ".join(json.dumps(a) for a in doc.atoms)
    head = f'{{\n  "name": {json.dumps(doc.name)},\n  "atoms": [{atoms_text}],\n  "matrix": [\n'
    tail = f'\n  ],\n  "metadata": {json.dumps(doc.metadata, sort_keys=True)}\n}}\n'
    return chain([head], rows, [tail])


def dumps(doc: SystemDocument) -> str:
    """Serialize with canonical field order and fixed float formatting."""
    return "".join(_chunks(doc))


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


_RE, _IM = operator.itemgetter("re"), operator.itemgetter("im")


def _parse_matrix(rows: list, n: int) -> np.ndarray | None:
    """The complex matrix of these "matrix" rows, fresh and read-only, or None
    if a bulk check fails: every row a list of n cells, every cell of length two
    and read by "re" and "im" (so a dict of those keys), every value an int or
    float (bool is neither), and one conversion to finite doubles."""
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {n}):
        return None
    cells = list(chain.from_iterable(rows))
    try:
        if not set(map(len, cells)) <= {2}:
            return None
        re_parts, im_parts = list(map(_RE, cells)), list(map(_IM, cells))
    except (KeyError, TypeError):
        return None
    if not set(map(type, re_parts)) | set(map(type, im_parts)) <= {int, float}:
        return None
    try:
        parts = np.array(re_parts + im_parts, dtype=float)
    except OverflowError:  # an integer beyond the double range
        return None
    if not np.isfinite(parts).all():
        return None
    parts = np.ascontiguousarray(parts.reshape(2, -1).T)  # re, im pairs
    parts.flags.writeable = False
    return parts.view(complex).reshape(len(rows), n)


_WS = r"[ \t\n\r]*"  # JSON's whitespace
_KEY = _WS + r'"([^"\\\x00-\x1f]*)"' + _WS + ":" + _WS  # a key with escapes declines the walk
_FIRST_KEY, _NEXT_KEY = (re.compile(_WS + opening + _KEY) for opening in (r"\{", ","))
_OPEN, _COMMA, _CLOSE, _END = (re.compile(p) for p in (
    r"\[" + _WS, _WS + "," + _WS, _WS + r"\]", _WS + r"\}" + _WS + r"\Z"))
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_BATCH_CELLS = 8192


class _FloatTable(dict):
    """Float token text -> float(text), each distinct spelling converted once."""

    def __missing__(self, token: str) -> float:
        self[token] = value = float(token)
        return value


def _decode_matrix(text: str, pos: int) -> tuple[np.ndarray | None, int]:
    """The "matrix" value at pos, decoded one row at a time and converted in
    batches of about _BATCH_CELLS cells (None if a check fails), and its end.
    If fewer than half of the first batch's doubles are distinct, the rows
    after it read floats through a table local to this call, until a batch
    adds more spellings than half its numbers; at a batch's end the table is
    emptied when it holds more spellings than the batch has numbers.  Ints
    keep json's own path, so ``-0`` still reads as +0."""
    decode, table, rows, batches, cells = _DECODER.raw_decode, None, [], [], 0
    sep = _OPEN.match(text, pos)
    while sep:
        row, pos = decode(text, sep.end())
        rows.append(row)
        cells += len(row)
        if cells >= _BATCH_CELLS:
            batches.append(batch := _parse_matrix(rows, len(rows[0])))
            if table is not None and len(table) - known > cells:
                table, decode = None, _DECODER.raw_decode
            elif table is not None and len(table) > 2 * cells:
                table.clear()
            elif (len(batches) == 1 and batch is not None
                  and np.unique(batch.view(float)).size < cells):
                table = _FloatTable()
                decode = json.JSONDecoder(parse_float=table.__getitem__,
                                          parse_constant=_reject_constant).raw_decode
            rows, cells, known = [], 0, len(table or ())
        sep = _COMMA.match(text, pos)
    batches += [_parse_matrix(rows, len(rows[0]))] if rows else []
    close = _CLOSE.match(text, pos)
    if not (batches and close) or any(b is None for b in batches):
        return None, pos
    matrix = np.concatenate(batches)
    matrix.flags.writeable = False
    return matrix, close.end()


def _walk(text: str) -> dict | None:
    """The top-level object, each value decoded whole by json's own scanner but
    "matrix", decoded row by row into an n x n array for the n atoms; None if
    a check fails.  Any key order and whitespace; the last duplicate key wins."""
    raw, pos, key = {}, 0, _FIRST_KEY.match(text)
    while key:
        decode = _decode_matrix if key[1] == "matrix" else _DECODER.raw_decode
        raw[key[1]], pos = decode(text, key.end())
        key = _NEXT_KEY.match(text, pos)
    n, matrix = len(raw.get("atoms", ())), raw.get("matrix")
    return raw if _END.match(text, pos) and matrix is not None and matrix.shape == (n, n) else None


def loads(text: str) -> SystemDocument:
    """Parse a document; non-finite numbers (NaN, Infinity, 1e999) are refused.

    A text that the row-by-row walk declines is parsed whole, for the message."""
    try:
        raw = _walk(text)
    except (TypeError, ValueError, RecursionError, DocumentError):
        raw = None
    try:
        raw = json.loads(text, parse_constant=_reject_constant) if raw is None else raw
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
    _require(isinstance(atoms, list) and all(isinstance(a, str) for a in atoms),
             '"atoms" must be a list of strings')
    n = len(atoms)
    matrix = rows = raw["matrix"]  # already an array if the walk decoded it
    if not isinstance(rows, np.ndarray):
        _require(isinstance(rows, list) and len(rows) == n, f'"matrix" must have {n} rows')
        matrix = _parse_matrix(rows, n)
        if matrix is None:
            raise DocumentError(_entry_error(rows, n))
    metadata = raw.get("metadata", {})
    _require(isinstance(metadata, dict), '"metadata" must be an object')
    return SystemDocument(name=name, atoms=tuple(atoms), matrix=matrix, metadata=metadata)


def write_document(path, doc: SystemDocument) -> None:
    """Write ``doc`` to a new file beside ``path`` (symlinks resolved), renamed over it when whole,
    so a failed write keeps an existing file; in place where no file can be made beside it or
    the path holds no writable regular file (a device, a FIFO, a read-only file)."""
    chunks = _chunks(doc)  # a refused document leaves the path as it was
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    regular = not os.path.exists(target) or os.path.isfile(target) and os.access(target, os.W_OK)
    try:  # "x" makes the file with the umask's permissions
        fh = open(tmp, "x", encoding="utf-8") if regular else None
    except OSError:  # no file can be made beside the target
        fh = None
    try:
        with fh or open(path, "w", encoding="utf-8") as out:
            out.writelines(chunks)
        if fh is not None:
            os.replace(tmp, target)
    except OSError as exc:  # from an open, a write, the flush at close or the rename
        if fh is not None:
            os.remove(tmp)
        raise DocumentError(f"cannot write {path}: {exc}") from exc


def read_document(path) -> SystemDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return loads(text)


def bundled_document(name: str) -> SystemDocument:
    """Load one of the documents shipped with the package (see BUNDLED)."""
    if name not in BUNDLED:
        raise DocumentError(f"no bundled document {name!r}; available: {BUNDLED}")
    text = resources.files("qmt.data").joinpath(f"{name}.json").read_text("utf-8")
    return loads(text)
