"""Command-line front end: classify, compose, witness, probe, gen, verify.

Exit codes: 0 success, 2 parse/usage error (a non-finite number in a
document or probe vector included), 3 axiom or sum-rule failure, 4 arity
or enumeration overflow, 5 construction precondition not met, 6 exponent
cap exceeded, 1 other errors.  Standard output closed before the command
finished writing (``qmt classify --json h.json | head -1``) exits 1 with
no message.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .algebra import ENUMERATION_LIMIT
from .classify import classify, is_strongly_positive
from .compose import compose
from .documents import SystemDocument, read_document, write_document
from .errors import (
    ArityMismatchError,
    AxiomViolationError,
    BruteForceLimitError,
    DocumentError,
    PreconditionError,
    QCapError,
    QmtError,
    SumRuleViolationError,
)
from .functional import Tolerance, check_axioms, check_quantal_sum_rule
from .galois import build_probe_system, probe_quadratic_form
from .gen import KINDS, GenSpec, generate
from .witness import CROSS_CHECK_LIMIT, build_witness

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_AXIOM = 3
EXIT_OVERFLOW = 4
EXIT_PRECONDITION = 5
EXIT_QCAP = 6

# The exit code of an error is that of the nearest class in its MRO listed here.
EXIT_CODES = {
    DocumentError: EXIT_PARSE,
    AxiomViolationError: EXIT_AXIOM,
    SumRuleViolationError: EXIT_AXIOM,
    ArityMismatchError: EXIT_OVERFLOW,
    BruteForceLimitError: EXIT_OVERFLOW,
    PreconditionError: EXIT_PRECONDITION,
    QCapError: EXIT_QCAP,
    QmtError: EXIT_ERROR,
}


def _load_system(path, tol):
    doc = read_document(path)
    return doc, doc.to_system(tol)


def _flag(value: bool | None) -> str:
    return "unknown" if value is None else "yes" if value else "no"


def cmd_classify(args) -> int:
    tol = args.tol
    doc, system = _load_system(args.path, tol)
    result = classify(system, tol)
    if args.json:
        payload = {
            "name": doc.name,
            "atoms": list(system.labels),
            "flags": result.flags(),
            "min_eigenvalue": result.min_eigenvalue,
            "weak_violation": None
            if result.weak_violation is None
            else {
                "atoms": list(result.weak_violation.indices()),
                "value": result.weak_violation_value,
            },
            "entry_violation": result.entry_violation,
            "dual_violation": result.dual_violation,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"system: {doc.name}  (atoms: {system.n})")
    weak_note = ""
    if result.weakly_positive is None:
        weak_note = (
            f"  (neither S nor dual(P); no violator on the first {ENUMERATION_LIMIT} atoms,"
            " where the sweep stops)"
        )
    elif result.weakly_positive is False:
        names = ", ".join(system.labels[i] for i in result.weak_violation.indices())
        weak_note = f"  (event {{{names}}} has measure {result.weak_violation_value:.9g})"
    print(f"  weakly positive:    {_flag(result.weakly_positive)}{weak_note}")
    print(
        f"  strongly positive:  {_flag(result.strongly_positive)}"
        f"  (lambda_min = {result.min_eigenvalue:.9g})"
    )
    entry_note = ""
    if result.entry_violation is not None:
        i, j = result.entry_violation
        entry_note = f"  (entry ({i},{j}) = {system.matrix[i, j]:.9g})"
    print(f"  positive entry:     {_flag(result.positive_entry)}{entry_note}")
    print(f"  classical:          {_flag(result.classical)}")
    print(f"  dual of pos-entry:  {_flag(result.in_dual_of_posentry)}")
    print(f"  real symmetric:     {_flag(result.real_symmetric)}")
    return EXIT_OK


def cmd_compose(args) -> int:
    tol = args.tol
    doc_a, sys_a = _load_system(args.first, tol)
    doc_b, sys_b = _load_system(args.second, tol)
    composed = compose(sys_a, sys_b, tol)
    name = args.name or f"{doc_a.name}(x){doc_b.name}"
    meta = dict(composed.metadata)
    meta["composed_of"] = [doc_a.name, doc_b.name]
    out = SystemDocument(name=name, atoms=composed.labels, matrix=composed.matrix, metadata=meta)
    write_document(args.output, out)
    print(f"wrote {args.output}: {name} with {composed.n} atoms")
    return EXIT_OK


def cmd_witness(args) -> int:
    tol = args.tol
    doc, system = _load_system(args.path, tol)
    w = build_witness(system, tol, q_cap=args.qmax)
    # Every witness factor is a single atom; only the printed rows get names.
    names = [system.labels[f.indices()[0]] for f in w.factors]
    rows = [[names[i] for i in row] for row in w.component_rows(64 if args.json else 16).tolist()]
    if args.json:
        payload = {
            "name": doc.name,
            "case": w.case,
            "phase_pair": {
                "first": list(w.phase_pair.first.indices()),
                "second": list(w.phase_pair.second.indices()),
                "theta": w.phase_pair.theta,
                "modulus": w.phase_pair.modulus,
            },
            "neg_det_atoms": w.neg_det_atoms,
            "ee": w.ee,
            "eo": w.eo,
            "p": w.p,
            "q": w.q,
            "k": w.k,
            "component_count": w.component_count,
            "components": rows,
            "predicted_value": w.predicted_value,
            "verified_value": w.verified_value,
            "cross_checked": w.cross_checked,
            "cross_check_value": w.cross_check_value,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"system: {doc.name}  case: {w.case}")
    print(
        f"  phase pair: ({names[0]}, {names[1]})"
        f"  theta = {w.phase_pair.theta:.9g}  r = {w.phase_pair.modulus:.9g}"
    )
    if w.neg_det_atoms is not None:
        atoms = ", ".join(system.labels[i] for i in w.neg_det_atoms)
        print(f"  neg-det atoms: [{atoms}]  ee = {w.ee:.9g}  eo = {w.eo:.9g}")
        print(f"  p = {w.p}  q = {w.q}  k = {w.k}")
    else:
        print(f"  k = {w.k}")
    print(f"  event components: {w.component_count}")
    for row in rows:
        print("    (" + ", ".join(row) + ")")
    if w.component_count > 16:
        print(f"    ... {w.component_count - 16} more")
    print(f"  predicted: {w.predicted_value:.17g}")
    print(f"  verified:  {w.verified_value:.17g}")
    if w.cross_checked:
        print(f"  Kronecker cross-check: {w.cross_check_value:.17g}")
    else:
        limit = f"2^{CROSS_CHECK_LIMIT.bit_length() - 1}"
        size = f"{system.n}^{w.k}"
        print(f"  Kronecker cross-check: skipped ({size} atoms exceeds the {limit} limit)")
    return EXIT_OK


def cmd_probe(args) -> int:
    tol = args.tol
    doc, system = _load_system(args.path, tol)
    if args.vector is not None:
        try:
            v = np.array(
                [complex(part.strip().replace("i", "j")) for part in args.vector.split(",")],
            )
        except ValueError as exc:
            raise DocumentError(f"cannot parse probe vector {args.vector!r}: {exc}") from exc
        if not np.isfinite(v).all():
            raise DocumentError(f"probe vector {args.vector!r} has a non-finite entry")
        if v.size != system.n:
            raise DocumentError(
                f"probe vector has {v.size} entries, system has {system.n} atoms"
            )
        source = "given"
    else:
        v = is_strongly_positive(system, tol).eigenvector
        source = "min-eigenvector"
    try:
        probe = build_probe_system(v, tol)
    except ValueError as exc:  # a given vector too large for doubles; an eigenvector is unit
        raise DocumentError(f"probe vector {args.vector!r} is too large: {exc}") from exc
    value = probe_quadratic_form(system, system.atoms(), probe, tol)
    if args.json:
        payload = {
            "name": doc.name,
            "vector": [[z.real, z.imag] for z in v],
            "vector_source": source,
            "rho": probe.rho,
            "value": value,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"system: {doc.name}")
    print(f"  probe vector ({source}): [{', '.join(f'{z:.6g}' for z in v)}]")
    print(f"  rho = {probe.rho:.17g}")
    print(f"  value = {value:.17g}")
    return EXIT_OK


def cmd_gen(args) -> int:
    system = generate(args.spec, args.tol)
    name = args.name or f"{args.kind}-{args.atoms}-{args.seed}"
    write_document(args.output, SystemDocument.from_system(name, system))
    print(f"wrote {args.output}: {name} ({args.kind}, {args.atoms} atoms, seed {args.seed})")
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = args.tol
    doc = read_document(args.path)
    report = check_axioms(doc.matrix, tol)
    print(f"system: {doc.name}  (atoms: {len(doc.atoms)})")
    print(f"  hermitian:  {_flag(report.hermitian)}  (residual {report.hermitian_residual:.3e})")
    print(f"  normalized: {_flag(report.normalized)}  (entry sum {report.entry_sum:.9g})")
    print(f"  additivity: {report.additivity}")
    if not report.is_system:
        print("  quantal sum rule: skipped (axioms failed)")
        return EXIT_AXIOM
    system = doc.to_system(tol)
    rule = check_quantal_sum_rule(system, tol)
    if rule.exhaustive:
        detail = f"max residual {rule.max_residual:.3e}, exhaustive"
    else:
        detail = "by construction"
    print(f"  quantal sum rule: {'pass' if rule.passed else 'FAIL'}  ({detail})")
    note = ""
    if report.weakly_positive is False:
        note = f"  (violating measure {report.weak_violation_value:.9g})"
    print(f"  weakly positive:  {_flag(report.weakly_positive)}{note}  [informational]")
    return EXIT_OK if rule.passed else EXIT_AXIOM


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmt",
        description="Finite quantum measure systems: classification, composition, witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--eps", type=float, default=1e-9, help="tolerance (default 1e-9)")

    p = sub.add_parser("classify", help="positivity classification of a system document")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    add_common(p)

    p = sub.add_parser("compose", help="tensor-compose two system documents")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True, help="output document path")
    p.add_argument("--name", help="name for the composed document")
    add_common(p)

    p = sub.add_parser("witness", help="self-composition negative-measure witness")
    p.add_argument("path")
    p.add_argument("--qmax", type=int, default=64, help="cap on the q exponent, >= 1 (default 64)")
    p.add_argument("--json", action="store_true")
    add_common(p)

    p = sub.add_parser("probe", help="quadratic-form probe via composition")
    p.add_argument("path")
    p.add_argument(
        "--vector",
        help="comma-separated complex entries, e.g. '1,-1' or '0.5+0.5j'"
        " (default: most-negative eigenvector)",
    )
    p.add_argument("--json", action="store_true")
    add_common(p)

    p = sub.add_parser("gen", help="generate a seeded system of a positivity class")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--name")
    p.add_argument("-o", "--output", required=True)
    add_common(p)

    p = sub.add_parser("verify", help="axioms and quantal sum rule of a document")
    p.add_argument("path")
    add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: a build takes about 1 ms."""
    return build_parser()


def _parse_args(argv):
    """Parsed arguments plus the tolerance and gen spec; invalid values are usage errors."""
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args.tol = Tolerance(eps_abs=args.eps, eps_rel=args.eps)
        if args.command == "gen":
            args.spec = GenSpec(kind=args.kind, atoms=args.atoms, seed=args.seed)
        if args.command == "witness" and args.qmax < 1:
            raise ValueError(f"--qmax must be at least 1, got {args.qmax}")
    except ValueError as exc:
        parser.error(str(exc))
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        # Looked up by name at call time, so a replaced cmd_* function is the one run.
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's exit
        return code
    except QmtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[kind] for kind in type(exc).__mro__ if kind in EXIT_CODES)
    except BrokenPipeError:
        # The reader is gone; what is still buffered goes to devnull at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
