"""The benchmark's workloads: seeded inputs, one op per input, and checks.

Every op calls qmt through a module attribute looked up at call time
(``qmt.build_witness``, ``qmt.cli.main``), so the tracer's wrappers apply.
A pass runs the workload's op list once, in order; runs consist of whole
passes, so every run measures the same mix of ops.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import qmt
import qmt.cli
import qmt.documents

import checks


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # 2**n for an op that decides weak positivity of an n-atom system by
    # sweeping its events; 0 otherwise.
    events: int = 0
    # Span name wrapped around the whole op in a traced run ("" for none).
    span: str = ""
    counts: Callable[[object], dict] | None = None


# -- witness-batch ---------------------------------------------------------

WEAK_ONLY = "weak_not_strong_not_posentry"
# The fixed core: the 200 systems of tests/test_acceptance.py's witness loop
# (seeds 0..99 at 2 and 3 atoms), with 1 cross-check at 4096 atoms, 7 at 2187
# and 18 at 729.  It is fixed rather than seeded because the plan-search cost
# of a small system varies enough that, with seeded systems, op_ms_p50 moved
# by a quarter from seed to seed.
ACCEPTANCE_SEEDS = range(100)
OVER = "over"
# Seeded larger systems, keyed by the size n**k of the self-composition
# their witness lands in (OVER when n**k > 4096, so it is built but not
# cross-checked).  Filling fixed quotas keeps the costly cross-checks equally
# many whatever the seed.
EXTRA_QUOTAS = {6: {1296: 1, OVER: 1}, 8: {4096: 1}}
CANDIDATE_LIMIT = 1000


def _witness_counts(cross_checked: bool, components: int) -> Counter:
    return Counter({
        "witness.built": 1,
        "witness.cross_checked": int(cross_checked),
        "witness.cross_check_skipped": int(not cross_checked),
        "witness.components": components,
    })


def _witness_op(systems: list, label: str) -> Op:
    """build_witness on each of `systems` in turn, as one op."""
    return Op(
        label=label,
        run=lambda: [qmt.build_witness(s) for s in systems],
        check=lambda ws: [p for s, w in zip(systems, ws) for p in checks.witness_result(s.n, w)],
        events=sum(1 << s.n for s in systems),
        counts=lambda ws: sum((_witness_counts(w.cross_checked, w.component_count) for w in ws),
                              Counter()),
    )


@functools.cache
def _extra_picks(seed: int) -> list[tuple[int, int, int]]:
    """(atoms, generator seed, n**k) of the seeded larger systems.

    Candidates are tried in order until EXTRA_QUOTAS is filled.  A seed
    needs from 3 to 10 of them, each a build_witness call, so the search took
    0.2 s for some seeds and 0.9 s for others.  It is the benchmark's choice
    of inputs, not their generation: it runs once per process, and the
    set-ups after the first reuse its picks, so that setup_s does not depend
    on how long the seed's search took.
    """
    picks = []
    for atoms, quota in EXTRA_QUOTAS.items():
        left = dict(quota)
        for i in range(CANDIDATE_LIMIT):
            if not any(left.values()):
                break
            gen_seed = seed * 10**6 + atoms * 10**4 + i
            s = qmt.generate(qmt.GenSpec(WEAK_ONLY, atoms, gen_seed))
            size = atoms ** qmt.build_witness(s, cross_check_limit=0).k
            bucket = size if size <= checks.CROSS_CHECK_ATOMS else OVER
            if left.get(bucket, 0) > 0:
                left[bucket] -= 1
                picks.append((atoms, gen_seed, size))
        if any(left.values()):
            raise RuntimeError(f"witness quotas at {atoms} atoms unfilled: {left}")
    return picks


def witness_batch(seed: int, workdir: Path) -> list[Op]:
    """build_witness on the 200 acceptance systems plus three seeded larger ones.

    One op builds the witnesses of one acceptance seed's 2- and 3-atom
    systems.  Built one system per op, the 2-atom systems (a median near
    2 ms) and the 3-atom ones (near 8 ms) form two groups, and op_ms_p50
    fell on the step between them: over ten runs on a 2-core machine its
    quartile spread was 0.27, against 0.13 for the same runs in pairs.
    """
    ops = [
        _witness_op([qmt.generate(qmt.GenSpec(WEAK_ONLY, atoms, i)) for atoms in (2, 3)],
                    f"witness seed={i} n=2,3")
        for i in ACCEPTANCE_SEEDS
    ]
    for atoms, gen_seed, size in _extra_picks(seed):
        s = qmt.generate(qmt.GenSpec(WEAK_ONLY, atoms, gen_seed))
        ops.append(_witness_op([s], f"witness n={atoms} seed={gen_seed} n**k={size}"))
    return ops


# -- wide-sweep ------------------------------------------------------------

SWEEP_ATOMS = (18, 19, 20)


def wide_sweep(seed: int, workdir: Path) -> list[Op]:
    """classify on one generated system of every kind at 18, 19 and 20 atoms."""
    ops = []
    for n in SWEEP_ATOMS:
        for i, kind in enumerate(qmt.gen.KINDS):
            gen_seed = seed * 1000 + n * 10 + i
            s = qmt.generate(qmt.GenSpec(kind, n, gen_seed))
            ops.append(Op(
                label=f"classify {kind} n={n} seed={gen_seed}",
                run=lambda s=s: qmt.classify(s),
                check=lambda c, m=s.matrix, kind=kind: checks.classification(m, kind, c),
                events=1 << n,
            ))
    return ops


# -- cli-docs --------------------------------------------------------------

CHAIN_ATOMS = 512
SET_UP_ATOMS = 64
PROBED = "c64.json"
CLASSIFIED = "c16.json"


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qmt.cli.main(argv)
    return code, out.getvalue()


def _set_up_op(op: Op) -> None:
    problems = op.check(op.run())
    if problems:
        raise RuntimeError(f"set-up failed: {op.label}: {'; '.join(problems)}")


def _rewrite(raw: dict, matrix) -> str:
    """The document as qmt's canonical writer renders it."""
    doc = qmt.documents.SystemDocument(raw["name"], tuple(raw["atoms"]), matrix, raw["metadata"])
    return qmt.documents.dumps(doc)


def cli_docs(seed: int, workdir: Path) -> list[Op]:
    """A fixed script of 12 in-process qmt commands over documents on disk.

    A weak-only and a strong 2-atom system are generated, then composed
    alternately onto a chain that starts from the bundled weak_only document
    and ends at CHAIN_ATOMS atoms.  verify reads the 8-atom link (exhaustive
    sum rule) and the 16-, 32- and 64-atom links (sampled), probe the 64-atom
    link, classify the 16-atom link, and witness the bundled document.

    The links up to SET_UP_ATOMS atoms are composed once, in set-up.  That
    leaves five cheap commands (the two gens, witness, classify and the
    128-atom compose), four dear ones (the sampled verifies at 16 to 64
    atoms and the 512-atom compose) and between them three of like cost
    (the 8-atom verify, the probe and the 256-atom compose).  So the median
    op falls inside that middle group and rests on its pooled samples, not
    on a few samples of one command.
    """
    shutil.copyfile(Path(qmt.__file__).parent / "data" / "weak_only.json",
                    workdir / "weak_only.json")

    def path(name):
        return str(workdir / name)

    def read(name):
        return (workdir / name).read_text("utf-8")

    # Matrices and digests of the documents as last checked, parsed without
    # qmt; each compose check reads its output once and its inputs from here.
    matrices, digests = {}, {}
    # Matrices of the compose outputs that passed, by the digests of the
    # output and its two inputs.  Every pass writes the same documents again.
    # An output byte-identical to a verified one, from byte-identical inputs,
    # is verified already; parsing and rewriting the 512-atom one again would
    # take longer than composing it.
    passed = {}

    def load(name):
        text = read(name)
        digests[name] = hashlib.sha256(text.encode()).digest()
        return text

    matrices["weak_only.json"] = checks.doc_matrix(load("weak_only.json"))

    def check_gen(name, kind):
        matrices[name] = checks.doc_matrix(load(name))
        return checks.check_generated(matrices[name], kind)

    def check_compose(out, first, second):
        text = load(out)
        key = (digests[out], digests[first], digests[second])
        if key in passed:
            matrices[out] = passed[key]
            return []
        raw, matrices[out] = checks.parse_doc(text)
        problems = checks.check_composed(text, raw, matrices[out], matrices[first],
                                         matrices[second], _rewrite)
        if not problems:
            passed[key] = matrices[out]
        return problems

    def cli_op(argv, check, events=0, counts=None):
        def run(argv=argv):
            return _cli(argv)

        def checked(result):
            code, text = result
            if code != 0:
                return [f"exit code {code}"]
            return check(text)

        return Op(label="qmt " + " ".join(argv).replace(str(workdir) + "/", ""),
                  run=run, check=checked, events=events, span=f"cli.{argv[0]}",
                  counts=None if counts is None else lambda r: counts(json.loads(r[1])))

    ops = []
    for name, kind, gen_seed in (("w.json", WEAK_ONLY, 2 * seed), ("s.json", "strong", 2 * seed + 1)):
        ops.append(cli_op(
            ["gen", "--kind", kind, "--atoms", "2", "--seed", str(gen_seed), "-o", path(name)],
            lambda text, name=name, kind=kind: check_gen(name, kind)))
        _set_up_op(ops[-1])  # the chain's first link needs both systems
    prev, atoms, factor = "weak_only.json", 2, "s.json"
    while atoms < CHAIN_ATOMS:
        atoms *= 2
        out = f"c{atoms}.json"
        op = cli_op(["compose", path(prev), path(factor), "-o", path(out)],
                    lambda text, a=prev, b=factor, out=out: check_compose(out, a, b))
        if atoms > SET_UP_ATOMS:
            ops.append(op)
        else:
            _set_up_op(op)
        prev, factor = out, "w.json" if factor == "s.json" else "s.json"
    for verified in ("c8.json", CLASSIFIED, "c32.json", PROBED):
        ops.append(cli_op(["verify", path(verified)], checks.check_verify_text))
    ops.append(cli_op(
        ["probe", path(PROBED), "--json"],
        lambda text: checks.check_probe(json.loads(text), matrices[PROBED])))
    ops.append(cli_op(
        ["classify", path(CLASSIFIED), "--json"],
        lambda text: checks.check_classify_payload(json.loads(text), matrices[CLASSIFIED]),
        events=1 << 16))
    ops.append(cli_op(
        ["witness", path("weak_only.json"), "--json"],
        lambda text: checks.check_witness_payload(json.loads(text), 2),
        events=1 << 2,
        counts=lambda p: _witness_counts(p["cross_checked"], p["component_count"])))
    return ops


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, Path], list[Op]]
    # op_ms_tail's percentile, fixed per workload so that every run reports
    # the same one.  It leaves at least ten ops beyond it in a 25-second run
    # and falls inside a group of ops of like cost, not on a step between two
    # groups: witness-batch's p95 among the ops with 2187-atom cross-checks,
    # cli-docs's p75 among the sampled verifies.  witness-batch's p90 sat on
    # the lower edge of that group and spread twice as wide.
    tail_percentile: float
    # Whether the run also times `qmt witness weak_only.json` in fresh
    # interpreters (cli_cold_ms); it does not depend on the workload.
    cold_cli: bool = False


WORKLOADS = {
    "witness-batch": Workload(witness_batch, 95),
    "wide-sweep": Workload(wide_sweep, 75),
    "cli-docs": Workload(cli_docs, 75, cold_cli=True),
}
