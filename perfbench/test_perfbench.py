"""Tests of the benchmark itself: corrupted outputs are caught and counted.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
import sys
import time
from argparse import Namespace

import numpy as np
import pytest

import checks
import qmt
import run
import tracer
import workloads
from qmt import GenSpec, build_witness, classify, generate

WEAK_ONLY = [[0.6, 0.5j], [-0.5j, 0.4]]


@pytest.fixture(scope="module")
def small_witness():
    s = generate(GenSpec("weak_not_strong_not_posentry", 2, 3))
    w = build_witness(s)
    assert w.cross_checked
    return s, w


def test_witness_check_passes_and_catches_corruption(small_witness):
    s, w = small_witness
    assert checks.witness_result(s.n, w) == []
    flipped = dataclasses.replace(w, verified_value=-w.verified_value,
                                  predicted_value=-w.predicted_value)
    assert any("not negative" in p for p in checks.witness_result(s.n, flipped))
    drifted = dataclasses.replace(w, cross_check_value=w.verified_value * (1 + 1e-6))
    assert any("cross-check" in p for p in checks.witness_result(s.n, drifted))
    skipped = dataclasses.replace(w, cross_checked=False, cross_check_value=None)
    assert any("not checked" in p for p in checks.witness_result(s.n, skipped))


def test_classification_check_catches_wrong_flag_and_fake_violation():
    strong = generate(GenSpec("strong", 4, 5))
    c = classify(strong)
    assert checks.classification(strong.matrix, "strong", c) == []
    wrong = dataclasses.replace(c, strongly_positive=False)
    assert checks.classification(strong.matrix, "strong", wrong)

    quasi = generate(GenSpec("hermitian_only", 6, 1))
    q = classify(quasi)
    assert not q.weakly_positive
    assert checks.classification(quasi.matrix, "hermitian_only", q) == []
    # Report a positive-measure event (a diagonal atom) as the violation.
    atom = int(np.argmax(quasi.matrix.diagonal().real))
    fake = dataclasses.replace(q, weak_violation=quasi.atom(atom),
                               weak_violation_value=q.weak_violation_value)
    assert checks.classification(quasi.matrix, "hermitian_only", fake)


def test_composed_document_check_catches_wrong_entry_and_bytes():
    a = np.array([[0.3, 0.2], [0.2, 0.3]])
    b = np.array([[0.1, 0.15], [0.15, 0.6]])
    doc = qmt.SystemDocument("ab", tuple("wxyz"), np.kron(a, b), {})
    text = qmt.documents.dumps(doc)
    raw, got = checks.parse_doc(text)
    rewrite = workloads._rewrite
    assert checks.check_composed(text, raw, got, a, b, rewrite) == []
    bad = got.copy()
    bad[1, 2] += 1e-12
    assert checks.check_composed(text, raw, bad, a, b, rewrite)
    assert checks.check_composed(text + " ", raw, got, a, b, rewrite)


def test_cli_docs_checks_a_changed_document_again(tmp_path):
    ops = workloads.cli_docs(1, tmp_path)
    compose = next(op for op in ops if op.label.endswith("-o c128.json"))
    result = compose.run()
    assert compose.check(result) == []
    assert compose.check(result) == []  # the same bytes: verified already
    doc = tmp_path / "c128.json"
    doc.write_text(doc.read_text().replace('"re": 0.', '"re": 1.', 1))
    assert any("np.kron" in p for p in compose.check(result))


def test_probe_check_catches_wrong_value():
    m = np.array([[0.2, 0.4], [0.4, 0.0]])
    payload = {"vector": [[1.0, 0.0], [-1.0, 0.0]], "rho": 1.0, "value": -0.6}
    assert checks.check_probe(payload, m) == []
    assert checks.check_probe(dict(payload, value=-0.59), m)


def _ops(corrupt: bool):
    """Three witness ops; the middle one's output is corrupted on request."""
    systems = [qmt.QuantumSystem(WEAK_ONLY),
               generate(GenSpec("weak_not_strong_not_posentry", 2, 3)),
               generate(GenSpec("weak_not_strong_not_posentry", 3, 4))]
    ops = [workloads._witness_op([s], f"op{i}") for i, s in enumerate(systems)]
    if corrupt:
        good = ops[1].run
        ops[1] = dataclasses.replace(ops[1], run=lambda: [
            dataclasses.replace(w, verified_value=abs(w.verified_value)) for w in good()])
    return ops


def test_measure_counts_a_failed_check_and_continues():
    phase = run.measure(_ops(corrupt=True), 0)
    assert phase.passes == 1
    assert len(phase.latency_ns) == 3
    assert len(phase.failures) == 1 and phase.failures[0].startswith("op1:")
    assert phase.events == (1 << 2) + (1 << 3)


def test_measure_records_where_an_op_raised():
    def broken():
        raise ValueError("no witness")

    ops = _ops(corrupt=False)
    ops[0] = dataclasses.replace(ops[0], run=broken)
    phase = run.measure(ops, 0)
    assert len(phase.latency_ns) == 3 and len(phase.failures) == 1
    assert "raised ValueError: no witness" in phase.failures[0]
    assert "in broken" in phase.failures[0]


def test_first_pass_checks_wait_until_the_pass_ends():
    log = []
    ops = [workloads.Op(label=f"op{i}", run=lambda i=i: log.append(f"run{i}") or i,
                        check=lambda r: log.append(f"check{r}") or [])
           for i in range(3)]
    phase = run.measure(ops, 0)
    assert log == ["run0", "run1", "run2", "check0", "check1", "check2"]
    assert phase.peak_rss_mb > 0 and not phase.failures


def test_one_slow_pass_does_not_move_ops_per_s():
    delays = iter([0.001, 0.001, 0.05, 0.05, 0.001, 0.001])  # the second pass is slow
    ops = [workloads.Op(label=f"op{i}", run=lambda: time.sleep(next(delays)),
                        check=lambda r: [], events=4)
           for i in range(2)]
    phase = run.Phase()
    for _ in range(3):
        run.run_pass(phase, ops)
    assert phase.pass_done == [2, 2, 2]
    # The mean over the run would be 6 ops in more than 0.1 s.
    assert phase.ops_per_s > 200
    assert phase.events_per_s == pytest.approx(4 * phase.ops_per_s)


def _run_tiny(monkeypatch, tmp_path, capsys, corrupt: bool, trace: int):
    monkeypatch.setattr(run, "OUT", tmp_path)
    for var in run.BLAS_VARS:  # run_workload caps them; restore them afterwards
        monkeypatch.setenv(var, str(run.BLAS_THREADS))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny",
                        workloads.Workload(lambda seed, wd: _ops(corrupt), 50))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    args = Namespace(workload="tiny", seed=1, seconds=0, trace=trace)
    code = run.run_workload(args, bench)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result, bench


def test_failed_check_makes_the_run_exit_nonzero(monkeypatch, tmp_path, capsys):
    code, result, bench = _run_tiny(monkeypatch, tmp_path, capsys, corrupt=True, trace=0)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}


def test_traced_run_reports_every_layer_and_unwraps(monkeypatch, tmp_path, capsys):
    compose_mod, witness_mod = sys.modules["qmt.compose"], sys.modules["qmt.witness"]
    original = witness_mod.self_compose
    code, result, bench = _run_tiny(monkeypatch, tmp_path, capsys, corrupt=False, trace=1)
    assert code == 0 and result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert metrics["witness.built"] == 3
    assert metrics["witness.build.ms"] > metrics["witness.build.self_ms"] > 0
    assert metrics["compose.self_compose.ms"] > 0
    # build_witness is the whole of each op.
    assert 0.9 < metrics["trace.layer_share_min"] <= metrics["trace.layer_share"] <= 1
    assert witness_mod.self_compose is original
    assert compose_mod.self_compose is original


def test_tracer_wraps_every_name_a_caller_looks_up():
    rec = tracer.Tracer()
    rec.install()
    try:
        compose_mod, witness_mod = sys.modules["qmt.compose"], sys.modules["qmt.witness"]
        assert compose_mod.self_compose is witness_mod.self_compose is qmt.self_compose
        assert qmt.build_witness is qmt.cli.build_witness is witness_mod.build_witness
        s = qmt.QuantumSystem(WEAK_ONLY)
        rec.run_op(0, "", lambda: qmt.compose(s, s))
    finally:
        rec.uninstall()
    names = [rec.names[i] for i in rec.name]
    assert names == ["op", "compose.kron", "functional.construct"]
    assert rec.parent.tolist() == [-1, 0, 1]
    selfs = rec.self_ns()
    assert sum(selfs) == rec.end[0] - rec.start[0]


def test_layer_coverage_counts_untraced_time_as_uncovered():
    s = qmt.QuantumSystem(WEAK_ONLY)
    rec = tracer.Tracer()
    rec.install()
    try:
        rec.run_op(0, "", lambda: qmt.compose(s, s))
        rec.run_op(1, "", lambda: (qmt.compose(s, s), time.sleep(0.05)))
        rec.run_op(2, "cli.compose", lambda: (qmt.compose(s, s), time.sleep(0.05)))
    finally:
        rec.uninstall()
    covered, op_ns = rec.layer_coverage()
    shares = [c / d for c, d in zip(covered, op_ns)]
    assert shares[0] > 0.5
    assert shares[1] < 0.1 and shares[2] < 0.1


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "qmt.documents writes a negative zero as -0 and reads it back as +0, so a "
    "composed document holding one is not byte-stable; cli-docs's chain holds none"))
def test_composed_document_with_negative_zeros_is_byte_stable():
    # The bundled weak_only composed with a weak-only system, then with
    # weak_only again: the 8-atom product holds negative zeros.
    weak_only = qmt.documents.dumps(qmt.documents.bundled_document("weak_only"))
    s = generate(GenSpec("weak_not_strong_not_posentry", 2, 0))
    other = qmt.documents.dumps(qmt.SystemDocument("w", s.labels, s.matrix, s.metadata))
    text = weak_only
    for factor in (other, weak_only):
        first, second = checks.doc_matrix(text), checks.doc_matrix(factor)
        product = qmt.compose(qmt.QuantumSystem(first), qmt.QuantumSystem(second))
        text = qmt.documents.dumps(qmt.SystemDocument("c", product.labels, product.matrix, {}))
        raw, got = checks.parse_doc(text)
        assert checks.check_composed(text, raw, got, first, second, workloads._rewrite) == []
