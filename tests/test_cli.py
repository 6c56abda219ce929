import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmt import GenSpec, cli, generate, witness
from qmt.cli import main
from qmt.documents import SystemDocument, bundled_document, read_document, write_document
from qmt.errors import (
    ArityMismatchError,
    AxiomViolationError,
    BruteForceLimitError,
    DocumentError,
    PreconditionError,
    QCapError,
    QmtError,
    SearchExhaustedError,
    SumRuleViolationError,
)

from conftest import (
    classical_outside_s,
    document,
    negative_minor_past_the_cap,
    strong_with_a_negative_event,
    violator_past_the_sweep,
)

# Exit codes as documented in the cli module docstring and README.
DOCUMENTED_EXIT_CODES = {
    DocumentError: 2,
    AxiomViolationError: 3,
    SumRuleViolationError: 3,
    ArityMismatchError: 4,
    BruteForceLimitError: 4,
    PreconditionError: 5,
    QCapError: 6,
    SearchExhaustedError: 1,
    QmtError: 1,
}


@pytest.fixture()
def doc_path(tmp_path):
    def _write(name):
        path = tmp_path / f"{name}.json"
        write_document(path, bundled_document(name))
        return str(path)

    return _write


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_strong_system(self, doc_path, capsys):
        code, out, _ = run(["classify", doc_path("strong_not_posentry")], capsys)
        assert code == 0
        assert "weakly positive:    yes" in out
        assert "strongly positive:  yes" in out
        assert "positive entry:     no" in out

    def test_posentry_system(self, doc_path, capsys):
        code, out, _ = run(["classify", doc_path("posentry_not_strong")], capsys)
        assert code == 0
        assert "strongly positive:  no" in out
        assert "positive entry:     yes" in out

    def test_json_output(self, doc_path, capsys):
        code, out, _ = run(["classify", "--json", doc_path("weak_only")], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"]["weakly_positive"] is True
        assert payload["flags"]["strongly_positive"] is False
        assert payload["flags"]["positive_entry"] is False

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(["classify", str(bad)], capsys)
        assert code == 2
        assert "error" in err

    def test_deeply_nested_json_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        code, _, err = run(["classify", str(deep)], capsys)
        assert code == 2
        assert err == "error: invalid JSON: nesting too deep\n"

    def test_axiom_failure_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"name": "x", "atoms": ["a"], "matrix": [[{"re": 2.0, "im": 0}]], "metadata": {}}'
        )
        code, _, err = run(["classify", str(bad)], capsys)
        assert code == 3

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_zero_atom_document_exits_3(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.json"
        empty.write_text('{"name": "x", "atoms": [], "matrix": [], "metadata": {}}')
        code, out, err = run([command, str(empty)], capsys)
        assert (code, out, err) == (3, "", "error: a system needs at least one atom\n")

    def test_eps_flag_widens_tolerance(self, tmp_path, capsys):
        slightly_off = tmp_path / "off.json"
        slightly_off.write_text(
            '{"name": "x", "atoms": ["a"], "matrix": [[{"re": 1.000001, "im": 0}]], "metadata": {}}'
        )
        code, _, _ = run(["classify", str(slightly_off)], capsys)
        assert code == 3
        code, _, _ = run(["classify", "--eps", "1e-4", str(slightly_off)], capsys)
        assert code == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_norm_past_the_double_range_exits_3_without_a_warning(self, tmp_path, capsys):
        # The Frobenius norm overflows to inf, which the constructor refuses;
        # numpy's overflow warning must not be printed on the way.
        path = tmp_path / "huge.json"
        write_document(path, document([[1e200, 0.5j], [-0.5j, 1 - 1e200]]))
        code, out, err = run(["classify", str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == "error: matrix entries and their norm must be finite\n"

    def test_repros_that_used_to_exit_1(self, tmp_path, capsys):
        for name, s in (("strong", strong_with_a_negative_event()), ("diag", classical_outside_s())):
            path = tmp_path / f"{name}.json"
            write_document(path, SystemDocument.from_system(name, s))
            code, out, err = run(["classify", str(path)], capsys)
            assert (code, err) == (0, "")
            assert "weakly positive:    yes" in out

    def test_strong_composition_above_the_limit(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        argv = ["gen", "--kind", "strong", "--atoms", "8", "--seed", "3", "-o", str(path)]
        assert run(argv, capsys)[0] == 0
        assert run(["compose", str(path), str(path), "-o", str(path)], capsys)[0] == 0
        code, out, _ = run(["classify", "--json", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["atoms"]) == 64
        assert payload["flags"]["weakly_positive"] is True
        assert payload["weak_violation"] is None

    def test_gen_strong_above_the_limit(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        argv = ["gen", "--kind", "strong", "--atoms", "21", "--seed", "1", "-o", str(path)]
        assert run(argv, capsys)[0] == 0
        assert run(["classify", str(path)], capsys)[0] == 0

    def test_gen_weak_only_above_the_limit(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        argv = ["gen", "--kind", "weak_not_strong_not_posentry", "--atoms", "21", "--seed", "1",
                "-o", str(path)]
        assert run(argv, capsys)[0] == 0
        assert len(read_document(path).atoms) == 21
        code, out, _ = run(["classify", str(path)], capsys)
        assert code == 0
        assert "weakly positive:    yes" in out
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 0
        assert "weakly positive:  yes  [informational]" in out

    def test_verify_and_classify_agree_above_the_limit(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        argv = ["gen", "--kind", "strong", "--atoms", "21", "--seed", "1", "-o", str(path)]
        assert run(argv, capsys)[0] == 0
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 0
        assert "weakly positive:  yes" in out
        code, out, _ = run(["classify", str(path)], capsys)
        assert code == 0
        assert "weakly positive:    yes" in out

    def test_verify_and_classify_agree_on_the_repros(self, tmp_path, capsys):
        for name, s in (("strong", strong_with_a_negative_event()), ("diag", classical_outside_s())):
            path = tmp_path / f"{name}.json"
            write_document(path, SystemDocument.from_system(name, s))
            code, out, _ = run(["verify", str(path)], capsys)
            assert code == 0
            assert "weakly positive:  yes" in out

    def test_at_the_limit_the_lowest_violator_is_found_first(self, tmp_path, capsys):
        # At 20 atoms, the seed-1204 draw's lowest violator is mask 1 (atom
        # 0), found in the sweep's first two-mask block.
        path = tmp_path / "h20.json"
        argv = ["gen", "--kind", "hermitian_only", "--atoms", "20", "--seed", "1204", "-o", str(path)]
        assert run(argv, capsys)[0] == 0
        value = read_document(path).matrix[0, 0].real
        code, out, _ = run(["classify", "--json", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["weak_violation"] == {"atoms": [0], "value": value}
        assert value < 0

    def test_above_the_limit_a_violator_on_the_first_20_atoms_is_exact(self, tmp_path, capsys):
        # A violator on the first 20 atoms makes W an exact "no" at 21 atoms.
        path = tmp_path / "h.json"
        argv = ["gen", "--kind", "hermitian_only", "--atoms", "21", "--seed", "1", "-o", str(path)]
        assert run(argv, capsys)[0] == 0
        value = read_document(path).matrix[3, 3].real
        code, out, _ = run(["classify", str(path)], capsys)
        assert code == 0
        assert f"weakly positive:    no  (event {{g3}} has measure {value:.9g})" in out
        code, out, _ = run(["classify", "--json", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"]["weakly_positive"] is False
        assert payload["weak_violation"] == {"atoms": [3], "value": value}
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 0
        assert f"weakly positive:  no  (violating measure {value:.9g})  [informational]" in out
        code, _, err = run(["witness", str(path)], capsys)
        assert code == 5
        assert "not weakly positive" in err

    def test_above_the_limit_outside_s_and_dual_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "u.json"
        write_document(path, SystemDocument.from_system("u", violator_past_the_sweep()))
        code, out, _ = run(["classify", str(path)], capsys)
        assert code == 0
        assert (
            "weakly positive:    unknown  (neither S nor dual(P);"
            " no violator on the first 20 atoms, where the sweep stops)" in out
        )
        code, out, _ = run(["classify", "--json", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"]["weakly_positive"] is None
        assert payload["weak_violation"] is None
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 0
        assert "weakly positive:  unknown  [informational]" in out
        # The witness needs W itself, so it stops at the sweep limit.
        code, _, err = run(["witness", str(path)], capsys)
        assert code == 4
        assert err == (
            "error: weakly positive: unknown (no violator on the first 20 of 22 atoms,"
            " where the sweep stops)\n"
        )


class TestComposeCommand:
    def test_compose_and_reclassify(self, doc_path, tmp_path, capsys):
        out_path = tmp_path / "mn.json"
        code, _, _ = run(
            ["compose", doc_path("strong_not_posentry"), doc_path("posentry_not_strong"),
             "-o", str(out_path)],
            capsys,
        )
        assert code == 0
        doc = read_document(out_path)
        assert len(doc.atoms) == 4
        assert doc.metadata["composed_of"] == ["strong_not_posentry", "posentry_not_strong"]
        code, out, _ = run(["classify", str(out_path)], capsys)
        assert code == 0
        assert "weakly positive:    no" in out

    def test_identity_factor(self, doc_path, tmp_path, capsys):
        one = tmp_path / "one.json"
        one.write_text(
            '{"name": "unit", "atoms": ["u"], "matrix": [[{"re": 1.0, "im": 0.0}]], "metadata": {}}'
        )
        out_path = tmp_path / "same.json"
        code, _, _ = run(
            ["compose", doc_path("posentry_not_strong"), str(one), "-o", str(out_path)], capsys
        )
        assert code == 0
        doc = read_document(out_path)
        assert np.allclose(doc.matrix, bundled_document("posentry_not_strong").matrix)

    def test_overflow_exits_4(self, tmp_path, capsys):
        n = 70
        diag = np.diag(np.full(n, 1.0 / n)).astype(complex)
        doc = SystemDocument("big", tuple(f"a{i}" for i in range(n)), diag, {})
        path = tmp_path / "big.json"
        write_document(path, doc)
        code, _, err = run(["compose", str(path), str(path), "-o", str(tmp_path / "x.json")], capsys)
        assert code == 4


class TestWitnessCommand:
    def test_weak_only_witness(self, doc_path, capsys):
        code, out, _ = run(["witness", doc_path("weak_only")], capsys)
        assert code == 0
        assert "case: b_iii" in out
        assert "verified:" in out
        assert "Kronecker cross-check: skipped (2^38 atoms exceeds the 2^20 limit)\n" in out

    def test_witness_json(self, doc_path, capsys):
        code, out, _ = run(["witness", "--json", doc_path("weak_only")], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verified_value"] < 0
        # The integer and label fields, pinned: atoms print as indices.
        pair = payload["phase_pair"]
        assert (payload["case"], pair["first"], pair["second"]) == ("b_iii", [0], [1])
        assert payload["neg_det_atoms"] == [0, 1]
        assert (payload["p"], payload["q"], payload["k"]) == (2, 18, 38)
        assert payload["components"][0] == ["g1", "g1"] + ["g1", "g2"] * 18

    def test_component_lines(self, tmp_path, capsys):
        # Seed 46: 39366 components over 3^30 composed atoms, verified by the
        # blockwise sum and too large to cross-check.  Each is the first
        # phase atom g1 three times, then nine blocks of even permutations of
        # the negative-determinant atoms g0, g1, g2, in itertools.product
        # order; 16 rows are printed, 64 with --json.
        path = str(tmp_path / "w46.json")
        gen = ["gen", "--kind", "weak_not_strong_not_posentry", "--atoms", "3", "--seed", "46"]
        assert run([*gen, "-o", path], capsys)[0] == 0
        code, out, _ = run(["witness", path], capsys)
        assert code == 0
        assert "  phase pair: (g1, g2)" in out and "  neg-det atoms: [g0, g1, g2]" in out
        assert "  p = 3  q = 9  k = 30\n" in out
        even = [perm for perm in itertools.permutations(["g0", "g1", "g2"])
                if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0]
        rows = (["g1"] * 3 + [atom for block in blocks for atom in block]
                for blocks in itertools.product(even, repeat=9))
        expected = ["    (" + ", ".join(row) + ")" for row in itertools.islice(rows, 16)]
        lines = out.splitlines()
        start = lines.index("  event components: 39366") + 1
        assert lines[start : start + 17] == expected + ["    ... 39350 more"]
        assert [len(line.split(", ")) for line in lines[start : start + 16]] == [30] * 16
        code, out, _ = run(["witness", "--json", path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["component_count"], payload["cross_checked"]) == (39366, False)
        assert payload["verified_value"] < 0
        assert len(payload["components"]) == 64
        assert {len(row) for row in payload["components"]} == {30}

    @pytest.mark.parametrize("flags, count", [([], 16), (["--json"], 64)])
    def test_only_the_printed_rows_are_built(self, tmp_path, monkeypatch, capsys, flags, count):
        path = str(tmp_path / "w46.json")
        gen = ["gen", "--kind", "weak_not_strong_not_posentry", "--atoms", "3", "--seed", "46"]
        assert run([*gen, "-o", path], capsys)[0] == 0
        calls = []
        real = witness._component_ids
        monkeypatch.setattr(witness, "_component_ids", lambda *a: calls.append(a) or real(*a))
        assert run(["witness", *flags, path], capsys)[0] == 0
        assert calls == [(3, 9, 3, count)]

    def test_rows_of_a_witness_past_the_cross_check_budget(self, tmp_path, capsys):
        # Seed 62: 1062882 components of 43 slots, too many to cross-check;
        # the first 16 (text) or 64 (--json) are printed all the same.
        path = str(tmp_path / "w62.json")
        gen = ["gen", "--kind", "weak_not_strong_not_posentry", "--atoms", "3", "--seed", "62"]
        assert run([*gen, "-o", path], capsys)[0] == 0
        code, out, _ = run(["witness", path], capsys)
        assert code == 0
        lines = out.splitlines()
        start = lines.index("  event components: 1062882") + 1
        assert lines[start] == "    (" + ", ".join(["g1"] * 7 + ["g0", "g1", "g2"] * 12) + ")"
        assert [len(line.split(", ")) for line in lines[start : start + 16]] == [43] * 16
        assert lines[start + 16] == "    ... 1062866 more"
        code, out, _ = run(["witness", "--json", path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["component_count"], payload["cross_checked"]) == (1062882, False)
        assert payload["verified_value"] < 0
        assert len(payload["components"]) == 64
        assert {len(row) for row in payload["components"]} == {43}

    def test_posentry_exits_5(self, doc_path, capsys):
        code, _, err = run(["witness", doc_path("posentry_not_strong")], capsys)
        assert code == 5
        assert "positive entry" in err

    def test_strong_exits_5(self, doc_path, capsys):
        code, _, err = run(["witness", doc_path("strong_not_posentry")], capsys)
        assert code == 5
        assert "strongly positive" in err

    def test_qmax_cap_exits_6(self, doc_path, capsys):
        code, _, err = run(["witness", "--qmax", "1", doc_path("weak_only")], capsys)
        assert code == 6

    def test_negative_minor_past_the_cap_names_the_search_bound(self, tmp_path, capsys):
        # W yes and S no, but every principal submatrix of at most 6 of its 7
        # atoms is PSD: the search ends at its bound, not at a PSD system.
        path = tmp_path / "m7.json"
        write_document(path, SystemDocument.from_system("m7", negative_minor_past_the_cap(7)))
        code, _, err = run(["witness", str(path)], capsys)
        assert code == 1
        assert err == (
            "error: no principal submatrix of at most 6 atoms has negative determinant "
            "(lambda_min = -1.362e-02); the system is not PSD, and a negative minor, "
            "if there is one, has more than 6 atoms, past the search bound\n"
        )


class TestProbeCommand:
    def test_reference_vector(self, doc_path, capsys):
        code, out, _ = run(
            ["probe", "--json", doc_path("posentry_not_strong"), "--vector", "1,-1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(-0.6, abs=1e-12)
        assert payload["rho"] == pytest.approx(1.0)

    def test_default_vector_is_eigenvector(self, doc_path, capsys):
        code, out, _ = run(["probe", doc_path("posentry_not_strong")], capsys)
        assert code == 0
        assert "min-eigenvector" in out

    def test_strong_system_non_negative(self, doc_path, capsys):
        code, out, _ = run(["probe", "--json", doc_path("strong_not_posentry")], capsys)
        assert code == 0
        assert json.loads(out)["value"] >= -1e-9

    def test_vector_length_mismatch_exits_2(self, doc_path, capsys):
        code, _, err = run(
            ["probe", doc_path("posentry_not_strong"), "--vector", "1,2,3"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("vector", ["1,nan", "1e999,1"])
    def test_non_finite_vector_exits_2(self, doc_path, capsys, vector):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["probe", doc_path("posentry_not_strong"), "--vector", vector]
            code, _, err = run(argv, capsys)
        assert code == 2
        assert err == f"error: probe vector {vector!r} has a non-finite entry\n"

    @pytest.mark.parametrize("vector", ["1e200,-1e200", "1e308,1e308", "1e200,1"])
    def test_vector_past_the_double_range_exits_2(self, doc_path, capsys, vector):
        # Finite entries, but rho = 1 + |sum(v)|^2 or the outer product overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["probe", doc_path("posentry_not_strong"), "--vector", vector]
            code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == (f"error: probe vector {vector!r} is too large: rho = 1 + |sum(v)|^2 "
                       "or conj(v) v^T / rho overflows double precision\n")

    def test_complex_vector_parsing(self, doc_path, capsys):
        code, out, _ = run(
            ["probe", "--json", doc_path("dual_posentry_member"), "--vector", "0.5+0.5j,1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] >= -1e-9

    def test_a_large_vector_gets_the_slack_of_the_composed_matrix(self, tmp_path, capsys):
        # |v|^2 / rho is about 7e10, and so is the probe's norm: the value,
        # -6.5e7, has an imaginary residue of 3e-8, a relative error of 5e-16,
        # which the probed matrix's own slack once refused (exit 3).
        path = str(tmp_path / "g8.json")
        gen = ["gen", "--kind", "hermitian_only", "--atoms", "8", "--seed", "0", "-o", path]
        assert run(gen, capsys)[0] == 0
        vector = ("-22626+18040j,-48410-38128j,28843+26086j,-24709+92546j,"
                  "-88766-144089j,960+66535j,95201-36177j,59509+15187j")
        code, out, err = run(["probe", "--json", path, f"--vector={vector}"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        v = np.array([complex(x) for x in vector.split(",")])
        m = read_document(path).matrix
        want = np.vdot(v, m @ v).real / (1 + abs(v.sum()) ** 2)
        assert payload["value"] == pytest.approx(want, rel=1e-12)
        assert payload["value"] < -6e7

    def test_probe_system_built_once(self, doc_path, monkeypatch, capsys):
        built = []
        original = cli.build_probe_system

        def counted(v, tol):
            built.append(v)
            return original(v, tol)

        monkeypatch.setattr(cli, "build_probe_system", counted)
        monkeypatch.setattr(sys.modules["qmt.galois"], "build_probe_system", counted)
        code, out, _ = run(["probe", "--json", doc_path("posentry_not_strong")], capsys)
        assert code == 0 and len(built) == 1
        assert json.loads(out)["value"] < 0


class TestGenAndVerifyCommands:
    def test_gen_then_verify_and_classify(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        code, _, _ = run(
            ["gen", "--kind", "strong", "--atoms", "3", "--seed", "7", "-o", str(path)],
            capsys,
        )
        assert code == 0
        code, out, _ = run(["verify", str(path)], capsys)
        assert code == 0
        assert "quantal sum rule: pass" in out
        code, out, _ = run(["classify", str(path)], capsys)
        assert code == 0
        assert "strongly positive:  yes" in out

    def test_gen_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                ["gen", "--kind", "classical", "--atoms", "2", "--seed", "3", "-o", str(path)],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_reference_file(self, doc_path, capsys):
        code, _, _ = run(["verify", doc_path("strong_not_posentry")], capsys)
        assert code == 0

    @pytest.mark.parametrize(
        "atoms, detail", [(16, "exhaustive)"), (17, "(by construction)")]
    )
    def test_verify_sum_rule_exhaustive_up_to_16_atoms(self, tmp_path, capsys, atoms, detail):
        # The sum rule is checked on every event up to 16 atoms, and holds
        # by construction above, for systems in W and outside it alike.
        for kind, seed in (("classical", 1), ("hermitian_only", 3)):
            path = tmp_path / f"{kind}{atoms}.json"
            argv = ["gen", "--kind", kind, "--atoms", str(atoms), "--seed", str(seed),
                    "-o", str(path)]
            assert run(argv, capsys)[0] == 0
            code, out, _ = run(["verify", str(path)], capsys)
            assert code == 0
            line = next(x for x in out.splitlines() if "quantal sum rule" in x)
            assert line.startswith("  quantal sum rule: pass  (") and line.endswith(detail)

    def test_verify_non_normalized_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"name": "x", "atoms": ["a", "b"], "matrix": '
            '[[{"re": 2.0, "im": 0}, {"re": -1.0, "im": 0}], '
            '[{"re": -1.0, "im": 0}, {"re": 0.5, "im": 0}]], "metadata": {}}'
        )
        code, _, _ = run(["verify", str(bad)], capsys)
        assert code == 3


def _two_atom_doc(first_re: str) -> str:
    return (
        '{"name": "x", "atoms": ["a", "b"], "matrix": ['
        f'[{{"re": {first_re}, "im": 0}}, {{"re": 0, "im": 0}}], '
        '[{"re": 0, "im": 0}, {"re": 1, "im": 0}]], "metadata": {}}'
    )


class TestErrorExits:
    def test_every_error_class_has_a_documented_code(self):
        assert set(DOCUMENTED_EXIT_CODES) == {QmtError, *QmtError.__subclasses__()}

    @pytest.mark.parametrize(
        "error, code", list(DOCUMENTED_EXIT_CODES.items()), ids=lambda x: getattr(x, "__name__", x)
    )
    def test_error_maps_to_documented_exit_code(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_verify", fail)
        got, _, err = run(["verify", "unused.json"], capsys)
        assert got == code
        assert err == "error: boom\n"

    def test_parser_is_built_once(self, doc_path, monkeypatch, capsys):
        path = doc_path("weak_only")
        assert run(["classify", path], capsys)[0] == 0
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert run(["classify", path], capsys)[0] == 0
        assert run(["witness", path], capsys)[0] == 0

    @pytest.mark.parametrize("command", ["classify", "probe", "verify", "witness", "compose"])
    @pytest.mark.parametrize(
        "entry",
        ["NaN", "-Infinity", "1e999", pytest.param("1" + "0" * 400, id="400-digit-integer")],
    )
    def test_non_finite_document_exits_2(self, tmp_path, capsys, command, entry):
        path = tmp_path / "bad.json"
        path.write_text(_two_atom_doc(entry))
        argv = [command, str(path)]
        if command == "compose":
            argv += [str(path), "-o", str(tmp_path / "out.json")]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "x.json", "--eps", "-1"],
            ["classify", "x.json", "--eps", "nan"],
            ["gen", "--kind", "strong", "--atoms", "0", "--seed", "1", "-o", "x.json"],
            ["gen", "--kind", "weak_not_strong_not_posentry", "--atoms", "1", "--seed", "1",
             "-o", "x.json"],
            ["witness", "x.json", "--qmax", "0"],
            ["witness", "x.json", "--qmax", "-1"],
            ["witness", "x.json", "--qmax", "2.5"],
        ],
        ids=["negative-eps", "nan-eps", "zero-atoms", "one-atom-weak-only", "zero-qmax",
             "negative-qmax", "fractional-qmax"],
    )
    def test_usage_error_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()


def child_env():
    """Environment for a child process that imports the same qmt as this one."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        path = tmp_path / "c.json"
        result = subprocess.run(
            [sys.executable, "-m", "qmt.cli", "gen", "--kind", "classical",
             "--atoms", "2", "--seed", "1", "-o", str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert result.returncode == 0
        assert path.exists()

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_1_without_a_traceback(self, doc_path, unbuffered):
        # The reader closes the pipe before the child has written a byte, as
        # `qmt classify --json doc | head -1` can; unbuffered, the failing
        # write is print's own, buffered it is the flush at the end of main.
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        child = subprocess.Popen(
            [sys.executable, "-m", "qmt.cli", "classify", "--json", doc_path("weak_only")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait() == 1
        assert err == b""

    def test_a_write_past_the_file_size_limit_keeps_the_old_output(self, tmp_path):
        # Only the child runs under RLIMIT_FSIZE: its 64-atom output, about
        # 200 kB, fails past 20,000 bytes, and the 4-atom output must stay.
        pytest.importorskip("resource")
        factor, out = tmp_path / "f.json", tmp_path / "out.json"
        write_document(factor, SystemDocument.from_system("f", generate(GenSpec("strong", 8, 3))))
        write_document(out, SystemDocument.from_system("c", generate(GenSpec("strong", 4, 3))))
        before = out.read_bytes()
        child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_FSIZE, (20000, 20000)); "
                 "from qmt.cli import main; sys.exit(main())")
        result = subprocess.run(
            [sys.executable, "-c", child, "compose", str(factor), str(factor), "-o", str(out)],
            capture_output=True,
            text=True,
            env={**child_env(), "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: cannot write {out}: [Errno 27] File too large\n"
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json", "out.json"]
