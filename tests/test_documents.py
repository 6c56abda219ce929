import json

import numpy as np
import pytest

from qmt import DocumentError, GenSpec, compose, generate
from qmt.gen import KINDS

from conftest import document, oracle_dumps, oracle_matrix, same_bits
from qmt.documents import (
    BUNDLED,
    SystemDocument,
    bundled_document,
    dumps,
    loads,
    read_document,
    write_document,
)


class TestBundledDocuments:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_loadable_and_valid(self, name):
        doc = bundled_document(name)
        system = doc.to_system()
        assert system.n == 2
        assert doc.name == name

    def test_reference_values(self):
        m = bundled_document("strong_not_posentry").matrix
        assert np.allclose(m, [[2, -1], [-1, 1]])
        n = bundled_document("posentry_not_strong").matrix
        assert np.allclose(n, [[0.2, 0.4], [0.4, 0.0]])
        h = bundled_document("dual_posentry_member").matrix
        assert np.allclose(h, [[0.5, 0.5j], [-0.5j, 0.5]])

    def test_unknown_name(self):
        with pytest.raises(DocumentError):
            bundled_document("missing")


class TestRoundTrip:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        system = generate(GenSpec("weak_not_strong_not_posentry", 3, 77))
        doc = SystemDocument("probe", system.labels, system.matrix, {"k": 1.5, "a": "x"})
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_document(first, doc)
        write_document(second, read_document(first))
        assert first.read_bytes() == second.read_bytes()

    def test_dumps_loads_preserves_values(self):
        matrix = np.array([[0.25, 0.25 + 0.1j], [0.25 - 0.1j, 0.25]])
        doc = SystemDocument("x", ("a", "b"), matrix, {})
        again = loads(dumps(doc))
        assert np.array_equal(again.matrix, matrix)
        assert again.atoms == ("a", "b")

    def test_seventeen_digit_floats(self):
        matrix = np.array([[1.0 / 3.0]])
        text = dumps(SystemDocument("third", ("a",), matrix, {}))
        assert "0.33333333333333331" in text


class TestParsing:
    def test_rejects_invalid_json(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            loads("{not json")

    def test_rejects_missing_fields(self):
        with pytest.raises(DocumentError, match="missing"):
            loads('{"name": "x"}')

    def test_rejects_ragged_matrix(self):
        with pytest.raises(DocumentError):
            loads(
                '{"name": "x", "atoms": ["a", "b"],'
                ' "matrix": [[{"re": 1, "im": 0}]], "metadata": {}}'
            )

    def test_rejects_string_encoded_complex(self):
        with pytest.raises(DocumentError):
            loads(
                '{"name": "x", "atoms": ["a"], "matrix": [["1+2j"]], "metadata": {}}'
            )

    def test_rejects_boolean_entries(self):
        with pytest.raises(DocumentError):
            loads(
                '{"name": "x", "atoms": ["a"],'
                ' "matrix": [[{"re": true, "im": 0}]], "metadata": {}}'
            )

    def test_shape_label_mismatch(self):
        with pytest.raises(DocumentError):
            SystemDocument("x", ("a", "b"), np.eye(3), {})

    def test_non_finite_rejected_on_write(self):
        doc = SystemDocument("x", ("a",), np.array([[1.0]]), {})
        object.__setattr__(doc, "matrix", np.array([[np.inf]]))
        with pytest.raises(DocumentError):
            dumps(doc)


@pytest.fixture(scope="module")
def chain():
    """The cli-docs benchmark's chain at seed 1: bundled weak_only composed
    alternately with a strong and a weak-only 2-atom system, to 512 atoms."""
    s = generate(GenSpec("strong", 2, 3))
    w = generate(GenSpec("weak_not_strong_not_posentry", 2, 2))
    prev, factor, docs = bundled_document("weak_only").to_system(), s, []
    while prev.n < 512:
        prev = compose(prev, factor)
        factor = w if factor is s else s
        docs.append(SystemDocument(f"c{prev.n}", prev.labels, prev.matrix, prev.metadata))
    return docs


SPECIAL_VALUES = (
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1.0, -3.0, 2.0**53, 1e22, 1e16, 1.0 / 3.0, 0.1, 2.2250738585072014e-308,
)


class TestBulkWriter:
    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_documents_match_the_oracle(self, kind):
        for atoms in range(2 if kind == "weak_not_strong_not_posentry" else 1, 17):
            s = generate(GenSpec(kind, atoms, atoms))
            doc = SystemDocument(kind, s.labels, s.matrix, s.metadata)
            assert dumps(doc) == oracle_dumps(doc)

    def test_chain_to_512_atoms_matches_the_oracle(self, chain):
        assert [len(d.atoms) for d in chain] == [4, 8, 16, 32, 64, 128, 256, 512]
        for doc in chain:
            assert dumps(doc) == oracle_dumps(doc)

    def test_special_values(self):
        values = np.array(SPECIAL_VALUES)
        # Every value in every real and imaginary slot, with repeats.
        matrix = np.empty((values.size, values.size), dtype=complex)
        matrix.real, matrix.imag = values[:, None], values[None, :]
        assert np.signbit(matrix.imag[0]).sum() == np.signbit(values).sum()
        text = dumps(document(matrix))
        assert text == oracle_dumps(document(matrix))
        for literal in ("-0", "4.9406564584124654e-324", "1.7976931348623157e+308",
                        "9007199254740992", "1e+22", "0.33333333333333331"):
            assert f'"re": {literal},' in text

    def test_negative_zero_is_still_written_as_minus_zero_and_read_as_plus_zero(self):
        text = dumps(document([[complex(-0.0, -0.0)]]))
        assert '{"re": -0, "im": -0}' in text
        assert same_bits(loads(text).matrix, np.zeros((1, 1), complex))

    @pytest.mark.parametrize("position", [(0, 0, "real"), (0, 0, "imag"), (1, 0, "real"),
                                          (1, 1, "imag")])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_first_non_finite_value_has_the_oracle_message(self, position, bad):
        i, j, part = position
        matrix = np.full((2, 2), 0.25 + 0.5j)
        matrix[1, 1] = complex(-np.inf, np.nan)  # always later in row-major order
        matrix[i, j] = complex(bad, matrix[i, j].imag) if part == "real" else complex(
            matrix[i, j].real, bad)
        doc = document([[0.0, 0.0], [0.0, 0.0]])
        object.__setattr__(doc, "matrix", matrix)
        with pytest.raises(DocumentError) as want:
            oracle_dumps(doc)
        with pytest.raises(DocumentError) as got:
            dumps(doc)
        assert str(got.value) == str(want.value)

    def test_empty_document(self):
        doc = SystemDocument("empty", (), np.zeros((0, 0)), {})
        assert dumps(doc) == oracle_dumps(doc)
        assert loads(dumps(doc)).matrix.shape == (0, 0)


BIG_INTS = (2**53 + 1, 2**63, 2**63 + 1, 2**64 + 7, -(2**63) - 1, 2**80 + 2**27 + 1, 10**300)


class TestBulkReader:
    def test_chain_round_trip_is_bit_identical(self, chain):
        for doc in chain:
            text = dumps(doc)
            got = loads(text).matrix
            assert same_bits(got, doc.matrix)
            if len(doc.atoms) <= 256:
                assert same_bits(got, oracle_matrix(text))

    def test_generated_documents_match_the_oracle(self):
        for kind in KINDS:
            s = generate(GenSpec(kind, 6, 4))
            text = dumps(SystemDocument(kind, s.labels, s.matrix, s.metadata))
            assert same_bits(loads(text).matrix, oracle_matrix(text))

    def test_integers_beyond_two_to_the_53_and_63(self):
        cells = ", ".join(f'{{"re": {v}, "im": {-v}}}' for v in BIG_INTS)
        text = json.dumps({"name": "ints", "atoms": ["a"] * len(BIG_INTS), "matrix": []})
        rows = ", ".join([f"[{cells}]"] * len(BIG_INTS))
        text = text.replace('"matrix": []', f'"matrix": [{rows}]')
        got = loads(text).matrix
        assert same_bits(got, oracle_matrix(text))
        assert got[0, 1].real == float(2**63) and got[0, 6].real == 1e300

    def test_mixed_ints_and_floats(self):
        text = ('{"name": "x", "atoms": ["a", "b"], "matrix": [[{"re": 1, "im": 0.5},'
                ' {"re": 0.25, "im": -2}], [{"re": -0, "im": 3}, {"re": 1e-310, "im": 0}]]}')
        assert same_bits(loads(text).matrix, oracle_matrix(text))

    def test_parsed_matrix_is_read_only_and_not_copied(self):
        doc = loads(dumps(document([[0.5, 0.25j], [-0.25j, 0.5]])))
        assert not doc.matrix.flags.writeable
        with pytest.raises(ValueError):
            doc.matrix[0, 0] = 1.0
        # A document of a constructed system shares the system's read-only matrix.
        system = doc.to_system()
        again = SystemDocument.from_system("again", system)
        assert np.shares_memory(again.matrix, system.matrix)

    def test_writeable_inputs_are_still_copied(self):
        source = np.array([[0.5, 0.5], [0.5, -0.5]], dtype=complex)
        doc = document(source)
        source[0, 0] = 7.0
        assert doc.matrix[0, 0] == 0.5
        view = source[:, :]
        view.flags.writeable = False  # read-only, but its owner is not
        doc = document(view)
        source[0, 0] = 9.0
        assert doc.matrix[0, 0] == 7.0
        assert not document(np.eye(2)).matrix.flags.writeable


# Bad cells, each a different defect.  "short row" replaces the whole row.
DEFECTS = {
    "extra key": '{"re": 0.5, "im": 0, "x": 1}',
    "missing key": '{"re": 0.5}',
    "bool": '{"re": true, "im": 0}',
    "string": '{"re": "0.5", "im": 0}',
    "null": '{"re": 0.5, "im": null}',
    "not an object": "[0.5, 0]",
    "huge int": '{"re": 1' + "0" * 400 + ', "im": 0}',
    "1e999": '{"re": 0.5, "im": 1e999}',
    "short row": None,
}
GOOD = '{"re": 0.25, "im": 0}'


def defective_text(placed, n=3):
    """A 3-atom document with ``placed`` mapping (i, j) to a defect name."""
    rows = []
    for i in range(n):
        cells = [GOOD] * n
        short = False
        for (r, c), defect in placed.items():
            if r == i and DEFECTS[defect] is None:
                short = True
            elif r == i:
                cells[c] = DEFECTS[defect]
        rows.append("[" + ", ".join(cells[:-1] if short else cells) + "]")
    return ('{"name": "bad", "atoms": ["a", "b", "c"], "matrix": [' + ", ".join(rows)
            + '], "metadata": {}}')


def oracle_message(text):
    with pytest.raises(DocumentError) as info:
        oracle_matrix(text)
    return str(info.value)


class TestBulkReaderErrors:
    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_each_defect_alone(self, defect):
        for cell in [(0, 0), (1, 2), (2, 1)]:
            text = defective_text({cell: defect})
            with pytest.raises(DocumentError) as info:
                loads(text)
            assert str(info.value) == oracle_message(text)

    @pytest.mark.parametrize("later", list(DEFECTS))
    @pytest.mark.parametrize("earlier", list(DEFECTS))
    def test_the_first_defect_in_row_major_order_is_reported(self, earlier, later):
        if earlier == later:
            return
        for first, second in [((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 1), (1, 2))]:
            if DEFECTS[earlier] is None and first[0] == second[0]:
                continue  # a short row has no later cell
            text = defective_text({first: earlier, second: later})
            want = oracle_message(text)
            assert str(first[0]) in want
            with pytest.raises(DocumentError) as info:
                loads(text)
            assert str(info.value) == want
