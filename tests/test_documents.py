import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import qmt.documents

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


class TestStreamedWriter:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_refused_write_leaves_the_file_as_it_was(self, tmp_path, bad):
        path = tmp_path / "kept.json"
        path.write_bytes(b"earlier bytes\n")
        doc = document([[0.5, 0.0], [0.0, 0.5]])
        matrix = np.array(doc.matrix)
        matrix[1, 0] = complex(0.0, bad)
        object.__setattr__(doc, "matrix", matrix)
        with pytest.raises(DocumentError) as want:
            oracle_dumps(doc)
        with pytest.raises(DocumentError) as got:
            write_document(path, doc)
        assert str(got.value) == str(want.value)
        assert path.read_bytes() == b"earlier bytes\n"

    def test_a_failed_rename_leaves_the_file_as_it_was(self, tmp_path, monkeypatch):
        path = tmp_path / "kept.json"
        path.write_bytes(b"earlier bytes\n")

        def replace(src, dst):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(qmt.documents.os, "replace", replace)
        with pytest.raises(DocumentError, match=r"cannot write .*kept.json: \[Errno 5\]"):
            write_document(path, document([[0.5, 0.0], [0.0, 0.5]]))
        assert path.read_bytes() == b"earlier bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["kept.json"]

    def test_only_a_writable_regular_file_is_replaced(self, tmp_path, monkeypatch):
        # A file the user may not write is opened in place, so its open is
        # refused as before; a user who may write it anyway keeps its inode.
        doc, path = document([[0.5, 0.0], [0.0, 0.5]]), tmp_path / "c.json"
        path.write_bytes(b"earlier bytes\n")
        inode = path.stat().st_ino
        write_document(path, doc)
        assert path.stat().st_ino != inode
        inode = path.stat().st_ino
        monkeypatch.setattr(qmt.documents.os, "access", lambda *args: False)
        write_document(path, document([[0.25, 0.25], [0.25, 0.25]]))
        assert path.stat().st_ino == inode
        assert path.read_text("utf-8") == oracle_dumps(document([[0.25, 0.25], [0.25, 0.25]]))

    def test_a_symlinked_output_is_replaced_at_its_target(self, tmp_path):
        doc = document([[0.5, 0.0], [0.0, 0.5]])
        (tmp_path / "real").mkdir()
        target, link = tmp_path / "real" / "t.json", tmp_path / "link.json"
        target.write_bytes(b"earlier bytes\n")
        link.symlink_to(target)
        write_document(link, doc)
        assert link.is_symlink() and target.read_text("utf-8") == oracle_dumps(doc)
        assert [p.name for p in (tmp_path / "real").iterdir()] == ["t.json"]

    def test_chain_write_matches_the_oracle(self, chain, tmp_path):
        for doc in chain[:4]:
            write_document(tmp_path / "c.json", doc)
            assert (tmp_path / "c.json").read_text("utf-8") == oracle_dumps(doc)

    def test_traced_peak_of_the_512_atom_write_is_below_four_matrices(self, chain, tmp_path):
        doc = chain[-1]
        tracemalloc.start()
        try:
            write_document(tmp_path / "c512.json", doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * doc.matrix.nbytes, peak


def whole_outcome(parse, text):
    """The parsed document's fields and matrix bits, or the error message."""
    try:
        doc = parse(text)
    except DocumentError as exc:
        return str(exc)
    return (doc.name, doc.atoms, doc.metadata, doc.matrix.shape,
            np.ascontiguousarray(doc.matrix).view(np.uint64).tolist())


def five_atom_text(row2="", keys=("name", "atoms", "matrix", "metadata")):
    """A 5-atom document; ``row2`` replaces row 2's middle cell, if given."""
    rows = [[{"re": 0.2 * (i == j), "im": 0.01 * (i - j)} for j in range(5)] for i in range(5)]
    parts = {"name": '"five"', "atoms": json.dumps([f"a{i}" for i in range(5)]),
             "metadata": '{"k": [1, 2]}'}
    texts = [", ".join(json.dumps(cell) for cell in row) for row in rows]
    if row2:
        cells = [json.dumps(cell) for cell in rows[2]]
        cells[2] = row2
        texts[2] = ", ".join(cells)
    parts["matrix"] = "[\n" + ",\n".join(f"    [{t}]" for t in texts) + "\n  ]"
    return "{\n" + ",\n".join(f'  "{k}": {parts[k]}' for k in keys) + "\n}\n"


PARSING_CASES = [
    "{not json",
    '{"name": "x"}',
    '{"name": "x", "atoms": ["a", "b"], "matrix": [[{"re": 1, "im": 0}]], "metadata": {}}',
    '{"name": "x", "atoms": ["a"], "matrix": [["1+2j"]], "metadata": {}}',
    '{"name": "x", "atoms": ["a"], "matrix": [[{"re": true, "im": 0}]], "metadata": {}}',
    "", "[]", "{}", "﻿{}", '{"name": "x",}', '{"name" "x"}',
    '{"name": "x", "atoms": [], "matrix": [[]]}',
    '{"name": "x", "atoms": ["a"], "matrix": [{"re": 1, "im": 0}]}',
    '{"name": "x", "atoms": ["a"], "matrix": [[{"re": 1, "im": 0}],]}',
    '{"name": "x", "atoms": ["a"], "matrix": [[{"re": 1, "im": 0}] [1]]}',
    '{"name": 1, "atoms": ["a"], "matrix": [[{"re": 1, "im": 0}]]}',
    '{"name": "x", "atoms": ["a"], "matrix": [[{"re": 1, "im": 0}]], "metadata": []}',
    '{"name": "x", "atoms": ["a"], "matrix": [[{"re": 1, "im": 0}]], "metadata": NaN}',
    '{"name": "x", "atoms": ["a"], "matrix": [[{"re": 1, "im": 0}]], "m": ' + "[" * 10**5,
]


# Spellings of a few values; "-0" is an int, so it reads as +0, but "-0.0" keeps its sign.
SPELLINGS = ("0.5", "5e-1", "0.50", "5E-1", "1", "1.0", "-0", "-0.0", "1e-400",
             "18446744073709551623")


def spelling(i, j, k):
    """The spelling of cell (i, j)'s re (k = 0) or im (k = 1) part."""
    return SPELLINGS[(i + 2 * j + k) % len(SPELLINGS)]


def spellings_text():
    """A 5-atom document whose every row holds each of SPELLINGS once, in a
    rotated order."""
    rows = [[[spelling(i, j, k) for k in (0, 1)] for j in range(5)] for i in range(5)]
    texts = (", ".join('{"re": %s, "im": %s}' % tuple(cell) for cell in row) for row in rows)
    matrix = "[\n" + ",\n".join(f"    [{row}]" for row in texts) + "\n  ]"
    return '{"name": "spellings", "atoms": %s, "matrix": %s}' % (
        json.dumps([f"a{i}" for i in range(5)]), matrix)


@pytest.fixture
def tables(monkeypatch):
    """The float tables ``loads`` starts while the test runs."""
    started = []

    class Recorded(qmt.documents._FloatTable):
        def __init__(self):
            super().__init__()
            self.misses = 0
            started.append(self)

        def __missing__(self, token):
            self.misses += 1
            return super().__missing__(token)

    monkeypatch.setattr(qmt.documents, "_FloatTable", Recorded)
    return started


def traced_read(text):
    """The matrix ``loads`` reads from text, and the traced peak of the read."""
    tracemalloc.start()
    try:
        matrix = loads(text).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return matrix, peak


class TestRowWalk:
    """The row-by-row reader against the whole-document parse it falls back to."""

    @staticmethod
    def same_as_whole(text, walked=True):
        with mock.patch.object(qmt.documents, "_walk", return_value=None):
            want = whole_outcome(loads, text)
        assert whole_outcome(loads, text) == want
        # A valid document is read by the walk itself, not by the fallback.
        try:
            raw = qmt.documents._walk(text)
        except (ValueError, RecursionError, DocumentError):
            raw = None
        assert walked is None or (raw is not None) is walked
        return want

    # With 5 or 10 cells a batch, row 2 comes after the first batch.  Row 0
    # holds 6 distinct doubles of 10, so at 5 cells no float table starts;
    # rows 0 and 1 hold 7 of 20, so at 10 cells the table decodes row 2.
    @pytest.mark.parametrize("batch_cells", [8192, 5, 10])
    @pytest.mark.parametrize("cell, message", [
        ('{"re": NaN, "im": 0}', "non-finite number NaN is not allowed"),
        ('{"re": 0, "im": -Infinity}', "non-finite number -Infinity is not allowed"),
        ('{"re": 1e999, "im": 0}', "matrix entry (2, 2) is not finite"),
        ('{"re": 1' + "0" * 400 + ', "im": 0}', "matrix entry (2, 2) is not finite"),
        ('{"re": 18446744073709551623, "im": -9223372036854775809}', None),
    ])
    def test_bad_and_big_numbers_in_row_three_of_five(self, monkeypatch, tables, batch_cells,
                                                      cell, message):
        monkeypatch.setattr(qmt.documents, "_BATCH_CELLS", batch_cells)
        text = five_atom_text(cell)
        want = self.same_as_whole(text, walked=message is None)
        assert len(tables) == 2 * (batch_cells == 10)  # one for each of the two walks above
        if message is None:
            assert loads(text).matrix[2, 2] == complex(2**64 + 7, -(2**63) - 1)
        else:
            assert want == message

    @pytest.mark.parametrize("batch_cells", [5, 10])
    def test_repeated_spellings_before_and_after_the_first_batch(self, monkeypatch, tables,
                                                                 batch_cells):
        # The first batch is row 0 (5 cells) or rows 0 and 1 (10 cells); its
        # doubles repeat, so the rows after it are decoded with the float table.
        monkeypatch.setattr(qmt.documents, "_BATCH_CELLS", batch_cells)
        text = spellings_text()
        self.same_as_whole(text)
        matrix = loads(text).matrix
        assert len(tables) == 3
        assert same_bits(matrix, oracle_matrix(text))
        bits = np.ascontiguousarray(matrix).view(np.uint64).reshape(5, 5, 2)
        for token, want in (("-0", 0), ("-0.0", 1 << 63)):
            assert {bits[at] for at in np.ndindex(5, 5, 2) if spelling(*at) == token} == {want}

    def test_the_float_table_goes_with_the_call(self, chain):
        doc = chain[-2]
        loads(dumps(doc))  # imports and caches settle before tracing starts
        # Scaled by 1/3, so no earlier read in this process saw its spellings.
        text = dumps(SystemDocument(doc.name, doc.atoms, doc.matrix / 3, doc.metadata))
        tracemalloc.start()
        try:
            base, kept = tracemalloc.get_traced_memory()[0], []
            for _ in range(3):
                matrix = loads(text).matrix
                kept.append(tracemalloc.get_traced_memory()[0] - base - matrix.nbytes)
                del matrix
        finally:
            tracemalloc.stop()
        # Its table would hold some 15,000 spellings, about 2 MB.
        assert max(kept) < 128 * 1024 and max(kept) - min(kept) < 16 * 1024, kept

    def test_matrix_before_atoms(self):
        self.same_as_whole(five_atom_text(keys=("matrix", "metadata", "atoms", "name")))

    def test_the_last_duplicate_matrix_wins(self):
        first = five_atom_text()
        second = first.replace('"re": 0.2', '"re": 0.25')
        matrix_text = second[second.index('"matrix"'):second.index(',\n  "metadata"')]
        text = first.replace('\n}\n', f",\n  {matrix_text}\n}}\n")
        assert self.same_as_whole(text)[4] == self.same_as_whole(second)[4]
        # A bad first matrix is overridden too.
        bad_first = text.replace('"re": 0.2', '"re": true', 1)
        assert self.same_as_whole(bad_first, walked=None)[4] == self.same_as_whole(second)[4]

    def test_indented_and_compact_json(self, chain):
        raw = json.loads(dumps(chain[1]))
        for text in (json.dumps(raw, indent=4), json.dumps(raw, separators=(",", ":")),
                     json.dumps(raw, indent="\t") + " \r\n"):
            self.same_as_whole(text)

    def test_empty_matrix(self):
        for text in ('{"name": "e", "atoms": [], "matrix": [], "metadata": {}}',
                     '{"name": "e", "atoms": [], "matrix": [ \n ]}',
                     '{"name": "e", "atoms": ["a"], "matrix": []}'):
            self.same_as_whole(text, walked=False)

    @pytest.mark.parametrize("trailing", ["x", "{}", ",", "]", "\n}"])
    def test_trailing_data_is_invalid_json(self, trailing):
        message = self.same_as_whole(five_atom_text() + trailing, walked=False)
        assert message.startswith("invalid JSON: Extra data")

    @pytest.mark.parametrize("text", PARSING_CASES, ids=range(len(PARSING_CASES)))
    def test_parsing_cases_give_the_whole_document_message(self, text):
        assert isinstance(self.same_as_whole(text, walked=None), str)

    def test_escaped_keys_and_negative_zero(self):
        text = ('{"n\\u0061me": "x", "atoms": ["a"], "matrix": [[{"im": -0, "re": -0.0}]],'
                ' "metadata": {"a": 1}, "metadata": {"b": 2}}')
        name, _, metadata, _, bits = self.same_as_whole(text, walked=False)
        assert (name, metadata, bits) == ("x", {"b": 2}, [[1 << 63, 0]])
        self.same_as_whole(text.replace("n\\u0061me", "name"))

    def test_a_valid_document_never_builds_the_whole_tree(self, chain, monkeypatch):
        doc = chain[4]
        text = dumps(doc)

        def whole_tree(*args, **kwargs):
            raise AssertionError("json.loads called on a valid document")

        monkeypatch.setattr(qmt.documents.json, "loads", whole_tree)
        assert len(doc.atoms) == 64
        assert same_bits(loads(text).matrix, doc.matrix)

    def test_traced_peak_of_the_512_atom_read_is_below_four_matrices(self, chain):
        doc = chain[-1]
        matrix, peak = traced_read(dumps(doc))
        assert same_bits(matrix, doc.matrix)
        assert peak < 4 * doc.matrix.nbytes, peak

    def test_a_first_batch_of_distinct_numbers_starts_no_table(self, tables):
        # Nearly every number of a generated system is distinct; a table would
        # convert each once and keep them all, so the plain decoder reads on.
        doc = document(generate(GenSpec("strong", 96, 1)).matrix)
        assert same_bits(loads(dumps(doc)).matrix, doc.matrix)
        assert tables == []

    def test_traced_peak_of_a_generated_512_atom_read_is_below_four_matrices(self, tables):
        doc = document(generate(GenSpec("hermitian_only", 512, 1)).matrix)
        matrix, peak = traced_read(dumps(doc))
        assert same_bits(matrix, doc.matrix)
        assert peak < 4 * doc.matrix.nbytes, peak

    def test_a_table_whose_batch_brings_mostly_new_numbers_is_dropped(self, tables):
        # Rows 0-15, the first batch of 8,192 cells, repeat one number, so the
        # table starts; the other rows' numbers are nearly all distinct, so
        # only rows 16-31 are read through it.
        matrix = generate(GenSpec("hermitian_only", 512, 1)).matrix.copy()
        matrix[:16] = 0.25
        doc = document(matrix)
        read, peak = traced_read(dumps(doc))
        assert same_bits(read, doc.matrix)
        assert len(tables) == 1 and tables[0].misses <= 2 * qmt.documents._BATCH_CELLS
        assert peak < 4 * doc.matrix.nbytes, peak

    def test_the_table_is_emptied_once_it_outgrows_a_batch(self, tables):
        # Each 16-row batch draws its numbers from its own 6,000 doubles, so
        # the table pays on every batch and would grow by some 5,600 spellings
        # a batch, about 25 MB in all, if it were never emptied.
        rng = np.random.default_rng(1)
        pools = [rng.standard_normal(6000) for _ in range(32)]
        matrix = np.concatenate([rng.choice(p, (16, 512)) + 1j * rng.choice(p, (16, 512))
                                 for p in pools])
        doc = document(matrix)
        read, peak = traced_read(dumps(doc))
        assert same_bits(read, doc.matrix)
        assert len(tables) == 1 and tables[0].misses > 16 * qmt.documents._BATCH_CELLS
        assert len(tables[0]) <= 4 * qmt.documents._BATCH_CELLS
        assert peak < 4 * doc.matrix.nbytes, peak
