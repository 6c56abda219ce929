"""CLI fuzz: mutated documents and arguments end in a documented exit code.

Each bundled document is mutated in a fixed list of ways: keys dropped or
duplicated; strings, booleans, null, NaN, 1e999 or huge integers where
numbers go; the text truncated or not UTF-8; the matrix made non-square or
its cells reshaped.  Each mutant goes through every command that reads a
document, and the options --eps, --qmax, --vector, --atoms and --seed get
malformed and extreme values.  Whatever the input, ``main`` returns or
exits with a code in 0..6 and writes no traceback.  The mutations are
enumerated, not drawn, so every run tries the same inputs.
"""

import json
import os
from importlib import resources

import pytest

from qmt.cli import main
from qmt.documents import BUNDLED, bundled_document, write_document
from qmt.gen import KINDS

# A warning printed on the way, such as numpy's overflow in a norm, fails the run.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EXIT_RANGE = range(7)
# Values put where a number, a string or a list belongs.
JUNK = ['"1"', "true", "false", "null", "NaN", "-Infinity", "1e999", "1" + "0" * 400,
        "-" + "9" * 30, "[]", "{}", "1.7e308", "5e-324", "[1, 2]"]
# Shape changes of the "matrix" value, n x n cells of {"re", "im"}.
RESHAPES = {
    "short-row": lambda m: [m[0][:-1], *m[1:]],
    "long-row": lambda m: [m[0] + m[0][:1], *m[1:]],
    "missing-row": lambda m: m[:-1],
    "extra-row": lambda m: [*m, m[0]],
    "wide": lambda m: [row + row[:1] for row in m],
    "empty": lambda m: [],
    "empty-rows": lambda m: [[] for _ in m],
    "pair-cells": lambda m: [[[c["re"], c["im"]] for c in row] for row in m],
    "bare-cells": lambda m: [[c["re"] for c in row] for row in m],
    "extra-key": lambda m: [[{**c, "x": 1} for c in row] for row in m],
    "missing-im": lambda m: [[{"re": c["re"]} for c in row] for row in m],
    "doubled": lambda m: [[{"re": 2 * c["re"], "im": 2 * c["im"]} for c in row] for row in m],
    "huge": lambda m: [[{"re": 1e308 * c["re"], "im": c["im"]} for c in row] for row in m],
    "nested": lambda m: [[m]],
}


def mutants(name):
    """(label, text or bytes) of every mutation of one bundled document."""
    text = resources.files("qmt.data").joinpath(f"{name}.json").read_text("utf-8").strip()
    doc = json.loads(text)
    for key in doc:
        yield f"drop-{key}", json.dumps({k: v for k, v in doc.items() if k != key})
        yield f"dup-first-{key}", '{"%s": 0, %s' % (key, text[1:])
        yield f"dup-last-{key}", '%s, "%s": %s}' % (text[:-1], key, json.dumps(doc[key]))
        for junk in JUNK:
            yield f"{key}={junk}", text.replace(f'"{key}": ', f'"{key}": {junk}, "was": ', 1)
    n = len(doc["atoms"])
    for i, j in ((0, 0), (0, n - 1)):
        for part, other in (("re", "im"), ("im", "re")):
            for junk in JUNK:
                cell = '{"%s": %s, "%s": 0}' % (part, junk, other)
                d = json.loads(text)
                d["matrix"][i][j] = "CELL"
                yield f"({i},{j}).{part}={junk}", json.dumps(d).replace('"CELL"', cell)
    for label, reshape in RESHAPES.items():
        yield label, json.dumps({**doc, "matrix": reshape(doc["matrix"])})
    for label, atoms in {"no-atoms": [], "extra-atom": [*doc["atoms"], "z"],
                         "numeric-atoms": list(range(n))}.items():
        yield label, json.dumps({**doc, "atoms": atoms})
    for cut in (0, 1, len(text) // 4, len(text) // 2, len(text) - 1):
        yield f"truncated-{cut}", text[:cut]
    yield "not-an-object", "[1, 2]"
    yield "deep", "[" * 10**5 + "]" * 10**5
    yield "latin-1", text.replace('"name": "', '"name": "\xe9', 1).encode("latin-1")


def outcome(argv, capsys):
    """The exit code and standard error of one in-process run.

    Any exception but SystemExit (argparse's usage errors) propagates and
    fails the test with its traceback.
    """
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def assert_clean(argv, capsys, mutant=None):
    code, err = outcome(argv, capsys)
    assert code in EXIT_RANGE and "Traceback" not in err, (mutant, argv, code, err)
    return code


@pytest.mark.parametrize("name", BUNDLED)
def test_mutated_documents(tmp_path, capsys, name):
    doc, out = tmp_path / "doc.json", str(tmp_path / "out.json")
    path = str(doc)
    commands = [["classify"], ["classify", "--json"], ["verify"], ["probe", "--json"],
                ["witness"], ["witness", "--json"]]
    codes = set()
    for label, text in mutants(name):
        doc.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        for command in commands:
            codes.add(assert_clean([*command, path], capsys, label))
        codes.add(assert_clean(["compose", path, path, "-o", out], capsys, label))
    assert 2 in codes  # the mutants reach the parser's refusals


@pytest.fixture()
def documents(tmp_path):
    paths = {}
    for name in BUNDLED:
        paths[name] = str(tmp_path / f"{name}.json")
        write_document(paths[name], bundled_document(name))
    return paths


@pytest.mark.parametrize("eps", ["abc", "", "nan", "inf", "-1", "0", "-0", "1e999", "1e-400",
                                 "5e-324", "0.5", "1e300"])
def test_eps_values(documents, tmp_path, capsys, eps):
    for path in documents.values():
        for command in (["classify", path], ["verify", path], ["probe", path], ["witness", path],
                        ["compose", path, path, "-o", str(tmp_path / "out.json")]):
            assert_clean([*command, "--eps", eps], capsys)


@pytest.mark.parametrize("qmax", ["abc", "", "0", "-1", "1", "2", "200", "1e3", "2.5", "0x10"])
def test_qmax_values(documents, capsys, qmax):
    for path in documents.values():
        assert_clean(["witness", path, "--qmax", qmax], capsys)
        assert_clean(["witness", path, "--qmax", qmax, "--eps", "1e-3"], capsys)


@pytest.mark.parametrize("vector", ["", ",", "1,,2", "abc", "1e999,1", "nan,1", "inf,-inf",
                                    "1+2i,3", "1,2,3", "1", "0,0", "1e308,1e308", "5e-324,0",
                                    "1j,1j", "(1+1j),1", " 1 , 2 ", "1e200,-1e200"])
def test_vector_values(documents, capsys, vector):
    for path in documents.values():
        assert_clean(["probe", path, "--vector", vector], capsys)
        assert_clean(["probe", "--json", path, "--vector", vector, "--eps", "1e300"], capsys)


@pytest.mark.parametrize("option, values", [
    ("--atoms", ["0", "-1", "1", "2", "21", "2.5", "1e2", "abc", ""]),
    ("--seed", ["-1", "0", str(2**64), str(2**128 - 1), str(2**128), "abc"]),
])
def test_gen_values(tmp_path, capsys, option, values):
    out = str(tmp_path / "gen.json")
    for kind in KINDS:
        for value in values:
            spec = {"--atoms": "3", "--seed": "1", option: value}
            argv = ["gen", "--kind", kind, "-o", out, *(x for kv in spec.items() for x in kv)]
            assert_clean(argv, capsys)


@pytest.mark.parametrize("scale", [1e-300, 1e20, 1e100, 1e200])
def test_valid_documents_with_extreme_entries(tmp_path, capsys, scale):
    """Systems whose imaginary parts are tiny or dwarf their entry sum of 1.

    At ``--eps 0`` no slack hides them, so the witness search takes powers
    of moduli near 1e20 and beyond.
    """
    z = scale * 1j
    path, out = tmp_path / "x.json", str(tmp_path / "out.json")
    for rows in ([[0.5, z], [-z, 0.5]], [[0, z], [-z, 1]],
                 [[0.3, z, 0.1], [-z, 0.3, 0], [0.1, 0, 0.2]]):
        matrix = [[{"re": complex(x).real, "im": complex(x).imag} for x in row] for row in rows]
        atoms = [f"a{i}" for i in range(len(rows))]
        path.write_text(json.dumps({"name": "x", "atoms": atoms, "matrix": matrix}))
        for eps in ("0", "1e-9"):
            for command in (["classify"], ["verify"], ["probe"], ["witness"], ["witness", "--json"]):
                assert_clean([*command, str(path), "--eps", eps], capsys)
            assert_clean(["compose", str(path), str(path), "-o", out, "--eps", eps], capsys)


@pytest.mark.parametrize("output", ["missing-dir/x.json", ".", "/dev/full"])
def test_unwritable_outputs(documents, tmp_path, capsys, output):
    """An output that cannot be opened or written is one error line and exit 2."""
    if output.startswith("/dev/") and not os.path.exists(output):
        pytest.skip(f"{output} is not a device here")
    out = output if output.startswith("/") else str(tmp_path / output)
    try:  # the message of a write in place
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("{}")
    except OSError as exc:
        want = f"error: cannot write {out}: {exc}\n"
    path = documents["weak_only"]
    files = sorted(os.listdir(tmp_path))
    for argv in (["compose", path, path, "-o", out],
                 ["gen", "--kind", "strong", "--atoms", "2", "--seed", "3", "-o", out]):
        code, err = outcome(argv, capsys)
        assert (code, err) == (2, want)
    assert sorted(os.listdir(tmp_path)) == files  # no temporary file is left
