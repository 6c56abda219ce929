import hashlib

import numpy as np
import pytest

from qmt import GenSpec, classify, generate, is_positive_entry, is_strongly_positive
from qmt import gen
from qmt.algebra import ENUMERATION_LIMIT
from qmt.errors import SearchExhaustedError
from qmt.gen import KINDS


class TestGenSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            GenSpec("magic", 2, 0)

    def test_rejects_bad_atom_counts(self):
        with pytest.raises(ValueError):
            GenSpec("strong", 0, 0)
        with pytest.raises(ValueError):
            GenSpec("weak_not_strong_not_posentry", 1, 0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_spec_same_matrix(self, kind):
        n = 2 if kind == "weak_not_strong_not_posentry" else 3
        a = generate(GenSpec(kind, n, 12345))
        b = generate(GenSpec(kind, n, 12345))
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self):
        a = generate(GenSpec("strong", 3, 1))
        b = generate(GenSpec("strong", 3, 2))
        assert not np.allclose(a.matrix, b.matrix)

    def test_metadata_records_the_draw(self):
        s = generate(GenSpec("posentry", 2, 9))
        assert s.metadata["generator"] == "posentry"
        assert s.metadata["seed"] == 9
        assert s.metadata["rng"] == "philox4x64"


class TestClassCertification:
    # ~500 draws per kind, spread over the small atom counts
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("atoms", [2, 3, 4])
    def test_certified_membership(self, kind, atoms):
        for seed in range(167):
            s = generate(GenSpec(kind, atoms, seed))
            c = classify(s)
            if kind == "strong":
                assert c.strongly_positive
            elif kind == "posentry":
                assert c.positive_entry
            elif kind == "classical":
                assert c.classical
            elif kind == "weak_not_strong_not_posentry":
                assert c.weakly_positive
                assert not c.strongly_positive
                assert not c.positive_entry
            # hermitian_only: constructor enforced the quasi-system axioms


# sha256 of the generated matrix's bytes (first 16 hex digits), recorded
# before the certificates stopped going through ``classify``: the same draws
# must be accepted.  Recorded on x86_64 with numpy 2.4 and its OpenBLAS; the
# strong kind's Gram product is a BLAS call, which another BLAS may round
# differently.
PINNED_DIGESTS = {
    ("strong", 4, 0): "f374ed0e4a08e01a",
    ("strong", 20, 5): "b3b11386fc2a45d7",
    ("posentry", 4, 0): "43d30b9f3622b8c2",
    ("posentry", 20, 5): "72e0c73c3710e9df",
    ("classical", 4, 5): "9f128a7086e5f770",
    ("classical", 20, 0): "2fc2026f2d8c89ad",
    ("weak_not_strong_not_posentry", 4, 0): "4fead069643c0760",
    ("weak_not_strong_not_posentry", 4, 5): "000c4c5bf1dd9372",
    ("weak_not_strong_not_posentry", 20, 0): "b4479cf60b14eb4d",
    ("weak_not_strong_not_posentry", 20, 5): "fb024dce13a0291f",
    ("hermitian_only", 4, 5): "0ff70caa25051381",
    ("hermitian_only", 20, 0): "143f2c95e6fe1d1c",
}


class TestCertificates:
    @pytest.mark.parametrize("key", list(PINNED_DIGESTS), ids=lambda k: "-".join(map(str, k)))
    def test_pinned_digests(self, key):
        m = generate(GenSpec(*key)).matrix
        assert hashlib.sha256(m.tobytes()).hexdigest()[:16] == PINNED_DIGESTS[key]

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_draws_as_certifying_by_classify(self, kind, monkeypatch):
        """Certifying by classify's full result, as before, accepts the same draws."""

        def by_classify(system, kind, tol):
            if kind == "hermitian_only":
                return True
            c = classify(system, tol)
            return {
                "strong": c.strongly_positive,
                "posentry": c.positive_entry,
                "classical": c.classical,
            }.get(kind, c.weakly_positive and not c.strongly_positive and not c.positive_entry)

        specs = [GenSpec(kind, atoms, seed) for atoms in (2, 3, 7, 12) for seed in range(8)]
        now = [generate(spec).matrix for spec in specs]
        monkeypatch.setattr(gen, "_certified", by_classify)
        for spec, m in zip(specs, now):
            assert np.array_equal(generate(spec).matrix, m), spec

    def test_gives_up_after_max_retries(self, monkeypatch):
        draws = []
        monkeypatch.setattr(gen, "_certified", lambda system, kind, tol: draws.append(1) and False)
        with pytest.raises(SearchExhaustedError,
                           match="could not generate a certified 'strong' system in 1000 tries"):
            generate(GenSpec("strong", 2, 1))
        assert len(draws) == gen.MAX_RETRIES == 1000

    def test_weak_only_above_the_enumeration_limit(self):
        s = generate(GenSpec("weak_not_strong_not_posentry", ENUMERATION_LIMIT + 1, 1))
        assert np.all(s.matrix.real >= 0)
        assert not is_strongly_positive(s).ok and not is_positive_entry(s).ok
