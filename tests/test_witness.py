import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qmt import (
    Event,
    GenSpec,
    QuantumSystem,
    Tolerance,
    build_witness,
    classify,
    compose,
    cos_sign_pair,
    det_identity_residual,
    eval_D,
    find_negative_det_subset,
    find_phase_pair,
    generate,
    perm_sums,
    quantal_measure,
    self_compose,
    tensor_closed_probe,
)
from qmt import witness
from qmt.compose import _kron_form
from qmt.documents import bundled_document
from qmt.errors import (
    AxiomViolationError,
    PreconditionError,
    QCapError,
    QmtError,
    SearchExhaustedError,
)
from qmt.functional import DEFAULT_TOL
from qmt.witness import (
    CROSS_CHECK_CELLS,
    CROSS_CHECK_LIMIT,
    DEFAULT_Q_CAP,
    DOUBLE_SUM_CELLS,
    ORACLE_PAIR_CAP,
    SUBSET_SEARCH_LIMIT,
    VALUE_FLOOR,
    PermSums,
    PhasePair,
    _component_ids,
    _double_sum,
    _exponent_rows,
    _kronecker_value,
    _neg_det_candidates,
    _pair_candidates,
    _perm_block_sums,
    _permutations_by_parity,
    _search_case_b,
    polar,
)

from conftest import (
    gen_posentry_not_strong,
    gen_strong_not_posentry,
    negative_minor_past_the_cap,
    oracle_double_sum,
    oracle_neg_det_candidates,
    oracle_search_case_b,
    oracle_slot_double_sum,
    random_hermitian_system,
)

WEAK = "weak_not_strong_not_posentry"


def component_atoms(w):
    """The components' atom indices."""
    return np.array(w.atoms)[w.component_rows(w.component_count)]


def random_hermitian(rng, m):
    c = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (c + c.conj().T) / 2.0


class TestPolar:
    def test_snapping(self):
        tiny = polar(1e-12, eps=1e-9)
        assert (tiny.r, tiny.theta) == (0.0, 0.0)
        assert polar(0.5 + 1e-12j, eps=1e-9).theta == 0.0
        assert polar(-0.5 + 1e-12j, eps=1e-9).theta == math.pi
        assert polar(0.5j, eps=1e-9).theta == pytest.approx(math.pi / 2)


class TestPermSums:
    def test_reference_n_matrix(self, n_system):
        sums = perm_sums(n_system.matrix)
        assert sums.ee == pytest.approx(0.0)
        assert sums.eo == pytest.approx(0.16)

    def test_identity_order_two(self):
        sums = perm_sums(np.eye(2))
        assert (sums.ee, sums.eo) == (1.0, 0.0)

    def test_weak_only_matrix(self, weak_only_system):
        sums = perm_sums(weak_only_system.matrix)
        assert sums.ee == pytest.approx(0.24)
        assert sums.eo == pytest.approx(0.25)

    def test_order_guards(self):
        with pytest.raises(ValueError):
            perm_sums(np.eye(1))
        with pytest.raises(ValueError):
            perm_sums(np.eye(7))

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_non_square_input(self, shape):
        for check in (perm_sums, det_identity_residual):
            with pytest.raises(ValueError, match=r"matrix must be square, got shape"):
                check(np.full(shape, 0.5))

    def test_sums_real_for_hermitian(self):
        rng = np.random.default_rng(41)
        for m in (2, 3, 4, 5):
            for _ in range(20):
                ee, eo, oe, oo = _perm_block_sums(random_hermitian(rng, m), "ee", "eo", "oe", "oo")
                assert abs(ee.imag) < 1e-12 * max(1, abs(ee))
                assert abs(eo.imag) < 1e-12 * max(1, abs(eo))
                # parity identities: odd-odd equals even-even, odd-even the mirror
                assert oo == pytest.approx(ee)
                assert oe == pytest.approx(np.conj(eo))


class TestDetIdentity:
    def test_order_two_is_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert det_identity_residual(m) < 1e-12

    def test_weak_only_example(self, weak_only_system):
        # 2 * (-0.01) - 2 * 0.24 + 2 * 0.25 = 0
        assert det_identity_residual(weak_only_system.matrix) < 1e-15

    def test_random_hermitian_order_four(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            assert det_identity_residual(random_hermitian(rng, 4)) < 1e-10

    def test_holds_for_arbitrary_complex_matrices(self):
        rng = np.random.default_rng(44)
        for m in (2, 3, 4, 5):
            for _ in range(20):
                a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                assert det_identity_residual(a) < 1e-10

    def test_ee_below_eo_when_det_negative(self):
        rng = np.random.default_rng(45)
        found = 0
        for _ in range(200):
            h = random_hermitian(rng, 3)
            if np.linalg.det(h).real < -1e-9:
                sums = perm_sums(h)
                assert sums.ee < sums.eo
                found += 1
        assert found > 20


class TestCosSignPair:
    def test_right_angle(self):
        assert cos_sign_pair(math.pi / 2) == (2, 1)

    def test_half_turn(self):
        assert cos_sign_pair(math.pi) == (1, 2)

    def test_small_angle(self):
        n, m = cos_sign_pair(0.01)
        assert (n, m) == (158, 1)
        assert math.cos(158 * 0.01) < 0

    def test_negative_angles(self):
        n, m = cos_sign_pair(-2.5)
        assert math.cos(n * -2.5) < 0 and math.cos(m * -2.5) >= 0

    def test_contract_on_random_angles(self):
        rng = np.random.default_rng(46)
        for theta in rng.uniform(-math.pi, math.pi, size=1000):
            if theta == 0.0:
                continue
            n, m = cos_sign_pair(float(theta))
            assert math.cos(n * theta) < 0
            assert math.cos(m * theta) >= 0

    def test_rejects_zero_and_out_of_range(self):
        with pytest.raises(ValueError):
            cos_sign_pair(0.0)
        with pytest.raises(ValueError):
            cos_sign_pair(4.0)


class TestFindPhasePair:
    def test_weak_only(self, weak_only_system):
        pair = find_phase_pair(weak_only_system)
        assert (pair.first, pair.second) == (0, 1)
        assert all(type(atom) is int for atom in pair[:2])
        assert pair.theta == pytest.approx(math.pi / 2)
        assert pair.modulus == pytest.approx(0.5)

    def test_negative_real_entry(self, m_system):
        pair = find_phase_pair(m_system)
        assert pair.theta == pytest.approx(math.pi)
        assert pair.modulus == pytest.approx(1.0)

    def test_positive_entry_system_has_none(self, n_system):
        with pytest.raises(SearchExhaustedError):
            find_phase_pair(n_system)

    def test_pair_events_disjoint(self):
        for seed in range(20):
            s = generate(GenSpec("weak_not_strong_not_posentry", 3, seed))
            pair = find_phase_pair(s)
            assert pair.first != pair.second
            assert pair.modulus > 0 and pair.theta != 0

    @pytest.mark.parametrize("atoms", [2, 3])
    def test_mismatched_tolerance_system_has_no_witness(self, atoms):
        # Built at a loose tolerance with a 1e-6 imaginary diagonal, then
        # searched at the default one: not positive-entry, yet no atomic
        # entry carries a phase.  In the 3-atom system two off-diagonal
        # imaginary parts, each within tolerance, sum to a phase on the
        # non-atomic pair ({0}, {1, 2}); no witness may be built from it.
        if atoms == 2:
            m = np.array([[0.2 + 1e-6j, 0.4], [0.4, 0.0]])
        else:
            m = np.array([[0.2, 0.4, 0.1], [0.4, 0.0, 0.1], [0.1, 0.1, 0.6]]) / 2.0
            m = m + 1j * np.array([[1e-6, 1e-9, 1e-9], [-1e-9, 0, 0], [-1e-9, 0, 0]])
        s = QuantumSystem(m, tol=Tolerance(1e-5, 1e-5))
        with pytest.raises(SearchExhaustedError):
            find_phase_pair(s)
        with pytest.raises(SearchExhaustedError):
            build_witness(s)


class TestFindNegativeDetSubset:
    def test_reference_n(self, n_system):
        neg = find_negative_det_subset(n_system)
        assert neg.atoms == (0, 1)
        assert neg.det == pytest.approx(-0.16)

    def test_weak_only(self, weak_only_system):
        neg = find_negative_det_subset(weak_only_system)
        assert neg.atoms == (0, 1)
        assert neg.det == pytest.approx(-0.01)

    def test_psd_input_exhausts(self, m_system):
        with pytest.raises(SearchExhaustedError, match="the system is PSD or borderline"):
            find_negative_det_subset(m_system)

    def test_a_negative_minor_past_the_cap_is_not_called_psd(self):
        s = negative_minor_past_the_cap(7)
        c = classify(s)
        assert c.weakly_positive and not c.strongly_positive and not c.positive_entry
        assert c.min_eigenvalue == pytest.approx(-1.362e-2, abs=1e-5)
        with pytest.raises(SearchExhaustedError) as info:
            build_witness(s)
        message = str(info.value)
        assert "no principal submatrix of at most 6 atoms" in message
        assert "a negative minor, if there is one, has more than 6 atoms" in message
        assert "PSD or borderline" not in message

    def test_smallest_subset_preferred(self):
        # non-PSD only through a 2x2 block sitting in a 3-atom system
        m = np.array(
            [
                [0.2, 0.4, 0.0],
                [0.4, 0.0, 0.0],
                [0.0, 0.0, 0.8],
            ]
        )
        neg = find_negative_det_subset(QuantumSystem(m / m.sum()))
        assert neg.atoms == (0, 1)


class TestNegDetScan:
    """The chunked, stacked-det subset scan against the per-subset oracle."""

    @staticmethod
    def scanned(scan, s, tol, limit):
        """Each candidate's atoms, det bits and submatrix bytes, then the error text if any."""
        out = []
        try:
            for neg in scan(s, tol, limit):
                assert not neg.submatrix.flags.writeable
                out.append((neg.atoms, neg.det.hex(), neg.submatrix.tobytes()))
        except SearchExhaustedError as exc:
            out.append(str(exc))
        return out

    @staticmethod
    def near_the_slack():
        """4-atom systems whose minor on atoms 0 and 1 has det -c times its slack, about 1.5e-9."""
        systems = []
        for c in (0.3, 0.9, 1.1, 3.0):
            x = math.sqrt(0.0625 + c * 1.5e-9)
            m = np.diag([0.25, 0.25, 0.25 - x, 0.25 - x]).astype(complex)
            m[0, 1] = m[1, 0] = x
            systems.append(QuantumSystem(m))
        return systems

    def test_scan_matches_the_oracle(self, monkeypatch):
        rng = np.random.default_rng(27)
        systems = [random_hermitian_system(rng, n) for n in range(2, 11) for _ in range(4)]
        systems += self.near_the_slack()
        found = 0
        for s in systems:
            for tol in (DEFAULT_TOL, Tolerance(0.0, 0.0)):
                for limit in (1, SUBSET_SEARCH_LIMIT, math.inf):
                    want = self.scanned(oracle_neg_det_candidates, s, tol, limit)
                    found += len(want)
                    for chunk in (1, 3, witness.SUBSET_CHUNK):
                        monkeypatch.setattr(witness, "SUBSET_CHUNK", chunk)
                        got = self.scanned(_neg_det_candidates, s, tol, limit)
                        assert got == want, (s.n, tol, limit, chunk)
                    monkeypatch.undo()
        assert found > 3000

    @pytest.mark.parametrize("n", [7, 8, 12, 20])
    def test_scan_past_the_cap_matches_the_oracle(self, monkeypatch, n):
        s = negative_minor_past_the_cap(n)
        want = self.scanned(oracle_neg_det_candidates, s, DEFAULT_TOL, SUBSET_SEARCH_LIMIT)
        assert len(want) == 1 and "more than 6 atoms" in want[0]
        for chunk in (1, 3, witness.SUBSET_CHUNK)[n == 20:]:  # 60,439 one-subset chunks is slow
            monkeypatch.setattr(witness, "SUBSET_CHUNK", chunk)
            assert self.scanned(_neg_det_candidates, s, DEFAULT_TOL, SUBSET_SEARCH_LIMIT) == want

    def test_witnesses_are_unchanged_with_the_oracle_scan(self, monkeypatch):
        # The 200 acceptance systems, then the 6- and 8-atom systems that the
        # benchmark's witness-batch workload picks for its seeds 1, 2, 3 and 7.
        systems = [generate(GenSpec(WEAK, a, i)) for i in range(100) for a in (2, 3)]
        systems += [generate(GenSpec(WEAK, a, seed * 10**6 + a * 10**4 + i))
                    for seed in (1, 2, 3, 7) for a, i in ((6, 0), (6, 1), (6, 2), (8, 0))]
        got = [repr(build_witness(s)) for s in systems]
        monkeypatch.setattr(witness, "_neg_det_candidates", oracle_neg_det_candidates)
        assert got == [repr(build_witness(s)) for s in systems]

    def test_memory_of_the_20_atom_scan_is_bounded_by_its_chunks(self):
        # Unchunked, the 38,760 six-atom submatrices alone would take 22 MB.
        s = negative_minor_past_the_cap(20)
        tracemalloc.start()
        try:
            with pytest.raises(SearchExhaustedError, match="more than 6 atoms"):
                list(_neg_det_candidates(s, DEFAULT_TOL, SUBSET_SEARCH_LIMIT))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 38760 * 36 * 16 / 4, peak

    def test_a_negative_pair_takes_no_larger_determinant(self, monkeypatch):
        # Atoms 4 and 5 carry the N matrix's negative 2 x 2 minor.
        m = np.diag([0.2, 0.1, 0.2, 0.1, 0.2, 0.0]).astype(complex)
        m[4, 5] = m[5, 4] = 0.1
        s, shapes, real_det = QuantumSystem(m), [], np.linalg.det

        def det(a):
            shapes.append(a.shape)
            return real_det(a)

        monkeypatch.setattr(np.linalg, "det", det)
        neg = find_negative_det_subset(s)
        assert neg.atoms == (4, 5)
        assert shapes == [(15, 2, 2)]


class TestBuildWitness:
    def test_case_b_iii_reference(self, weak_only_system):
        w = build_witness(weak_only_system)
        assert w.case == "b_iii"
        assert (w.p, w.q, w.k) == (2, 18, 38)
        assert w.x_p == pytest.approx(0.52)
        assert w.y_p == pytest.approx(0.5)
        assert w.ee == pytest.approx(0.24)
        assert w.eo == pytest.approx(0.25)
        expected = 0.52 * 0.24**18 - 0.5 * 0.25**18
        assert w.predicted_value == pytest.approx(expected, rel=1e-12)
        assert w.verified_value < 0
        assert w.component_count == 2
        assert not w.cross_checked  # 2**38 atoms is far beyond materialization

    def test_case_a_synthetic(self):
        s = QuantumSystem([[0.0, 0.1j, 0.0], [-0.1j, 0.0, 0.0], [0.0, 0.0, 1.0]])
        w = build_witness(s)
        assert w.case == "a"
        assert w.k == 2
        assert w.predicted_value == pytest.approx(-0.02)
        assert w.verified_value == pytest.approx(-0.02)
        assert w.cross_checked
        assert w.cross_check_value == pytest.approx(-0.02)
        assert component_atoms(w).tolist() == [[0, 0], [1, 1]]

    @pytest.mark.parametrize("case, matrix, atom", [
        ("a", [[0.0, 0.1j, 0.0], [-0.1j, 0.0, 0.0], [0.0, 0.0, 1.0]], 0),
        ("a", [[0.0, 0.1j, 0.0], [-0.1j, 0.0, 0.0], [0.0, 0.0, 1.0]], 2),
        ("b_iii", [[0.6, 0.5j], [-0.5j, 0.4]], 0),
    ])
    def test_imaginary_atom_measure_past_the_build_tolerance(self, case, matrix, atom):
        # Built at a loose tolerance with Im M_ii = 1e-6, then witnessed at
        # the default one: the atom measures are read from the diagonal,
        # every entry of which must be real within the build's slack, also
        # off the phase pair (atom 2 of the case-(a) system).
        m = np.array(matrix, dtype=complex)
        assert build_witness(QuantumSystem(m)).case == case
        m[atom, atom] += 1e-6j
        s = QuantumSystem(m, tol=Tolerance(1e-5, 1e-5))
        with pytest.raises(AxiomViolationError, match=f"measure of atom {atom} has imaginary"):
            build_witness(s)

    def test_case_b_ii_negative_even_sum(self):
        # all 2x2 principal minors non-negative, 3x3 determinant negative,
        # and the even-even sum itself negative: the mixed subcase with q=1
        h = np.array(
            [
                [0.192622 + 0.0j, 0.022162 - 0.155715j, 0.068953 + 0.104516j],
                [0.022162 + 0.155715j, 0.140971 + 0.0j, 0.135772 - 0.101555j],
                [0.068953 - 0.104516j, 0.135772 + 0.101555j, 0.212633 + 0.0j],
            ]
        )
        s = QuantumSystem(h / h.sum().real)
        w = build_witness(s)
        assert w.case == "b_ii"
        assert w.q == 1
        assert w.ee < 0 < w.eo
        assert w.neg_det_atoms == (0, 1, 2)
        assert w.verified_value < 0
        assert w.cross_checked

    def test_case_b_ii_zero_diagonal_subset(self):
        # two atoms with zero measure and a phased 3-cycle: the chosen 2x2
        # subset has ee = 0 exactly, landing in the same subcase
        z = 0.3 * np.exp(1.396j)
        delta = 0.02
        rest = (1 - delta - 4 * 0.3 * math.cos(1.396)) / 2
        m = np.array(
            [
                [delta, z, rest],
                [np.conj(z), 0.0, z],
                [rest, np.conj(z), 0.0],
            ]
        )
        w = build_witness(QuantumSystem(m))
        assert w.case == "b_ii"
        assert w.ee == 0.0 and w.eo == pytest.approx(0.09)
        assert w.q == 1
        assert w.verified_value < 0
        assert w.cross_checked

    def test_preconditions(self, m_system, n_system):
        with pytest.raises(PreconditionError, match="strongly positive"):
            build_witness(m_system)
        with pytest.raises(PreconditionError, match="positive entry"):
            build_witness(n_system)
        with pytest.raises(PreconditionError, match="not weakly"):
            build_witness(QuantumSystem([[-0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(PreconditionError, match="atoms"):
            build_witness(QuantumSystem([[1.0]]))

    def test_q_cap_reported(self, weak_only_system):
        with pytest.raises(QCapError):
            build_witness(weak_only_system, q_cap=1)

    @pytest.mark.parametrize("q_cap", [0, -1])
    def test_q_cap_below_one_is_rejected(self, q_cap):
        # a cap below 1 once returned a q = 1 plan (p 2, k 4) for this system
        with pytest.raises(ValueError, match="q_cap must be >= 1"):
            build_witness(generate(GenSpec(WEAK, 2, 0)), q_cap=q_cap)

    @pytest.mark.parametrize("atoms, seed, k, count", [(6, 8, 38, 2), (3, 46, 30, 39366)])
    def test_a_cross_check_limit_past_int64_is_rejected(self, atoms, seed, k, count):
        # At 10**40 the 6-atom seed-8 witness's 6**38 composed indices once
        # overflowed numpy's ravel_multi_index ("invalid dims"), and the seed-46
        # witness asked for a 39366**2 complex table, 23.1 GiB.  Below 2**63
        # both build: 6**38 is past the limit, and 39366**2 past the table's
        # cell budget, so neither is cross-checked.
        s = generate(GenSpec(WEAK, atoms, seed))
        for limit in (10**40, 2**63):
            with pytest.raises(ValueError, match="cross_check_limit must be < 2\\*\\*63"):
                build_witness(s, cross_check_limit=limit)
        w = build_witness(s, cross_check_limit=2**63 - 1)
        assert (w.k, w.component_count, w.cross_checked) == (k, count, False)
        assert (atoms**k > 2**63 - 1) != (count**2 > CROSS_CHECK_CELLS)
        assert w.verified_value == build_witness(s).verified_value < 0

    @pytest.mark.parametrize("fault", ["ee_not_below_eo", "imaginary_residue"])
    def test_subsets_past_the_winner_keep_their_checks(self, monkeypatch, fault):
        # The 6-atom seed-8 plan, q = 16, comes from the first of 24
        # subsets, so both bounds of the plan search decide it: they skip
        # the exponent pass of the other 23, and each must still have its
        # permutation sums checked.
        s = generate(GenSpec(WEAK, 6, 8))
        subsets = list(_neg_det_candidates(s, DEFAULT_TOL, SUBSET_SEARCH_LIMIT))
        assert len(subsets) == SUBSET_SEARCH_LIMIT
        w = build_witness(s)
        assert w.neg_det_atoms == subsets[0].atoms
        assert (w.p, w.q, w.k, w.component_count, w.cross_checked) == (6, 16, 38, 2, False)
        last = subsets[-1].submatrix
        real_sums, real_blocks = witness.perm_sums, witness._perm_block_sums

        def is_last(matrix):
            return matrix.shape == last.shape and np.array_equal(matrix, last)

        def sums(matrix, tol=DEFAULT_TOL):
            got = real_sums(matrix, tol)
            return PermSums(got.eo, got.eo, got.order) if is_last(matrix) else got

        def blocks(matrix, *names):
            got = real_blocks(matrix, *names)
            assert names[0] == "ee"
            return (got[0] + 1j, *got[1:]) if is_last(matrix) else got

        if fault == "ee_not_below_eo":
            monkeypatch.setattr(witness, "perm_sums", sums)
            with pytest.raises(QmtError, match="permutation sums are inconsistent"):
                build_witness(s)
        else:
            monkeypatch.setattr(witness, "_perm_block_sums", blocks)
            with pytest.raises(AxiomViolationError, match="imaginary residues"):
                build_witness(s)

    def test_values_past_the_double_range(self):
        # With no slack the 1e20 entries are a phase pair with diagonals
        # 0.5.  The search reads rows only until p = 2 wins, so no row
        # takes 1e20**p past 1e308 and numpy warns of no overflow.
        exact = Tolerance(0.0, 0.0)
        s = QuantumSystem([[0.5, 1e20j], [-1e20j, 0.5]], tol=exact)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = build_witness(s, exact, cross_check_limit=0)
        assert (w.case, w.p, w.q, w.k, w.component_count) == ("b_iii", 2, 1, 4, 2)
        assert w.predicted_value == pytest.approx(-2e80, rel=1e-15)

    @pytest.mark.parametrize("q_cap", [1, 3, 64])
    def test_values_that_overflow_are_refused(self, q_cap):
        # The 1e100 entries' first negative-cosine row, p = 2, predicts
        # 0.125 - 2e200 * 1e200, which is -inf in doubles, at any cap.
        exact = Tolerance(0.0, 0.0)
        s = QuantumSystem([[0.5, 1e100j], [-1e100j, 0.5]], tol=exact)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SearchExhaustedError, match="overflow double precision"):
                build_witness(s, exact, q_cap=q_cap, cross_check_limit=0)
            with pytest.raises(OverflowError, match="predicted value -inf of p=2, q=1"):
                _search_case_b(s, exact, _pair_candidates(s, exact.scaled(s.matrix)), q_cap)

    def test_a_verified_value_that_overflows_is_refused(self, monkeypatch):
        # A plan that predicts a finite value, but whose component products
        # (four entries of 1e100) overflow in the verifying double sum.
        exact = Tolerance(0.0, 0.0)
        s = QuantumSystem([[0.5, 1e100j], [-1e100j, 0.5]], tol=exact)
        pair = _pair_candidates(s, exact.scaled(s.matrix))[0]
        plan = dict(case="b_iii", phase_pair=pair, neg_det_atoms=(0, 1),
                    ee=0.25, eo=1e200, p=2, q=1, k=4, x_p=0.5, y_p=2e200, component_count=2,
                    predicted_value=-1.0)
        monkeypatch.setattr(witness, "_search_case_b", lambda *args: ((0, 1, 0, 1), plan))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SearchExhaustedError, match="overflow double precision"):
                build_witness(s, exact, cross_check_limit=0)

    @staticmethod
    def traced(run):
        """run()'s result, or the QmtError it raised, and the peak of traced memory."""
        tracemalloc.start()
        try:
            try:
                out = run()
            except QmtError as exc:
                out = exc
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_large_q_cap_costs_only_the_rows_read(self):
        # Eagerly built, the exponent rows of q_cap = 10**6 took 237 MB; the
        # search reads only the rows that can still win.
        s = bundled_document("weak_only").to_system()
        for q_cap in (DEFAULT_Q_CAP, 10**6):
            w, peak = self.traced(lambda: build_witness(s, q_cap=q_cap))
            assert (w.p, w.q, w.k) == (2, 18, 38)
            assert peak < 2**20, q_cap

    @pytest.mark.parametrize("t, ratio, theta", [
        (0.6672677963781503, "0.999144602", "4.140e-01"),
        (0.6681562649172753, "0.999991445", "4.130e-01"),
    ])
    def test_a_large_q_cap_leaves_no_witness_near_the_boundary_cheaply(self, t, ratio, theta):
        # The 2-atom seed-0 system blended toward the uniform J/4, to
        # lambda_min = -1e-4 and -1e-6: each plan's value falls below
        # VALUE_FLOOR before its q is reached, so no cap gives a witness.
        # The floor cut-offs end the search whatever the cap.
        d = generate(GenSpec(WEAK, 2, 0)).matrix
        s = QuantumSystem((1 - t) * d + t * np.full((2, 2), 0.25))
        exc, peak = self.traced(lambda: build_witness(s, q_cap=10**6))
        assert isinstance(exc, QCapError)
        assert str(exc) == (
            f"no witness within q <= 1000000: even-even/even-odd ratio up to {ratio} and "
            f"phase magnitude at most {theta} leave no feasible exponents; raise --qmax"
        )
        assert peak < 2**20

    def test_shallow_case_a_falls_through_to_case_b(self):
        # Zero diagonals select case (a), but at theta = 1e-3 its value
        # 2 r**k cos(k theta), k = 1571, underflows; case (b) then reports.
        z = 0.1 * np.exp(1e-3j)
        s = QuantumSystem([[0.0, z, 0.0], [z.conjugate(), 0.0, 0.0], [0.0, 0.0, 1 - 2 * z.real]])
        with pytest.raises(QCapError, match="no witness within q"):
            build_witness(s)

    def test_components_are_distinct_product_events(self):
        for seed in (0, 1, 2, 3):
            s = generate(GenSpec("weak_not_strong_not_posentry", 3, seed))
            w = build_witness(s)
            rows = w.component_rows(w.component_count)
            assert rows.shape == (w.component_count, w.k)
            assert len(np.unique(rows, axis=0)) == w.component_count

    def test_a_repeated_permutation_row_is_caught(self, monkeypatch):
        # The components are distinct exactly when each parity table's rows
        # are; a table with a repeated row must stop the construction.  Only
        # the witness module's table source is replaced, and its cache is kept.
        def repeating(m):
            return witness._parity_tables([*itertools.permutations(range(m)), tuple(range(m))])

        monkeypatch.setattr(witness, "_permutations_by_parity", repeating)
        with pytest.raises(QmtError, match="not pairwise distinct"):
            build_witness(generate(GenSpec(WEAK, 3, 0)))

    def test_unread_components_are_not_built(self, monkeypatch):
        # Seed 46: 39366 components, past the literal sum and too large to
        # cross-check, so no row is built until component_rows asks for some.
        calls = []
        real = witness._component_ids

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(witness, "_component_ids", counted)
        w = build_witness(generate(GenSpec(WEAK, 3, 46)))
        assert (w.component_count, w.cross_checked, calls) == (39366, False, [])
        assert w.component_rows(16).shape == (16, 30) and calls == [(3, 9, 3, 16)]
        assert len(w.component_rows(10**6)) == 39366 and calls[-1] == (3, 9, 3, 39366)

    def test_first_rows_of_a_witness_past_the_cross_check_budget(self):
        # Seed 62: 1062882 components of 43 slots, past the cross-check's
        # cell budget; its first rows are the first rows of the product
        # order all the same.
        w = build_witness(generate(GenSpec(WEAK, 3, 62)))
        assert (w.p, w.q, w.k, w.component_count) == (7, 12, 43, 1062882)
        assert w.component_count**2 > CROSS_CHECK_CELLS and not w.cross_checked
        even = _permutations_by_parity(3)[0].tolist()
        expected = [[0] * 7 + [2 + i for block in blocks for i in block]
                    for blocks in itertools.islice(itertools.product(even, repeat=12), 64)]
        rows = w.component_rows(64)
        assert rows.dtype == np.intp and not rows.flags.writeable
        assert rows.tolist() == expected

    def test_rows_of_an_astronomical_witness(self):
        # 2 * 3**300 components: the row index never meets a place value
        # that large, so the first rows are the even identity blocks and
        # then the last block's digits.
        ids = _component_ids(4, 300, 3, 4)
        assert ids.shape == (4, 904)
        assert (ids[:, :4] == 0).all() and (ids[:, 4:-6] == [2, 3, 4] * 298).all()
        assert ids[:, -6:].tolist() == [[2, 3, 4, 2, 3, 4], [2, 3, 4, 3, 4, 2],
                                        [2, 3, 4, 4, 2, 3], [3, 4, 2, 2, 3, 4]]

    def test_soundness_on_generated_systems(self):
        for n in (2, 3):
            for seed in range(15):
                s = generate(GenSpec("weak_not_strong_not_posentry", n, seed))
                w = build_witness(s)
                assert w.verified_value < 0
                tolerance = 1e-9 * max(1.0, abs(w.predicted_value))
                assert abs(w.predicted_value - w.verified_value) <= tolerance
                if w.cross_checked:
                    assert abs(w.cross_check_value - w.verified_value) <= 1e-9 * max(
                        1.0, abs(w.verified_value)
                    )
                assert w.predicted_value < -VALUE_FLOOR

    def test_witness_event_measure_matches_on_materialized_power(self):
        # re-evaluate the event on the Kronecker power through eval_D directly
        s = QuantumSystem([[0.0, 0.1j, 0.0], [-0.1j, 0.0, 0.0], [0.0, 0.0, 1.0]])
        w = build_witness(s)
        from qmt import self_compose

        power = self_compose(s, w.k)
        bits = 0
        for comp in component_atoms(w).tolist():
            idx = 0
            for atom in comp:
                idx = idx * s.n + atom
            bits |= 1 << idx
        e = Event(bits, s.n**w.k)
        assert eval_D(power, e, e).real == pytest.approx(w.verified_value, abs=1e-12)

    def test_kronecker_cross_check_matches_materialized_power(self):
        # every acceptance witness small enough to materialize: the blocked
        # mode-product value equals the measure on the explicit power
        checked = 0
        for atoms in (2, 3):
            for seed in range(100):
                s = generate(GenSpec("weak_not_strong_not_posentry", atoms, seed))
                w = build_witness(s)
                if s.n**w.k > 4096:
                    continue
                assert w.cross_checked, (atoms, seed)
                flat = []
                for comp in component_atoms(w).tolist():
                    idx = 0
                    for atom in comp:
                        idx = idx * s.n + atom
                    flat.append(idx)
                event = Event.from_indices(flat, s.n**w.k)
                reference = quantal_measure(self_compose(s, w.k), event)
                assert w.cross_check_value == pytest.approx(reference, rel=1e-12, abs=0.0)
                checked += 1
        assert checked == 171

    def test_cross_check_beyond_materialization(self):
        # 3**8 = 6561 composed atoms: past the 4096-atom materialization limit,
        # inside the Kronecker cross-check's
        s = generate(GenSpec("weak_not_strong_not_posentry", 3, 15))
        w = build_witness(s)
        assert 4096 < s.n**w.k == 3**8 <= CROSS_CHECK_LIMIT
        assert w.cross_checked
        assert w.cross_check_value == pytest.approx(w.verified_value, rel=1e-9)
        assert not build_witness(s, cross_check_limit=4096).cross_checked

    def test_kronecker_value_matches_mode_products_on_the_indicator(self):
        # Random supports, some rows repeated, against the dense indicator
        # contracted by k separate n x n mode products.
        rng = np.random.default_rng(7)
        cases = [(2, k) for k in (1, 2, 5, 7, 12)] + [(3, k) for k in (3, 4, 9)]
        cases += [(4, k) for k in (2, 3, 7)]
        for n, k in cases:
            s = random_hermitian_system(rng, n)
            for count in (1, 2, 7, 40):
                atoms = rng.integers(0, n, (count, k))
                if count > 1:
                    atoms[-1] = atoms[0]
                v = np.zeros(n**k)
                v[np.ravel_multi_index(tuple(atoms.T), (n,) * k)] = 1.0
                reference = _kron_form([s.matrix] * k, v, v)
                value = _kronecker_value(s, atoms, DEFAULT_TOL, float(np.linalg.norm(s.matrix)))
                assert abs(value - reference.real) <= 1e-13 * abs(reference), (n, k, count)

    def test_kronecker_value_memory_does_not_grow_with_the_composed_atoms(self):
        # Seed 22: k = 11, so 3**11 = 177147 composed atoms, of which the
        # event holds 2; one float per composed atom would take 1.4 MB.  The
        # cross-check runs on those 2 composed indices alone.  Its phase pair
        # is atoms 1 and 2, its negative-determinant subset atoms 0 and 1.
        s = generate(GenSpec(WEAK, 3, 22))
        w = build_witness(s)
        assert (w.k, w.component_count, w.cross_checked) == (11, 2, True)
        assert (w.phase_pair.first, w.phase_pair.second, w.neg_det_atoms) == (1, 2, (0, 1))
        assert w.cross_check_value < 0
        atoms = component_atoms(w)
        tracemalloc.start()
        try:
            value = _kronecker_value(s, atoms, DEFAULT_TOL, float(np.linalg.norm(s.matrix)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == w.cross_check_value
        assert peak < 3**11 * 8

    @pytest.mark.parametrize("p, q, m", [(1, 1, 2), (3, 2, 3), (2, 3, 3), (1, 2, 4),
                                         (2, 0, 3), (5, 0, 0), (1, 1, 6), (2, 2, 5)])
    def test_components_match_product_order(self, p, q, m):
        tables = _permutations_by_parity(m).tolist() if q else [[], []]
        expected = [
            [prefix_id] * p + [2 + i for perm in choice for i in perm]
            for prefix_id, perms in enumerate(tables)
            for choice in itertools.product(perms, repeat=q)
        ]
        # Every count up to 720 rows, then every 61st: each count's rows are
        # the first rows of the product order.
        counts = [*range(1, min(len(expected), 720) + 1), *range(721, len(expected), 61)]
        for count in [*counts, len(expected)]:
            ids = _component_ids(p, q, m, count)
            assert ids.dtype == np.intp and ids.shape == (count, p + q * m)
            assert not ids.flags.writeable
            assert ids.tolist() == expected[:count], count

    @pytest.mark.parametrize("atoms, seed, case", [(3, 93, "b_iii"), (None, None, "a")])
    def test_witness_components_are_the_id_rows(self, atoms, seed, case):
        s = (generate(GenSpec(WEAK, atoms, seed)) if atoms else
             QuantumSystem([[0.0, 0.1j, 0.0], [-0.1j, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        w = build_witness(s)
        assert w.case == case
        count = w.component_count
        ids = _component_ids(w.p or w.k, w.q or 0, len(w.atoms) - 2, count)
        assert np.array_equal(w.component_rows(count), ids)
        assert w.component_rows(count).shape == (count, w.k)
        assert np.array_equal(w.component_rows(count + 1), ids)
        assert np.array_equal(w.component_rows(1), ids[:1])

    def test_plans_pinned(self):
        # (case, pair atoms, neg_det_atoms, p, q, k, component_count) of each
        # chosen plan; the digests were recorded before the search was
        # restructured, so a change to which plan wins shows here.
        def digest(systems):
            plans = []
            for s in systems:
                w = build_witness(s, cross_check_limit=0)
                pair = (w.phase_pair.first, w.phase_pair.second)
                plans.append((w.case, pair, w.neg_det_atoms, w.p, w.q, w.k, w.component_count))
            return hashlib.sha256(repr(plans).encode()).hexdigest()

        weak = "weak_not_strong_not_posentry"
        acceptance = (generate(GenSpec(weak, a, i)) for i in range(100) for a in (2, 3))
        assert digest(acceptance) == (
            "9ec87115f68ca7403814090a16f3adfc6b5cad095d3bef405b3e2b8f10bfbfa6"
        )
        larger = (generate(GenSpec(weak, a, i)) for a in (4, 5, 6) for i in range(10))
        assert digest(larger) == (
            "852ee62a7e2540d23293fd6bdc8839b9a33aa10c69947b835767337d6cfbaa02"
        )


class TestArrayPaths:
    """The bounded plan search and the array double sum against their scalar-loop oracles."""

    SYSTEMS = [(a, i) for i in range(100) for a in (2, 3)] + [
        (a, i) for a in (4, 5, 6) for i in range(10)
    ]

    @staticmethod
    def search(search, s, q_cap, pairs=None):
        pairs = pairs or _pair_candidates(s, DEFAULT_TOL.scaled(s.matrix))
        try:
            return search(s, DEFAULT_TOL, pairs, q_cap)
        except QCapError as exc:
            return str(exc)

    @pytest.mark.parametrize("q_cap", [1, 2, 3, 8, 20, 64, 200])
    def test_plan_search_matches_the_loop(self, q_cap):
        for atoms, seed in self.SYSTEMS:
            s = generate(GenSpec(WEAK, atoms, seed))
            got = self.search(_search_case_b, s, q_cap)
            want = self.search(oracle_search_case_b, s, q_cap)
            assert got == want, (atoms, seed)
            if not isinstance(want, str):
                fields = ("x_p", "y_p", "predicted_value")
                assert [got[1][f].hex() for f in fields] == [want[1][f].hex() for f in fields]

    def test_plan_search_matches_the_loop_on_synthetic_pairs(self):
        # Random phases and moduli over the atoms of generated systems reach
        # plans the generated pairs do not, such as one of k = m + 1 that
        # beats an earlier subset's; half the pairs repeat an earlier pair's
        # modulus and opposite phase on other atoms, with other measures.
        for atoms in (3, 4):
            for seed in range(50):
                s = generate(GenSpec(WEAK, atoms, seed))
                rng = np.random.default_rng(seed)
                for _ in range(4):
                    pairs = []
                    for _ in range(6):
                        i, j = (int(a) for a in rng.choice(atoms, 2, replace=False))
                        theta = float(rng.uniform(-math.pi, math.pi))
                        r = float(rng.uniform(0.05, 0.5))
                        if pairs and rng.random() < 0.5:
                            earlier = pairs[int(rng.integers(len(pairs)))]
                            theta, r = -earlier.theta, earlier.modulus
                        pairs.append(PhasePair(i, j, theta, r))
                    for q_cap in (8, 64):
                        got = self.search(_search_case_b, s, q_cap, pairs)
                        assert got == self.search(oracle_search_case_b, s, q_cap, pairs), (
                            atoms, seed, q_cap)

    # The 2- and 3-atom systems of these seeds blended toward the uniform
    # J/n**2 with weight t, to lambda_min near -1e-3: their best plans' values,
    # where there is a plan, lie within 50 decades of VALUE_FLOOR, so the
    # floor cut-offs decide which rows are read.
    NEAR_THE_FLOOR = [(2, 0, 0.6568025546430967), (2, 0, 0.657654429464178),
                      (2, 1, 0.9940166595597448), (2, 1, 0.9948129469176195),
                      (3, 0, 0.9886146771953923), (3, 0, 0.9905113673639416),
                      (3, 5, 0.9637184475418534), (3, 5, 0.975801293334432)]

    @pytest.mark.parametrize("atoms, seed, t", NEAR_THE_FLOOR)
    def test_plan_search_matches_the_loop_near_the_value_floor(self, atoms, seed, t):
        d = generate(GenSpec(WEAK, atoms, seed)).matrix
        s = QuantumSystem((1 - t) * d + t * np.full((atoms, atoms), 1.0 / atoms**2))
        for q_cap in (64, 500):
            got = self.search(_search_case_b, s, q_cap)
            assert got == self.search(oracle_search_case_b, s, q_cap), q_cap
            assert isinstance(got, str) or abs(got[1]["predicted_value"]) < 1e-230

    def test_twin_pairs_have_equal_exponent_rows(self):
        # A pair (i, j) and its twin (j, i) have phases of opposite sign and
        # swapped atom measures; their generated rows, taken at |theta|, must
        # agree bit for bit with each other and with the signed-theta formula.
        def hexed(pair, raa, rbb, q_cap):
            return [[[float(v).hex() for v in row] for row in _exponent_rows(pair, raa, rbb, q_cap, sign)]
                    for sign in (False, True)]

        def hexed_rows(terms):
            return [[[float(v).hex() for v in row] for row in rows] for rows in terms]

        def signed_rows(pair, raa, rbb, q_cap):
            theta = pair.theta
            n_neg, p_nonneg = cos_sign_pair(theta)
            negative = [p for p in range(1, q_cap + 1) if math.cos(p * theta) < 0.0]
            negative += [] if n_neg in negative else [n_neg]
            return [[(p, raa**p + rbb**p, 2.0 * pair.modulus**p, math.cos(p * theta))
                     for p in ps] for ps in ([p_nonneg], negative)]

        twins = 0
        for atoms, seed in self.SYSTEMS:
            s = generate(GenSpec(WEAK, atoms, seed))
            by_atoms = {pr[:2]: pr for pr in _pair_candidates(s, DEFAULT_TOL.scaled(s.matrix))}
            for (i, j), pair in by_atoms.items():
                twin = by_atoms[j, i]
                assert twin.theta == -pair.theta and twin.modulus == pair.modulus
                raa, rbb = (max(0.0, quantal_measure(s, s.atom(a))) for a in (i, j))
                for q_cap in (8, 64, 200):
                    rows = hexed(pair, raa, rbb, q_cap)
                    assert rows == hexed(twin, rbb, raa, q_cap), (atoms, seed)
                    assert rows == hexed_rows(signed_rows(pair, raa, rbb, q_cap)), (atoms, seed)
                twins += 1
        assert twins > 460

    def test_double_sum_matches_the_row_loop(self):
        checked = 0
        for atoms, seed in self.SYSTEMS[:200]:
            s = generate(GenSpec(WEAK, atoms, seed))
            w = build_witness(s, cross_check_limit=0)
            if w.component_count > ORACLE_PAIR_CAP:
                continue
            values = s.matrix[np.ix_(w.atoms, w.atoms)]
            comps = w.component_rows(w.component_count)
            want = oracle_double_sum(values, comps)
            assert abs(_double_sum(values, comps) - want) <= 1e-14 * abs(want), (atoms, seed)
            checked += 1
        assert checked > 150

    # 3- and 4-atom seeds whose witnesses have 162, 486 or 1,458 components:
    # the largest literal double sums the generated systems reach.
    MID_SIZE = [(3, 42), (3, 118), (3, 179), (3, 267),
                (4, 136), (4, 156), (4, 196), (4, 330), (4, 345)]

    @staticmethod
    def hexed(z):
        return z.real.hex(), z.imag.hex()

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def literal_inputs(atoms, seed):
        """The value table and component rows of a seed's literal double sum, if it has one."""
        s = generate(GenSpec(WEAK, atoms, seed))
        w = build_witness(s, cross_check_limit=0)
        if w.component_count > ORACLE_PAIR_CAP:
            return None, None
        return s.matrix[np.ix_(w.atoms, w.atoms)], w.component_rows(w.component_count)

    def test_double_sum_matches_the_slot_kernel_bit_for_bit(self):
        checked = 0
        for atoms, seed in self.SYSTEMS[:200]:
            values, comps = self.literal_inputs(atoms, seed)
            if comps is None:
                continue
            want = self.hexed(oracle_slot_double_sum(values, comps))
            assert self.hexed(_double_sum(values, comps)) == want, (atoms, seed)
            checked += 1
        assert checked > 150

    @pytest.mark.parametrize("atoms, seed", MID_SIZE)
    def test_mid_size_double_sum_matches_the_slot_kernel_bit_for_bit(self, atoms, seed):
        # Their rows share long prefixes; in a random order the runs of
        # equal prefixes are short, and the sum must not change either way.
        values, comps = self.literal_inputs(atoms, seed)
        assert len(comps) in (162, 486, 1458)
        shuffled = comps[np.random.default_rng(seed).permutation(len(comps))]
        for rows in (comps, shuffled):
            want = self.hexed(oracle_slot_double_sum(values, rows))
            assert self.hexed(_double_sum(values, rows)) == want

    @pytest.mark.parametrize("n, k, size", [(1, 7, 3), (2, 60, 2), (2, 60, 5), (5, 1, 4),
                                            (64, 60, 2), (64, 60, 8), (300, 33, 5),
                                            (700, 9, 8), (2048, 8, 3)])
    def test_double_sum_matches_the_slot_kernel_on_synthetic_tables(self, n, k, size):
        # A random complex table, and rows with repeated prefixes: sorted, each
        # copying a random prefix of the row before (also shuffled), and drawn
        # from a third of the rows, so that some slots share one prefix among
        # all rows and no slot may make every prefix distinct.
        rng = np.random.default_rng([n, k, size])
        values = rng.uniform(0.5, 1.5, (size, size)) * np.exp(
            1j * rng.uniform(-math.pi, math.pi, (size, size)))
        rows = (rng.random((n, k)) * rng.integers(1, size + 1, k)).astype(np.intp)
        copied = rows.copy()
        for r in range(1, n):
            t = int(rng.integers(0, k + 1))
            copied[r, :t] = copied[r - 1, :t]
        repeated = rows[rng.integers(0, max(1, n // 3), n)]
        for comps in (rows[np.lexsort(rows.T[::-1])], copied, copied[rng.permutation(n)],
                      repeated):
            want = self.hexed(oracle_slot_double_sum(values, comps))
            assert self.hexed(_double_sum(values, comps)) == want

    def test_double_sum_memory_stays_within_its_block_budget(self):
        # Seed 118: 1,458 components of 21 slots, the largest literal double
        # sum a 3-atom plan can have (2 * 3**6 rows); 3**21 composed atoms
        # are past the cross-check's limit.  Its last shared prefixes
        # number 486, so a table over all their pairs would take 3.8 MB on
        # top of a block's products and factors; the pairs of all rows, 34 MB.
        # A block of at most DOUBLE_SUM_CELLS pairs is gathered from the block's
        # prefixes only, so three blocks of cells bound the whole sum.
        w = build_witness(generate(GenSpec(WEAK, 3, 118)))
        assert (w.p, w.q, w.k, w.component_count, w.cross_checked) == (3, 6, 21, 1458, False)
        assert w.verified_value < 0
        values, comps = self.literal_inputs(3, 118)
        assert comps.shape == (1458, 21)
        peak = self.traced_peak(lambda: _double_sum(values, comps))
        assert peak < 3 * DOUBLE_SUM_CELLS * values.itemsize

    def test_mid_size_build_peak_is_no_higher_than_the_slot_kernels(self, monkeypatch):
        # Seed 42's build is the largest transient allocation of a benchmark
        # pass over the acceptance systems; with the slot kernel it peaked at
        # 5.37 MB on numpy 2.4.
        s = generate(GenSpec(WEAK, 3, 42))
        assert build_witness(s).component_count == 486
        peak = self.traced_peak(lambda: build_witness(s))
        monkeypatch.setattr(witness, "_double_sum", oracle_slot_double_sum)
        assert peak <= self.traced_peak(lambda: build_witness(s))

    def test_large_component_tuple(self):
        w = build_witness(generate(GenSpec(WEAK, 3, 46)))
        comps = w.component_rows(w.component_count)
        assert comps.dtype == np.intp and comps.shape == (39366, 30)
        assert not comps.flags.writeable
        with pytest.raises(ValueError):
            comps[0, 0] = 1
        assert w.component_count == len(np.unique(comps, axis=0)) == 39366
        assert not w.cross_checked  # 3**30 composed atoms


class TestTensorClosedProbe:
    def test_posentry_with_strong(self, n_system, half_i_system):
        report = tensor_closed_probe(n_system, half_i_system)
        c = classify(compose(n_system, half_i_system))
        assert not c.strongly_positive
        assert not c.positive_entry
        assert report.padded_min_eigenvalue < 0
        # padded event matrix reproduces the first factor's atomic matrix
        assert np.allclose(report.padded_event_matrix, n_system.matrix, atol=1e-12)
        # padded entry reproduces the second factor's violating entry
        assert report.entry_value == pytest.approx(half_i_system.matrix[0, 1])

    def test_reference_pair_leaves_weak(self, n_system, m_system):
        tensor_closed_probe(n_system, m_system)
        c = classify(compose(n_system, m_system))
        assert not c.strongly_positive
        assert not c.positive_entry
        assert not c.weakly_positive
        assert c.weak_violation_value < 0

    def test_six_by_six_atoms(self):
        # 36 composed atoms: classifying the composition would need a weak
        # sweep past its 20-atom limit
        s1 = gen_posentry_not_strong(6, 3)
        s2 = gen_strong_not_posentry(6, 4)
        report = tensor_closed_probe(s1, s2)
        assert np.abs(report.padded_event_matrix - s1.matrix).max() <= 1e-12
        assert report.padded_min_eigenvalue < 0
        i, j = classify(s2).entry_violation
        assert report.entry_value == pytest.approx(s2.matrix[i, j], abs=1e-12)

    def test_precondition_errors(self, m_system, n_system):
        with pytest.raises(PreconditionError):
            tensor_closed_probe(m_system, m_system)
        with pytest.raises(PreconditionError):
            tensor_closed_probe(n_system, n_system)

    def test_generated_pairs(self):
        for seed in range(5):
            s1 = gen_posentry_not_strong(2 + seed % 2, seed)
            s2 = gen_strong_not_posentry(2 + (seed + 1) % 2, seed)
            report = tensor_closed_probe(s1, s2)
            c = classify(compose(s1, s2))
            assert not c.strongly_positive
            assert not c.positive_entry
            assert report.padded_min_eigenvalue < 0
