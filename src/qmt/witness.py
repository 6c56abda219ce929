"""Constructive self-composition counterexamples.

Any weakly positive system that is neither strongly positive nor
positive-entry composes with itself, a computable number of times, into a
quasi-system with a negative-measure event.  This module builds that event
explicitly: it locates a disjoint event pair with a non-trivial phase and a
principal atomic submatrix with negative determinant, picks exponents from
the cosine sign recipe and the even/odd permutation sums, and verifies the
predicted negative value by direct summation over the event's product
components.  Up to 2**20 composed atoms the value is cross-checked against
the operator M^(x k) itself: the measure is summed over pairs of the
event's composed atom indices, each term a product of entries of Kronecker
blocks of at most 64 atoms, so neither the power nor the event's n**k
indicator is formed.

The exponent plan search is a scalar branch and bound over the phase
pairs' exponent rows, generated lazily in increasing p and read only while
a row can still win and clear the double-range floor, so a large q cap
costs only the rows read; q comes from an exact scalar loop.  A component
is a row of ids into the witness's atoms, and the first rows of any
witness are one gather from the cached permutation tables by the digits
of the row index: every row only for the literal double sum or the
cross-check, 16 or 64 for ``qmt witness``, even the 3-atom seed-62
witness's 1,062,882; the literal double sum builds each component pair's
slot product over shared prefixes.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import Event, ProductRectangle, embed_product
from .classify import _sweep_limit_message, classify, is_positive_entry, is_strongly_positive
from .compose import _kron_form, _kron_slack, self_compose
from .errors import (
    AxiomViolationError,
    BruteForceLimitError,
    PreconditionError,
    QCapError,
    QmtError,
    SearchExhaustedError,
)
from .functional import (
    DEFAULT_TOL,
    QuantumSystem,
    Tolerance,
    _indicators,
    _min_eigenvalue,
)

# Largest permutation-sum order, and so the largest negative-determinant subset.
PERM_ORDER_MAX = 6
DEFAULT_Q_CAP = 64
# Constructed values below this magnitude cannot be verified in doubles.
VALUE_FLOOR = 1e-280
# Bounds on the case-b plan search, and the subsets whose determinants it takes at once.
SUBSET_SEARCH_LIMIT = 24
PAIR_SEARCH_LIMIT = 24
SUBSET_CHUNK = 2048
# Literal double-sum verification up to this many components; beyond it the
# same double sum is evaluated blockwise (grouped by shared prefixes and
# permutation blocks), which is algebraically identical.
ORACLE_PAIR_CAP = 2048
# Component pairs whose slot products the literal double sum forms at once.
DOUBLE_SUM_CELLS = 1 << 17
# Largest composed atom count n**k the cross-check evaluates, and the largest
# Kronecker block it materializes on the way.  Its cost grows as the square of
# the number of the event's composed indices (at most 720 within the limit),
# not as n**k; a larger limit may raise that count, but not the cells of its
# table past CROSS_CHECK_CELLS.
CROSS_CHECK_LIMIT = 1 << 20
CROSS_CHECK_CELLS = 720**2
KRON_BLOCK_ATOMS = 64


@dataclass(frozen=True)
class PolarEntry:
    """Polar form of a functional value, with r >= 0 and theta in (-pi, pi]."""

    r: float
    theta: float


def polar(z: complex, eps: float = 0.0) -> PolarEntry:
    """Polar decomposition with tolerance snapping.

    Values with modulus <= eps collapse to (0, 0); values that are real
    within eps get theta 0 (non-negative) or exactly pi (negative), so that
    sign decisions downstream see clean phases.
    """
    r = abs(z)
    if r <= eps:
        return PolarEntry(0.0, 0.0)
    if abs(z.imag) <= eps:
        if z.real >= -eps:
            return PolarEntry(r, 0.0)
        return PolarEntry(r, math.pi)
    return PolarEntry(r, math.atan2(z.imag, z.real))


@functools.cache
def _permutations_by_parity(m: int) -> np.ndarray:
    """``_parity_tables`` of all permutations of range(m) (m >= 2), cached."""
    return _parity_tables(itertools.permutations(range(m)))


def _parity_tables(perms) -> np.ndarray:
    """Permutations of range(m) (m >= 2), by parity, as a read-only (2, m!/2, m) table.

    A case-(b) component is a parity prefix of p >= 1 slots, then q rows of
    that parity's table, so the components are pairwise distinct exactly
    when each table's rows are; that is checked here, once per m.
    """
    even, odd = [], []
    for perm in perms:
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        (even if inversions % 2 == 0 else odd).append(perm)
    if len(set(even)) != len(even) or len(set(odd)) != len(odd):
        raise QmtError("witness components are not pairwise distinct")
    tables = np.array([even, odd], dtype=np.intp)
    tables.flags.writeable = False
    return tables


def _perm_block_sums(matrix: np.ndarray, *blocks: str) -> tuple[complex, ...]:
    """Double permutation sums of the named blocks: "ee", "eo", "oe", "oo" (e even, o odd).

    Each block sums slot-wise entry products over its permutation pairs,
    enumerated directly; no parity identities are assumed, so these sums can
    check those identities.  Guarded to orders 2..6: (m!/2)**2 terms each.
    """
    m = matrix.shape[0]
    if not 2 <= m <= PERM_ORDER_MAX:
        raise ValueError(f"permutation sums support order 2..{PERM_ORDER_MAX}, got {m}")
    tables = dict(zip("eo", _permutations_by_parity(m)))
    return tuple(complex(matrix[tables[r][:, None], tables[c][None, :]].prod(axis=2).sum())
                 for r, c in blocks)


@dataclass(frozen=True)
class PermSums:
    """Even-even and even-odd permutation double sums of a Hermitian matrix."""

    ee: float
    eo: float
    order: int


def _square(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as a complex array; ValueError unless it is a square matrix."""
    n = np.asarray(matrix, dtype=complex)
    if n.ndim != 2 or n.shape[0] != n.shape[1]:
        raise ValueError(f"matrix must be square, got shape {n.shape}")
    return n


def perm_sums(matrix: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> PermSums:
    """Compute ee and eo (orders 2..6); both are real for Hermitian input."""
    n = _square(matrix)
    m = n.shape[0]
    ee, eo = _perm_block_sums(n, "ee", "eo")
    half = math.factorial(m) // 2
    scale = half * half * max(1.0, float(np.abs(n).max())) ** m
    slack = tol.slack(scale)
    if abs(ee.imag) > slack or abs(eo.imag) > slack:
        raise AxiomViolationError(
            f"permutation sums have imaginary residues ({ee.imag:.3e}, {eo.imag:.3e}); "
            "input is not Hermitian"
        )
    return PermSums(ee=ee.real, eo=eo.real, order=m)


def det_identity_residual(matrix: np.ndarray) -> float:
    """Residual of the identity m! * det = 2*ee - 2*eo for a square matrix."""
    n = _square(matrix)
    m = n.shape[0]
    ee, eo = _perm_block_sums(n, "ee", "eo")
    det = complex(np.linalg.det(n))
    return abs(math.factorial(m) * det - 2.0 * ee + 2.0 * eo)


def cos_sign_pair(theta: float) -> tuple[int, int]:
    """Exponents (n, m) with cos(n*theta) < 0 and cos(m*theta) >= 0.

    Recipe, on t = |theta|: for t <= pi/2 take m=1 and n = floor(pi/(2t) + 1);
    for t in (pi/2, 3pi/4] take n=1, m=3; for t in (3pi/4, pi] take n=1, m=2.
    """
    if not -math.pi < theta <= math.pi:
        raise ValueError(f"theta must lie in (-pi, pi], got {theta}")
    if theta == 0.0:
        raise ValueError("theta must be non-zero")
    t = abs(theta)
    if t <= math.pi / 2:
        n, m = int(math.floor(math.pi / (2 * t) + 1)), 1
    elif t <= 3 * math.pi / 4:
        n, m = 1, 3
    else:
        n, m = 1, 2
    if not (math.cos(n * t) < 0.0 and math.cos(m * t) >= 0.0):
        raise QmtError(f"cosine sign recipe failed for theta={theta!r}: n={n}, m={m}")
    return n, m


class PhasePair(NamedTuple):
    """Two distinct atoms, by index, and the polar form of their entry M[first, second]."""

    first: int
    second: int
    theta: float
    modulus: float


def find_phase_pair(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> PhasePair:
    """Two distinct atoms whose entry has non-zero modulus and non-zero phase.

    For a weakly positive system the diagonal atomic entries are atom
    measures, hence non-negative, so any entry violating the positive-entry
    condition sits off the diagonal and the scan over pairs of distinct
    atoms, the construction's disjoint events, is sufficient.  Among valid
    pairs the one with the largest phase magnitude wins (ties by row-major
    order): phases near zero force huge exponents downstream.  Raises
    SearchExhaustedError when no off-diagonal entry has a phase.
    """
    return _pair_candidates(s, tol.scaled(s.matrix))[0]


class NegDetSubset(NamedTuple):
    atoms: tuple[int, ...]
    submatrix: np.ndarray
    det: float


def _colex(n: int, size: int):
    """The size-atom subsets of range(n), as ascending tuples, in ascending bitmask order,
    lazily: for each top atom in turn, those of range(top) with top appended."""
    return ((top,) for top in range(n)) if size == 1 else (
        c + (top,) for top in range(size - 1, n) for c in _colex(top, size - 1))


def _neg_det_candidates(s: QuantumSystem, tol: Tolerance, limit: int):
    """Yield negative-determinant principal subsets, smallest size first, then by bitmask.

    Each size's subsets come from ``_colex`` in chunks of SUBSET_CHUNK, each
    one gather and one stacked ``np.linalg.det`` (per-matrix bit for bit);
    no chunk past the limit-th candidate is made.  Since slack >= 0, a
    submatrix's slack is taken only where det < 0.  Small subsets keep the
    permutation sums and component counts small, but later candidates matter
    when the first's sums leave no feasible exponent.  SearchExhaustedError
    when there is none says whether the system is PSD within tolerance, by
    lambda_min, and if not, why no minor within the size cap was found.
    """
    n, m = s.n, s.matrix
    found = 0
    for size in range(2, min(n, PERM_ORDER_MAX) + 1):
        subsets = _colex(n, size)
        while rows := list(itertools.islice(subsets, SUBSET_CHUNK)):
            idx = np.array(rows, dtype=np.intp)
            subs = m[idx[:, :, None], idx[:, None, :]]
            dets = np.linalg.det(subs).real
            for i in np.flatnonzero(dets < 0.0).tolist():
                if dets[i] < -tol.scaled(subs[i]):
                    sub = subs[i].copy()
                    sub.flags.writeable = False
                    yield NegDetSubset(rows[i], sub, float(dets[i]))
                    found += 1
                    if found >= limit:
                        return
    if not found:
        lo = _min_eigenvalue(m)
        searched = (f"no principal submatrix of at most {PERM_ORDER_MAX} atoms has negative "
                    f"determinant (lambda_min = {lo:.3e})")
        if lo >= -tol.scaled(m):
            why = "the system is PSD or borderline"
        elif n > PERM_ORDER_MAX:
            why = ("the system is not PSD, and a negative minor, if there is one, "
                   f"has more than {PERM_ORDER_MAX} atoms, past the search bound")
        else:
            why = "the system is not PSD, but no principal minor is negative by more than its slack"
        raise SearchExhaustedError(f"{searched}; {why}")


def find_negative_det_subset(s: QuantumSystem, tol: Tolerance = DEFAULT_TOL) -> NegDetSubset:
    """Smallest atom subset whose principal submatrix has negative determinant.

    Smallest size first, ties broken by ascending subset bitmask.  A
    Hermitian matrix that is not PSD always has such a subset, though
    possibly larger than the size cap.
    """
    return next(_neg_det_candidates(s, tol, limit=1))


@dataclass(frozen=True)
class Witness:
    """A verified negative-measure event in a k-fold self-composition.

    ``atoms`` lists the distinct building-block atoms by index: the phase
    pair's two, then the negative-determinant subset's.  Each component of
    the constructed event is a row of k ids into ``atoms``, standing for the
    product of those atoms' singleton events in slot order.  The event is
    kept as (atoms, p, q); ``component_rows(count)`` builds the first count
    of those rows, a read-only intp array, on each call, so
    ``np.array(w.atoms)[w.component_rows(w.component_count)]`` holds the
    components' atom indices.
    ``cross_checked`` is set when the event's measure was also evaluated
    against the Kronecker power M^(x k), which needs at most 720 components
    (CROSS_CHECK_CELLS) and ``cross_check_limit`` (default 2**20) composed
    atoms; ``cross_check_value`` holds that measure.
    """

    case: str
    phase_pair: PhasePair
    neg_det_atoms: tuple[int, ...] | None
    ee: float | None
    eo: float | None
    p: int | None
    q: int | None
    k: int
    x_p: float | None
    y_p: float | None
    atoms: tuple[int, ...]
    component_count: int
    predicted_value: float
    verified_value: float
    cross_checked: bool = False
    cross_check_value: float | None = None

    def component_rows(self, count: int) -> np.ndarray:
        """The first min(count, component_count) rows, read-only, from ``_component_ids``."""
        count = min(count, self.component_count)
        return _component_ids(self.p or self.k, self.q or 0, len(self.atoms) - 2, count)


def _double_sum(values: np.ndarray, comps: np.ndarray) -> complex:
    """Literal double sum over component pairs (a, b) of the slot products prod_j values[a_j, b_j].

    Each pair's product is built left to right over the rows' shared
    prefixes, the runs of rows with equal prefixes (so any row order is
    valid): while rows share them, slot j's table has a cell per pair of
    prefixes, its parents' cell times values[a_j, b_j]; after, a cell per
    pair of rows, multiplied in place.  Rows go in blocks of at most
    DOUBLE_SUM_CELLS pairs, and every gather takes rows of a column gather.
    The multiplies and the row-order sums are a slot-by-slot product's, bit
    for bit.  It shares no code with ``_blockwise_value``, which takes over
    past ORACLE_PAIR_CAP components.
    """
    n, k = comps.shape
    slots = comps.T
    # Per slot until every row's prefix is its own: each row's prefix id, each prefix's first row.
    prefixes, cut = [], slots[0, 1:] != slots[0, :-1]
    for j in range(k):
        if j:
            cut |= slots[j, 1:] != slots[j, :-1]
        if cut.all():
            break
        first = np.r_[True, cut]
        prefixes.append((np.cumsum(first) - 1, np.flatnonzero(first)))

    def factor(j, a, b):  # values[a_j, b_j] for the rows a and columns b
        return values.take(slots[j, b], 1).take(slots[j, a], 0)

    step, total = max(1, DOUBLE_SUM_CELLS // n), 0j
    for lo in range(0, n, step):
        rows, last = slice(lo, lo + step), min(lo + step, n) - 1
        for j, (ids, heads) in enumerate(prefixes):
            mine = heads[ids[lo] : ids[last] + 1]  # the block's prefixes, by first row
            # Not in place: numpy multiplies one cell in place by a scalar loop, which can
            # round otherwise than its vector loop; a block has one cell only if n = 1.
            table = (table.take(up[heads], 1).take(up[mine] - up[lo], 0) * factor(j, mine, heads)
                     if j else factor(0, mine, heads))
            up = ids
        block = (table.take(up, 1).take(up[rows] - up[lo], 0) if prefixes
                 else values.take(slots[0], 1).take(slots[0, rows], 0))
        for j in range(max(len(prefixes), 1), k):
            block *= values.take(slots[j], 1).take(slots[j, rows], 0)
        total = sum(block.sum(axis=1).tolist(), total)
    return total


def _exponent_rows(pair: PhasePair, raa: float, rbb: float, q_cap: int, negative: bool):
    """Yield a pair's (p, x_p, y_p, cos(p*theta)) rows in increasing p, each only when read.

    x_p = raa**p + rbb**p and y_p = 2 |M_ab|**p, for the atom measures raa
    and rbb.  The negative rows are every p <= q_cap with a negative
    cosine, then the recipe's own when it lies past q_cap, which can be
    huge for tiny phases; the other kind is the recipe's one non-negative
    exponent.  The cosines are taken at |theta|, so a pair's twin (j, i),
    of opposite phase, gets the same rows bit for bit.  A row past the
    double range raises OverflowError.
    """
    theta = abs(pair.theta)
    n_neg, p_nonneg = cos_sign_pair(theta)
    if negative:
        exponents = itertools.chain(range(1, q_cap + 1), [n_neg] if n_neg > q_cap else [])
    else:
        exponents = [p_nonneg]
    for p in exponents:
        cos_p = math.cos(p * theta)
        if (cos_p < 0.0) == negative:
            x, y = raa**p + rbb**p, 2.0 * pair.modulus**p
            if math.isinf(x) or math.isinf(y):
                raise OverflowError(f"exponent row p={p} is past the double range")
            yield p, x, y, cos_p


def _pair_candidates(s: QuantumSystem, eps: float) -> list[PhasePair]:
    """Valid phase pairs at slack ``eps``, largest |theta| first, then row-major; never empty."""
    out = []
    for i, j in itertools.product(range(s.n), repeat=2):
        if i != j and (pe := polar(complex(s.matrix[i, j]), eps)).r > 0.0 and pe.theta != 0.0:
            out.append(PhasePair(i, j, pe.theta, pe.r))
    if not out:
        raise SearchExhaustedError(
            "no event pair with non-trivial phase: system is positive-entry within tolerance"
        )
    out.sort(key=lambda pr: (-abs(pr.theta), pr.first, pr.second))
    return out


def _search_case_b(
    s: QuantumSystem,
    tol: Tolerance,
    pairs: Sequence[PhasePair],
    q_cap: int,
) -> tuple[tuple[int, ...], dict]:
    """Pick subset, phase pair and exponents for the general construction.

    Candidate subsets (canonical order) are combined with phase pairs; the
    exponent p must make cos(p*theta) non-negative (even-odd sum
    non-positive) or negative (otherwise), and in the mixed subcase q grows
    until the positive term is at most half the negative one.  Among
    feasible plans the one with the fewest event components wins, then the
    smallest power k: any feasible plan proves the point, so the cheapest
    one to verify is preferred.

    The search is a branch and bound that returns the plan the full search
    would, by the exact-integer rank (components, k, subset, pair, p).  A
    pair whose rows equal an earlier pair's (a twin (j, i) of the same
    |theta|, modulus and atom measures) is left out: it loses every tie.
    Every subset's permutation sums are taken and checked, but a subset of
    size m whose least rank (2 (m!/2), m + 1, subset) is not below the best
    so far reads no rows.  Each pair's rows come from ``_exponent_rows`` in
    increasing p.  In the mixed subcase q is the least q <= q_cap with
    x_p (ee/eo)**q at most the target, one scalar multiply a step as in the
    loop ``xq *= ee / eo``, so q is exact.  Three cut-offs end the reading,
    and none drops a row the full search could pick:

    - a pair stops at its first row whose least rank, (2 (m!/2), p + m,
      subset, pair, p), is not below the best, as no later row's is; a
      row's q loop stops once its rank at the next q is not below it;
    - while every base (atom measures, modulus, |ee|, |eo|) is at most 1, a
      pair stops once (x_p + y_p) max(|ee|, |eo|), a bound on the value of
      every later row at any q, is below VALUE_FLOOR / 4 (4 for rounding);
    - while eo <= 1, a row's q loop stops once (x_p + y_p) eo**q, a bound
      on its value at that q and beyond, is below VALUE_FLOOR / 4.

    A row whose predicted value is not finite raises OverflowError.  The
    atom measures are the clamped real diagonal, max(0, Re M_ii);
    ``build_witness`` has checked Im M_ii.  Returns the winner's atom ids
    (phase pair, then subset) and its ``Witness`` fields.
    """
    best = None
    ratios = []
    subsets = list(_neg_det_candidates(s, tol, SUBSET_SEARCH_LIMIT))
    measures = [max(0.0, r) for r in s.matrix.diagonal().real.tolist()]
    searched = {}  # (pair index, pair, atom measures) of the first pair with each set of rows
    for pi, pr in enumerate(pairs[:PAIR_SEARCH_LIMIT]):
        r = (measures[pr.first], measures[pr.second])
        searched.setdefault((abs(pr.theta), pr.modulus, min(r), max(r)), (pi, pr, r))
    floor = VALUE_FLOOR / 4
    for si, neg in enumerate(subsets):
        sums = perm_sums(neg.submatrix, tol)
        ee, eo = sums.ee, sums.eo
        if ee >= eo:
            raise QmtError(
                f"negative determinant {neg.det:.3e} but ee={ee:.6g} >= eo={eo:.6g}; "
                "permutation sums are inconsistent"
            )
        m = sums.order
        half = math.factorial(m) // 2
        if eo > 0.0:
            ratios.append(ee / eo)
        if best is not None and (2 * half, m + 1, si) >= best[0]:
            continue
        case = "b_i" if eo <= 0.0 else "b_ii" if ee <= 0.0 else "b_iii"
        big = max(abs(ee), abs(eo))
        ratio = ee / eo if case == "b_iii" else None
        for pi, pair, r in searched.values():
            small = max(big, pair.modulus, *r) <= 1.0
            for p, x, y, cos_p in _exponent_rows(pair, *r, q_cap, case != "b_i"):
                if (best is not None and (2 * half, p + m, si, pi, p) >= best[0]
                        or small and (x + y) * big < floor):
                    break
                q, count = 1, 2 * half
                if ratio is not None:
                    target, xq, bound = 0.5 * y * abs(cos_p), x * ratio, (x + y) * eo
                    while xq > target:  # no q yet: go on to q + 1 while it can still win
                        q, count, bound = q + 1, count * half, bound * eo
                        if (q > q_cap or eo <= 1.0 and bound < floor
                                or best is not None and (count, p + m * q, si, pi, p) >= best[0]):
                            break
                        xq *= ratio
                    if xq > target:
                        continue
                predicted = x * ee**q + y * cos_p * eo**q
                if not math.isfinite(predicted):
                    raise OverflowError(f"predicted value {predicted} of p={p}, q={q}")
                if not predicted < -VALUE_FLOOR:
                    continue
                # The cut-offs above let through only a rank below the best.
                best = (count, p + m * q, si, pi, p), (pair.first, pair.second) + neg.atoms, dict(
                    case=case, phase_pair=pair, neg_det_atoms=neg.atoms, ee=ee, eo=eo,
                    p=p, q=q, k=p + m * q, x_p=x, y_p=y,
                    component_count=count, predicted_value=predicted,
                )
    if best is None:
        worst = max(ratios) if ratios else float("nan")
        max_theta = max(abs(pr.theta) for pr in pairs)
        raise QCapError(
            f"no witness within q <= {q_cap}: even-even/even-odd ratio up to "
            f"{worst:.9g} and phase magnitude at most {max_theta:.3e} leave no "
            "feasible exponents; raise --qmax"
        )
    return best[1], best[2]


def build_witness(
    s: QuantumSystem,
    tol: Tolerance = DEFAULT_TOL,
    *,
    q_cap: int = DEFAULT_Q_CAP,
    cross_check_limit: int = CROSS_CHECK_LIMIT,
) -> Witness:
    """Construct and verify a negative-measure event for Sys^(x k).

    Preconditions: at least two atoms, weakly positive (``BruteForceLimitError``
    where that is unknown), not strongly positive and not positive-entry.
    Case (a) applies when both phase-pair diagonals vanish and its value is
    not too shallow for double precision; otherwise case (b) splits on the
    signs of the negative-determinant submatrix's permutation sums.  The
    atom measures are the real diagonal; an imaginary part past ``tol``'s
    slack anywhere on it raises ``AxiomViolationError``.  ``q_cap`` must be
    at least 1; a value past the double range raises ``SearchExhaustedError``.
    ``cross_check_limit`` must be below 2**63, so that every composed index
    it admits fits an int64.
    """
    if q_cap < 1:
        raise ValueError(f"q_cap must be >= 1, got {q_cap}")
    if cross_check_limit >= 1 << 63:
        raise ValueError(f"cross_check_limit must be < 2**63, got {cross_check_limit}")
    norm = float(np.linalg.norm(s.matrix))  # each slack on M below comes from this one norm
    eps = tol.slack(norm)
    if s.n < 2:
        raise PreconditionError("witness construction needs at least 2 atoms")
    c = classify(s, tol)
    if c.weakly_positive is None:
        raise BruteForceLimitError(_sweep_limit_message(s.n))
    if not c.weakly_positive:
        raise PreconditionError("system is not weakly positive")
    if c.strongly_positive:
        raise PreconditionError("system is strongly positive")
    if c.positive_entry:
        raise PreconditionError("system is positive entry")

    try:
        pairs = _pair_candidates(s, eps)
        diagonal = s.matrix.diagonal()
        i = int(np.abs(diagonal.imag).argmax())
        if abs(diagonal[i].imag) > eps:
            raise AxiomViolationError(
                f"measure of atom {i} has imaginary residue {diagonal[i].imag:.3e}; "
                "input not Hermitian"
            )
        primary = pairs[0]
        if diagonal[primary.first].real <= eps and diagonal[primary.second].real <= eps:
            k, _ = cos_sign_pair(primary.theta)
            predicted = 2.0 * primary.modulus**k * math.cos(k * primary.theta)
            if predicted < -VALUE_FLOOR:
                return _finish(
                    s, tol, norm, cross_check_limit, (primary.first, primary.second),
                    case="a", phase_pair=primary, neg_det_atoms=None, ee=None, eo=None,
                    p=None, q=None, k=k, x_p=None, y_p=None, component_count=2,
                    predicted_value=predicted,
                )

        ids, fields = _search_case_b(s, tol, pairs, q_cap)
        return _finish(s, tol, norm, cross_check_limit, ids, **fields)
    except OverflowError as exc:  # a power of an entry or measure past the double range
        raise SearchExhaustedError("witness values overflow double precision") from exc


def _component_ids(p: int, q: int, m: int, count: int) -> np.ndarray:
    """The first ``count`` components as rows of atom ids: p prefix slots, then q blocks.

    Id 0 is the phase pair's first atom, 1 its second, 2..m+1 the
    negative-determinant atoms in subset order.  Prefix 0 with even blocks
    comes first, then prefix 1 with odd ones, the blocks in
    ``itertools.product`` order: row r has prefix r // (m!/2)**q, and block
    j is that parity's table row at digit j of r mod (m!/2)**q in base
    m!/2, one gather for all rows.  Place values are capped at ``count``,
    which changes no digit below it, so the cost does not grow with the
    component count.  Rows have length p + q*m, read-only; case (a) is
    q = 0, m unused.
    """
    half = math.factorial(m) // 2
    prefix, rest = np.divmod(np.arange(count), min(half**q, count))
    out = np.empty((count, p + q * m), dtype=np.intp)
    out[:, :p] = prefix[:, None]
    if q:
        place = np.array([min(half**j, count) for j in range(q - 1, -1, -1)], dtype=np.intp)
        blocks = _permutations_by_parity(m)[prefix[:, None], rest[:, None] // place % half]
        out[:, p:] = blocks.reshape(count, q * m) + 2
    out.flags.writeable = False
    return out


def _blockwise_value(values: np.ndarray, p: int, q: int, m: int) -> complex:
    """Double sum over all component pairs, grouped by prefix and blocks.

    The component set is a union of two product sets (prefix times q
    permutation blocks), so the full double sum factors exactly into four
    prefix values times q-th powers of directly enumerated permutation
    block sums.
    """
    w = values[2 : 2 + m, 2 : 2 + m]
    ee_c, eo_c, oe_c, oo_c = _perm_block_sums(w, "ee", "eo", "oe", "oo")
    return (values[0, 0] ** p * ee_c**q + values[1, 1] ** p * oo_c**q
            + values[0, 1] ** p * eo_c**q + values[1, 0] ** p * oe_c**q)


def _kronecker_value(s: QuantumSystem, atoms: np.ndarray, tol: Tolerance, norm: float) -> float:
    """Measure under M^(x k) of the event whose components' k atoms are the rows of ``atoms``.
    The k factors are grouped into blocks B_t = self_compose(s, j), j the
    largest power with n**j <= KRON_BLOCK_ATOMS, plus one block of the
    k mod j left over.  The event's support is its composed indices, sorted
    and without repeats (rows that name the same composed atom count once),
    and the measure is the sum over index pairs (a, b) of the support of
    prod_t B_t[a_t, b_t], a_t the block digits of a in the blocks'
    dimensions, first block most significant as in the pair-index
    convention: one count x count gather per block, so time and memory are
    O(count**2 * r) for count indices and r blocks, not O(n**k).

    The value runs through the composed index space and the materialised
    blocks, so it shares nothing with ``_double_sum`` or
    ``_blockwise_value``.  Within CROSS_CHECK_LIMIT = 2**20 composed atoms
    count = 2 (m!/2)**q is at most 720: m <= 6, n >= m and k = p + q m with
    p >= 1 leave m = 6, q = 1 (6**7 atoms) as the largest, a table of
    518,400 cells (8.3 MB).  A caller's larger limit admits larger
    events, whose table could outgrow any memory: ``_finish`` cross-checks
    none past CROSS_CHECK_CELLS, the same 518,400, and ``build_witness``
    refuses a limit whose indices would not fit an int64.
    """
    n, k = s.n, atoms.shape[1]
    j = 1
    while j < k and n ** (j + 1) <= KRON_BLOCK_ATOMS:
        j += 1
    blocks = [self_compose(s, j).matrix] * (k // j)
    if k % j:
        blocks.append(self_compose(s, k % j).matrix)
    support = np.unique(np.ravel_multi_index(tuple(atoms.T), (n,) * k))
    digits = np.unravel_index(support, [len(b) for b in blocks])
    table = blocks[0][digits[0][:, None], digits[0]]
    for b, d in zip(blocks[1:], digits[1:]):
        table *= b[d[:, None], d]
    z = complex(table.sum())
    # The slack quantal_measure would allow on the materialized power.
    if abs(z.imag) > _kron_slack(tol, *[norm] * k):
        raise AxiomViolationError(
            f"measure of the witness event has imaginary residue {z.imag:.3e}; "
            "input not Hermitian"
        )
    return z.real


def _finish(
    s: QuantumSystem,
    tol: Tolerance,
    norm: float,
    cross_check_limit: int,
    ids: tuple[int, ...],
    **fields,
) -> Witness:
    """Verify the event's measure over its components, then cross-check it.

    The components (distinct by the permutation tables' check) become an
    index array only for the literal double sum or the cross-check.  The
    components' ids index the atoms ``ids``, so their values are atomic entries.
    The measure is the literal double sum up to ORACLE_PAIR_CAP components
    and the blockwise one of case (b) beyond; it must be finite (else
    OverflowError), real, match the predicted value and be negative.  The
    cross-check, run when count**2 fits CROSS_CHECK_CELLS and s.n**k the
    limit, evaluates the embedded event against the operator, not the
    component factorisation, so it stays independent of the double sum
    that produced the verified value.
    """
    count, k = fields["component_count"], fields["k"]
    literal = count <= ORACLE_PAIR_CAP
    cross = count * count <= CROSS_CHECK_CELLS and s.n**k <= cross_check_limit
    if literal or cross:
        comps = _component_ids(fields["p"] or k, fields["q"] or 0, len(ids) - 2, count)
    values = s.matrix[np.ix_(ids, ids)]
    with np.errstate(over="ignore", invalid="ignore"):  # a value past the double range is refused
        if literal:
            verified_c = _double_sum(values, comps)
        else:
            verified_c = _blockwise_value(values, fields["p"], fields["q"], len(ids) - 2)
    if not cmath.isfinite(verified_c):
        raise OverflowError(f"verified value {verified_c}")
    if abs(verified_c.imag) > max(tol.slack(norm), 1e-12 * max(1.0, abs(verified_c))):
        raise QmtError(f"verified value has imaginary residue {verified_c.imag:.3e}")
    verified, predicted = verified_c.real, fields["predicted_value"]
    if abs(predicted - verified) > tol.slack(max(1.0, abs(predicted))):
        raise QmtError(
            f"predicted {predicted:.12e} and verified {verified:.12e} witness values disagree"
        )
    if verified >= 0.0:
        raise QmtError(f"constructed event has non-negative measure {verified:.3e}")
    cross_value = _kronecker_value(s, np.array(ids, np.intp)[comps], tol, norm) if cross else None
    if cross and abs(cross_value - verified) > tol.slack(max(1.0, abs(verified))):
        raise QmtError(
            f"Kronecker cross-check {cross_value:.12e} disagrees "
            f"with the component sum {verified:.12e}"
        )
    return Witness(atoms=ids, verified_value=verified, cross_checked=cross,
                   cross_check_value=cross_value, **fields)


@dataclass(frozen=True)
class TensorProbeReport:
    """Composition of a positive-entry-only with a strongly-positive-only system."""

    padded_event_matrix: np.ndarray
    padded_min_eigenvalue: float
    entry_pair: tuple[Event, Event]
    entry_value: complex


def tensor_closed_probe(
    s1: QuantumSystem,
    s2: QuantumSystem,
    tol: Tolerance = DEFAULT_TOL,
) -> TensorProbeReport:
    """Compose s1 in P\\S with s2 in S\\P and exhibit the inherited defects.

    The event matrix over the padded events atom x Omega_2 reproduces the
    first factor's atomic matrix, so its negative eigenvalue rules out
    strong positivity of the composition; the padded pair Omega_1 x {i},
    Omega_1 x {j} reproduces the second factor's violating entry, ruling
    out the positive-entry property.  Both are bilinear forms of the
    composed operator M1 (x) M2, evaluated by mode products on the factors,
    so the composition is never formed and no size limit applies beyond
    the factors' own eigendecompositions.
    """
    if not is_positive_entry(s1, tol).ok or is_strongly_positive(s1, tol).ok:
        raise PreconditionError("first system must be positive-entry and not strongly positive")
    entry2 = is_positive_entry(s2, tol)
    if entry2.ok or not is_strongly_positive(s2, tol).ok:
        raise PreconditionError("second system must be strongly positive and not positive-entry")

    blocks = [s1.matrix, s2.matrix]
    n = s1.n * s2.n
    full1, full2 = Event.full(s1.n), Event.full(s2.n)
    padded = [embed_product(ProductRectangle(s1.atom(i), full2)) for i in range(s1.n)]
    rows = _indicators(padded, n)
    pmat = np.array([[_kron_form(blocks, x, y) for y in rows] for x in rows])
    lo = _min_eigenvalue(pmat)

    i, j = entry2.index
    pa = embed_product(ProductRectangle(full1, s2.atom(i)))
    pb = embed_product(ProductRectangle(full1, s2.atom(j)))
    entry_value = _kron_form(blocks, *_indicators([pa, pb], n))

    # The slack classify would allow on the composed matrix.
    slack = _kron_slack(tol, float(np.linalg.norm(s1.matrix)), float(np.linalg.norm(s2.matrix)))
    if not (lo < -slack and (abs(entry_value.imag) > slack or entry_value.real < -slack)):
        raise QmtError("composed system unexpectedly fell back into S or P")
    return TensorProbeReport(
        padded_event_matrix=pmat,
        padded_min_eigenvalue=lo,
        entry_pair=(pa, pb),
        entry_value=entry_value,
    )
