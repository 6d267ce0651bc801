"""Verification oracles for the fairness and efficiency axioms.

Every check returns a :class:`PropertyReport`; a failing report carries a
witness that can be re-checked independently of the code path that found
it (a dominating assignment, an envy pair, a manipulation, a Farkas
certificate, ...).  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import preferences as prefs
from . import spaces
from .errors import DimensionMismatch, InstanceTooLargeToDecide, SoundnessError, UniverseMismatch
from .lp import EQ, GE, Constraint, LinearProgram, LpOutcome, solve
from .mechanisms import MgdReruns, MpsReruns, MrpTurns, Tiebreak, reruns
from .model import (
    ZERO,
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    Lottery,
    Preference,
    from_discrete,
    outcome_matrix,
    require_shape,
    validate_assignment,
)

# -- stochastic dominance --------------------------------------------------


@dataclass(frozen=True)
class SdVerdict:
    """Outcome of comparing two allocation rows under one preference.

    ``slack[x]`` is the upper-contour-sum difference (p minus q) at
    bundle x; ``p_dominates_q`` iff every slack is nonnegative.
    """

    p_dominates_q: bool
    q_dominates_p: bool
    slack: tuple[Fraction, ...]


def _ucs_masks(order: prefs.PartialOrder) -> list[int]:
    return [order.ucs_mask(x) for x in range(order.m)]


def _held(values: Sequence[int]) -> list[tuple[int, int]]:
    """The row's held entries: (bit, value) per bundle of nonzero value."""
    return [(1 << y, v) for y, v in enumerate(values) if v]


def _support(*rows: Sequence[tuple[int, int]]) -> int:
    """The bitmask of the bundles held in any of the rows' held entries."""
    support = 0
    for held in rows:
        for bit, _ in held:
            support |= bit
    return support


def _contour_sets(order: prefs.PartialOrder, support: int) -> list[int]:
    """The distinct sets among the upper contour sets of ``order`` met
    with ``support``.  A row held within ``support`` has the same contour
    sum at two bundles whose contour sets meet it alike, so comparing
    contour sums at these sets compares them at every bundle."""
    return list(dict.fromkeys([(above | 1 << x) & support for x, above in enumerate(order.above)]))


def _contour_sums(masks: Iterable[int], held: Sequence[tuple[int, int]]) -> list[int]:
    """Per bundle set in ``masks``, the sum of the row's :func:`_held`
    entries in it."""
    sums = []
    for mask in masks:
        total = 0
        for bit, v in held:
            if mask & bit:
                total += v
        sums.append(total)
    return sums


def _at_least(sums: Sequence[int], den: int, ref: Sequence[int], ref_den: int) -> bool:
    """Is ``sums / den`` at least ``ref / ref_den`` entry by entry?"""
    return all(v * ref_den >= t * den for v, t in zip(sums, ref))


def _row_sums(order: prefs.PartialOrder, row: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row's upper contour sums under ``order``, integers over its own denominator."""
    scaled = FractionalAssignment.from_rows([row])
    return _contour_sums(_ucs_masks(order), _held(scaled.nums[0])), scaled.den


def ucs_sums(order: prefs.PartialOrder, row: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Per bundle, the total share the row puts on its upper contour set.

    The row is scaled to integers by :func:`_row_sums`, so the contour
    sums are integer additions and each result is one Fraction.
    """
    if len(row) != order.m:
        raise UniverseMismatch("allocation rows do not match the bundle universe")
    sums, den = _row_sums(order, row)
    return tuple(Fraction(v, den) for v in sums)


def sd_compare(
    order: prefs.PartialOrder, p_row: Sequence[Fraction], q_row: Sequence[Fraction]
) -> SdVerdict:
    """Stochastic dominance: p dominates q iff p's upper-contour share is
    at least q's at every bundle.

    Once both lengths are checked, each row is scaled to integers on its
    own by :func:`_row_sums` and the contour sums are cross-multiplied:
    both verdicts are read off the signs of the differences, and one
    slack Fraction is built per distinct nonzero one (ZERO for zero).
    """
    if len(p_row) != order.m or len(q_row) != order.m:
        raise UniverseMismatch("allocation rows do not match the bundle universe")
    (p, p_den), (q, q_den) = _row_sums(order, p_row), _row_sums(order, q_row)
    diffs = [a * q_den - b * p_den for a, b in zip(p, q)]
    slack = {v: Fraction(v, p_den * q_den) if v else ZERO for v in set(diffs)}
    return SdVerdict(
        p_dominates_q=all(v >= 0 for v in diffs),
        q_dominates_p=all(v <= 0 for v in diffs),
        slack=tuple(slack[v] for v in diffs),
    )


def sd_dominance(
    order: prefs.PartialOrder, P: FractionalAssignment, Q: FractionalAssignment, agent: int
) -> tuple[bool, bool]:
    """Does ``agent``'s row of P sd-dominate its row of Q under ``order``,
    and does Q's dominate P's?  :func:`sd_compare`'s two verdicts, read off
    the integer rows: the contour sums are taken at the distinct contour
    sets that the bundles held in either row meet (:func:`_contour_sets`),
    and each is cross-multiplied by the other assignment's denominator,
    so no Fraction and no common denominator is built.  An agent that is
    not a row of both raises :class:`~mtra.errors.DimensionMismatch`, and
    rows not over ``order``'s bundles :class:`~mtra.errors.UniverseMismatch`,
    as :func:`sd_compare` does."""
    if not (0 <= agent < len(P.nums) and agent < len(Q.nums)):
        raise DimensionMismatch(f"agent {agent} is not a row of both assignments")
    p_row, q_row = P.nums[agent], Q.nums[agent]
    if len(p_row) != order.m or len(q_row) != order.m:
        raise UniverseMismatch("allocation rows do not match the bundle universe")
    p_held, q_held = _held(p_row), _held(q_row)
    sets = _contour_sets(order, _support(p_held, q_held))
    p, q = _contour_sums(sets, p_held), _contour_sums(sets, q_held)
    return _at_least(p, P.den, q, Q.den), _at_least(q, Q.den, p, P.den)


# -- improvable tuples and generalized cycles --------------------------------


@dataclass(frozen=True)
class ImprovableTuple:
    better: int
    worse: int
    agent: int


def improvable_tuples(instance: Instance, P: FractionalAssignment) -> tuple[ImprovableTuple, ...]:
    """All (x, x̂, j) with x preferred to x̂ by j and j holding share of x̂."""
    out = []
    for j, row in enumerate(P.nums):
        order = instance.orders[j]
        for worse in range(instance.m):
            if row[worse] == 0:
                continue
            for better in prefs._bits(order.above[worse]):
                out.append(ImprovableTuple(better, worse, j))
    return tuple(sorted(out, key=lambda t: (t.better, t.worse, t.agent)))


def find_generalized_cycle(
    instance: Instance, P: FractionalAssignment
) -> frozenset[tuple[int, int]] | None:
    """Greatest set of improvable pairs closed under "every left item
    appears on some right side"; None when the only closed set is empty.

    Computed as a pruning fixpoint: repeatedly delete pairs whose left
    bundle holds an item that no remaining right bundle holds.  Pruning
    preserves every closed subset, so the fixpoint is nonempty exactly
    when some generalized cycle exists.

    The pairs are kept as one bitmask of left bundles per right bundle,
    read straight off ``P.nums`` and the orders' ``above`` rows.  An item
    is on no right side when its bundle mask
    (:attr:`~mtra.model.Instance.item_bundles`) misses every right
    bundle; each such mask is a set of left bundles to delete.
    """
    better = [0] * instance.m
    for j, row in enumerate(P.nums):
        above = instance.orders[j].above
        for worse, v in enumerate(row):
            if v:
                better[worse] |= above[worse]
    while True:
        left = right = 0
        for worse, mask in enumerate(better):
            if mask:
                left |= mask
                right |= 1 << worse
        if not right:
            return None
        stranded = 0
        for bundles in instance.item_bundles:
            if not bundles & right:
                stranded |= bundles
        if not left & stranded:
            return frozenset(
                (b, worse) for worse, mask in enumerate(better) for b in prefs._bits(mask)
            )
        better = [mask & ~stranded for mask in better]


# -- property reports --------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    prop: str
    passed: bool
    witness: object = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class EnvyWitness:
    agent: int
    other: int


@dataclass(frozen=True)
class OrdinalFairnessWitness:
    bundle: int
    agent: int
    other: int


@dataclass(frozen=True)
class ManipulationWitness:
    agent: int
    misreport: Preference
    truthful: FractionalAssignment
    manipulated: FractionalAssignment
    tiebreak: object = None


@dataclass(frozen=True)
class InvarianceWitness:
    agent: int
    misreport: Preference
    pivot: int
    truthful: FractionalAssignment
    manipulated: FractionalAssignment
    tiebreak: object = None


@dataclass(frozen=True)
class FarkasWitness:
    """Row multipliers proving an exact linear system infeasible."""

    certificate: tuple[Fraction, ...]


# -- assignment-level axioms --------------------------------------------------


def _share_row(nv: int, cols: Iterable[int], rel: str, num: int, den: int = 1) -> Constraint:
    """The LP row "the variables at ``cols`` sum to ``num / den``" in
    lowest terms: coefficient den/g at ``cols`` and right-hand side
    num/g, with g = gcd(num, den)."""
    g = math.gcd(num, den)
    row = [0] * nv
    for c in cols:
        row[c] = den // g
    return Constraint(tuple(row), rel, num // g)


def check_sd_efficiency(instance: Instance, P: FractionalAssignment) -> PropertyReport:
    """No assignment Q != P has weakly larger upper-contour sums everywhere.

    Decided in this order:

    1. the no-cycle lemma: a valid assignment with no generalized cycle
       passes at once;
    2. the trade LP (:func:`_cyclic_sd_efficiency`): a valid cyclic P
       fails if share can be moved upward to a dominating Q, and a
       discrete one (den 1) passes if it cannot;
    3. one exact feasibility program (:func:`_sd_efficiency_lp`)
       decides the rest, a fractional cyclic P that trade cannot improve
       or an invalid P: for the first it asks for a feasible direction
       at P along which no contour sum falls, for the second for a
       valid assignment with contour sums at least P's.  A feasible
       program gives a dominating witness; an infeasible one is a pass,
       with its Farkas certificate verified by :func:`~mtra.lp.solve`.
       An invalid P that no valid assignment dominates, one whose rows
       or contour sums no assignment can reach, passes.

    A failure carries a dominating witness re-checked exactly.  A P of
    the wrong shape raises :class:`~mtra.errors.DimensionMismatch`.
    """
    if validate_assignment(P, instance) is not None:
        return _sd_efficiency_lp(instance, P)
    cycle = find_generalized_cycle(instance, P)
    if cycle is None:
        return PropertyReport("sd-efficiency", True)
    return _cyclic_sd_efficiency(instance, P, cycle)


def _dominated_report(
    instance: Instance, P: FractionalAssignment, Q: FractionalAssignment
) -> PropertyReport:
    """The sd-efficiency failure of P with witness Q, once Q is checked
    exactly to be another valid assignment that sd-dominates P for every
    agent; :class:`~mtra.errors.SoundnessError` otherwise."""
    if validate_assignment(Q, instance) is not None or Q == P:
        raise SoundnessError("the dominating witness is not another valid assignment")
    for j, order in enumerate(instance.orders):
        if not sd_dominance(order, Q, P, j)[0]:
            raise SoundnessError(f"the witness does not sd-dominate P for agent {j}")
    return PropertyReport("sd-efficiency", False, witness=Q)


def _cyclic_sd_efficiency(
    instance: Instance, P: FractionalAssignment, cycle: frozenset[tuple[int, int]]
) -> PropertyReport:
    """Decide a valid P whose generalized cycle (the fixpoint of
    :func:`find_generalized_cycle`) is ``cycle``: by trade alone if P is
    discrete, else by trade if it can and by the exact LP if not.

    The trade LP has one variable f >= 0 per improvable tuple whose pair
    is in ``cycle``, agent j moving f from ``worse`` to ``better``; one
    row per item, its net flow 0; and one row, sum f = 1.  A feasible f
    changes P's rows by D, and Q = P + eps D with eps the largest step
    that keeps Q >= 0.  Each move goes upward along a strict order, so
    it lowers no upper-contour sum (Gale, "A theorem on flows in
    networks", Pacific J. Math. 7, 1957): Q is another valid assignment
    that dominates P, which :func:`_dominated_report` re-checks.  Under
    linear orders trade finds a dominating Q whenever one exists; under
    partial orders not every up-set is a contour set, so an infeasible
    trade LP proves nothing in general and the exact LP decides.

    A valid P with den 1 is discrete, and trade is exact for it under
    any orders; :func:`~mtra.lp.solve` checked the Farkas certificate:

    1. Agent j holds bundle x_j.  Q sd-dominates P for j exactly when
       Q_j(U_j(x_j)) >= 1, so Q_j lives on the bundles weakly above x_j.
    2. Then Q - P is a nonnegative, item-balanced mix of improvable
       tuples (y, x_j, j), each of weight Q_j(y).
    3. Every item that enters through a better bundle leaves through a
       worse one, so the tuples' pairs form a closed set, which the
       fixpoint of :func:`find_generalized_cycle` never prunes.
    4. A scaled copy of that mix is feasible for the trade LP over
       ``cycle``: if that LP is infeasible, no Q != P dominates P.
    """
    trades = [t for t in improvable_tuples(instance, P) if (t.better, t.worse) in cycle]
    cons = [
        Constraint(tuple((holders >> t.better & 1) - (holders >> t.worse & 1) for t in trades), EQ, 0)
        for holders in instance.item_bundles
    ]
    cons.append(Constraint((1,) * len(trades), EQ, 1))
    out = solve(LinearProgram(len(trades), tuple(cons)))
    if not out.optimal:
        return PropertyReport("sd-efficiency", True) if P.den == 1 else _sd_efficiency_lp(instance, P)
    # D is over the LP's det, which cancels out of Q
    D = [[0] * instance.m for _ in range(instance.n)]
    for t, f in zip(trades, out.witness):
        D[t.agent][t.worse] -= f
        D[t.agent][t.better] += f
    return _dominated_report(instance, P, _largest_step(P, D))


def _largest_step(P: FractionalAssignment, D: Sequence[Sequence[int]]) -> FractionalAssignment:
    """P + eps D for the largest eps that keeps every share >= 0.  The
    integer direction D has negative entries, each where P is positive,
    so eps > 0; a common factor of D cancels out of the result."""
    # eps = (c / P.den) / k: the share c = P.nums[j][x] is the first to
    # reach 0 as D[j][x] = -k pulls it down
    c = k = 0
    for prow, drow in zip(P.nums, D):
        for v, d in zip(prow, drow):
            if d < 0 and (not k or v * k < c * -d):
                c, k = v, -d
    return FractionalAssignment(
        tuple(tuple(v * k + c * d for v, d in zip(prow, drow)) for prow, drow in zip(P.nums, D)), P.den * k
    )


def _sd_efficiency_lp(instance: Instance, P: FractionalAssignment) -> PropertyReport:
    """:func:`check_sd_efficiency` decided by one exact feasibility
    program, whose outcome :func:`~mtra.lp.solve` verifies either way.

    A valid P is decided by its feasible directions: matrices D with
    row sums 0, item sums 0, every contour sum >= 0 and D >= 0 wherever
    P is 0, normalised by sum over (j, y) of downset_size_j(y) D_jy = 1.
    That sum is the total of D's contour sums.  D = D+ - D-, with a D-
    column only where P is positive.

    1. If such a D exists, Q = P + eps D with eps as large as keeps Q >= 0
       (:func:`_largest_step`) has P's row and item sums, so it is a
       valid assignment; its contour sums are P's plus eps times D's, so
       it dominates P; and Q != P, since D's contour sums total 1.
       :func:`_dominated_report` re-checks Q.
    2. If none exists, P passes: for a dominating Q != P, D = Q - P has
       every property but the normalisation, and its contour sums, which
       determine a row, are >= 0 and not all 0, so their total is
       positive and (Q - P) rescaled is such a D.  The program's Farkas
       certificate is verified.

    An invalid P is decided by the program "Q is a valid assignment
    whose contour sums are at least P's".  A feasible Q dominates P and
    differs from P, which is invalid; an infeasible program is a pass.
    """
    n, m = instance.n, instance.m
    nv = n * m
    valid = validate_assignment(P, instance) is None
    # for a valid P the rows of D, right-hand side 0; else the rows of Q
    total = 0 if valid else 1
    cons = [_share_row(nv, range(j * m, (j + 1) * m), EQ, total) for j in range(n)]
    for holders in instance.item_bundles:
        cons.append(_share_row(nv, (j * m + x for j in range(n) for x in prefs._bits(holders)), EQ, total))
    masks = [_ucs_masks(order) for order in instance.orders]
    for j in range(n):
        for x, (ucs, v) in enumerate(zip(masks[j], _contour_sums(masks[j], _held(P.nums[j])))):
            if v == P.den:
                # share 1 in U leaves nothing outside U: Q's row sums to
                # 1, and P's does, so D = D+ there; written that way the
                # presolve removes those columns
                outside = (j * m + y for y in range(m) if not ucs >> y & 1)
                cons.append(_share_row(nv, outside, EQ, 0))
            else:
                inside = (j * m + y for y in prefs._bits(ucs))
                cons.append(_share_row(nv, inside, GE, 0 if valid else v, P.den))
    held: list[int] = []
    if valid:
        cons.append(Constraint(tuple(order.downset_size(y) for order in instance.orders for y in range(m)), EQ, 1))
        # the D- columns follow the D+ ones, each with its D+ column's
        # coefficients negated
        held = [j * m + x for j, row in enumerate(P.nums) for x, v in enumerate(row) if v]
        cons = [Constraint(c.coeffs + tuple(-c.coeffs[k] for k in held), c.rel, c.rhs) for c in cons]
    out = solve(LinearProgram(nv + len(held), tuple(cons)))
    if not out.optimal:
        return PropertyReport("sd-efficiency", True)
    rows = [list(out.witness[j * m : (j + 1) * m]) for j in range(n)]
    if not valid:
        return _dominated_report(instance, P, FractionalAssignment(tuple(map(tuple, rows)), out.det))
    for k, f in zip(held, out.witness[nv:]):
        rows[k // m][k % m] -= f
    return _dominated_report(instance, P, _largest_step(P, rows))


def check_envy(
    instance: Instance, P: FractionalAssignment, strength: str = "strong"
) -> PropertyReport:
    """strong: everyone sd-prefers her own row to every other row.
    weak: nobody sd-prefers another row unless the rows are equal.

    Each row's held entries are read once.  For each agent j the contour
    sums of every row under j's order are worked out once, at the
    distinct contour sets that the bundles held in P meet
    (:func:`_contour_sets`), not at all m bundles, and each pair is
    judged by comparing integers.  The first witness is the first (j, k)
    in agent order."""
    if strength not in ("strong", "weak"):
        raise ValueError(f"unknown envy-freeness strength {strength!r}")
    name = "sd-envy-freeness" if strength == "strong" else "weak-sd-envy-freeness"
    require_shape(P, instance)
    held = [_held(row) for row in P.nums]
    support = _support(*held)
    for j in range(instance.n):
        sets = _contour_sets(instance.orders[j], support)
        sums = [_contour_sums(sets, row) for row in held]
        own = sums[j]
        for k in range(instance.n):
            if j == k:
                continue
            if strength == "strong":
                envies = any(a < b for a, b in zip(own, sums[k]))
            else:
                envies = all(a <= b for a, b in zip(own, sums[k])) and P.nums[j] != P.nums[k]
            if envies:
                return PropertyReport(name, False, witness=EnvyWitness(j, k))
    return PropertyReport(name, True)


def check_ete(instance: Instance, P: FractionalAssignment) -> PropertyReport:
    """Agents with identical preference relations get identical rows."""
    require_shape(P, instance)
    for j in range(instance.n):
        for k in range(j + 1, instance.n):
            if instance.orders[j] == instance.orders[k] and P.nums[j] != P.nums[k]:
                return PropertyReport(
                    "equal-treatment-of-equals", False, witness=EnvyWitness(j, k)
                )
    return PropertyReport("equal-treatment-of-equals", True)


def check_ordinal_fairness(instance: Instance, P: FractionalAssignment) -> PropertyReport:
    """Wherever an agent holds positive share, her upper-contour sum is
    no larger than anyone else's at the same bundle.

    Sums are compared at held bundles alone, so each agent's contour sums
    are worked out at the bundles held in P, not at all m; the first
    witness is the first (agent, bundle, other) in index order."""
    require_shape(P, instance)
    at = [x for x, column in enumerate(zip(*P.nums)) if any(column)]
    # sums[k][i]: agent k's contour sum at bundle at[i]
    sums = [
        _contour_sums([order.ucs_mask(x) for x in at], _held(row)) for order, row in zip(instance.orders, P.nums)
    ]
    for j, row in enumerate(P.nums):
        for i, x in enumerate(at):
            if row[x] == 0:
                continue
            for k in range(instance.n):
                if k != j and sums[j][i] > sums[k][i]:
                    return PropertyReport(
                        "ordinal-fairness",
                        False,
                        witness=OrdinalFairnessWitness(x, j, k),
                    )
    return PropertyReport("ordinal-fairness", True)


DECOMPOSITION_AGENT_LIMIT = 4
DECOMPOSITION_TYPE_LIMIT = 2


def _decomposition_guard(instance: Instance) -> None:
    if instance.n > DECOMPOSITION_AGENT_LIMIT or instance.p > DECOMPOSITION_TYPE_LIMIT:
        raise InstanceTooLargeToDecide(
            f"cannot enumerate (n!)^p discrete assignments for n={instance.n}, p={instance.p}"
        )


def _supported(instance: Instance, P: FractionalAssignment) -> int:
    """The bitmask over ``instance._discrete_assignments`` of those that
    give every agent a bundle P gives it a share of: the only ones a
    lottery whose expectation is P can use."""
    supported = (1 << len(instance._discrete_assignments)) - 1
    for row, masks in zip(P.nums, instance._assignment_masks):
        # an assignment gives j one bundle, so j's masks are disjoint and
        # their sum is their union
        supported &= sum(mask for v, mask in zip(row, masks) if v)
    return supported


def _columns(instance: Instance, mask: int) -> list[DiscreteAssignment]:
    """The discrete assignments in ``mask``, in enumeration order."""
    assignments = instance._discrete_assignments
    return [assignments[k] for k in prefs._bits(mask)]


def _lottery_lp(
    instance: Instance, P: FractionalAssignment, columns: Sequence[DiscreteAssignment]
) -> tuple[LpOutcome, list[int]]:
    """The exact LP "P is a mixture of ``columns``", solved, and the flat
    index j * m + x of each entry row it has.

    Entry row (j, x) says that the weights of the columns giving agent j
    bundle x sum to P's entry; the row "all weights sum to 1" is last.
    An entry row with no column and right-hand side 0 holds for every
    weight and is not built: the LP presolve would drop it, with
    multiplier 0.  Over :func:`_supported` columns that leaves exactly
    the program the presolve makes of the one over all of them, with the
    same rows and columns in the same order, so the simplex makes the
    same pivots."""
    nv = len(columns)
    # cols[j][x]: the columns that give agent j bundle x
    cols: list[list[list[int]]] = [[[] for _ in range(instance.m)] for _ in range(instance.n)]
    for k, a in enumerate(columns):
        for j, x in enumerate(a.bundles):
            cols[j][x].append(k)
    cons, entries = [], []
    for j, row in enumerate(P.nums):
        for x, v in enumerate(row):
            if v or cols[j][x]:
                cons.append(_share_row(nv, cols[j][x], EQ, v, P.den))
                entries.append(j * instance.m + x)
    cons.append(_share_row(nv, range(nv), EQ, 1))
    return solve(LinearProgram(nv, tuple(cons))), entries


def _lottery(
    prop: str, instance: Instance, P: FractionalAssignment, columns: Sequence[DiscreteAssignment]
) -> PropertyReport | None:
    """P as a lottery over ``columns``, reported as a ``prop`` pass; None
    when there is none.  Its expectation must be P, on the LP's integers."""
    out, _ = _lottery_lp(instance, P, columns)
    if not out.optimal:
        return None
    if outcome_matrix(instance, ((a.bundles, w) for a, w in zip(columns, out.witness)), out.det) != P:
        raise SoundnessError("the lottery's expectation is not P")
    lottery = Lottery(tuple((Fraction(w, out.det), a) for w, a in zip(out.witness, columns) if w > 0))
    return PropertyReport(prop, True, witness=lottery)


def _lottery_report(prop: str, instance: Instance, P: FractionalAssignment, mask: int) -> PropertyReport:
    """Exact LP feasibility of P as a mixture of the discrete assignments
    in ``mask``, reported as ``prop``.

    The LP is solved over the :func:`_supported` ones among them alone,
    and a lottery found there is the one the LP over all of them gives,
    entry for entry.  A Farkas certificate must hold on every column, so
    a failure solves the LP over all of ``mask`` and carries its
    certificate, which the LP layer verified on that whole program.
    """
    report = _lottery(prop, instance, P, _columns(instance, mask & _supported(instance, P)))
    if report is not None:
        return report
    out, entries = _lottery_lp(instance, P, _columns(instance, mask))
    if out.optimal:
        raise SoundnessError("P is a mixture of all the assignments but not of those it supports")
    # multipliers of the rows with unit coefficients: row (j, x) was
    # scaled by P.den / gcd(v, P.den), the last row not at all; a row
    # not built has multiplier 0
    flat = [v for row in P.nums for v in row]
    cert = [0] * len(flat) + [out.certificate[-1]]
    for i, y in zip(entries, out.certificate):
        cert[i] = y * (P.den // math.gcd(flat[i], P.den))
    g = math.gcd(*cert)
    return PropertyReport(prop, False, witness=FarkasWitness(tuple(Fraction(v // g) for v in cert)))


def check_decomposability(instance: Instance, P: FractionalAssignment) -> PropertyReport:
    """Is P a mixture of discrete assignments?  Exact LP feasibility,
    decided over the discrete assignments P supports
    (:func:`_lottery_report`); a pass carries the lottery, a fail the
    Farkas certificate of the matching equations over all (n!)^p of
    them."""
    require_shape(P, instance)
    _decomposition_guard(instance)
    return _lottery_report("decomposability", instance, P, (1 << len(instance._discrete_assignments)) - 1)


def check_ex_post_efficiency(instance: Instance, P: FractionalAssignment) -> PropertyReport:
    """Is P a mixture of *sd-efficient* discrete assignments?

    Each call decides each discrete assignment at most once and keeps no
    verdict.  First only the assignments P supports
    (:func:`_supported`) get their generalized cycle, and the lottery LP
    is solved over the cycle-free ones among them: if it is feasible, P
    passes, and every entry of its lottery is efficient by the no-cycle
    lemma, with no LP optimum trusted.  Only if it is infeasible are the
    other assignments' cycles found, each cyclic assignment decided from
    its cycle by the trade LP alone (:func:`_cyclic_sd_efficiency`),
    and the lottery LP solved over all the efficient ones,
    whose Farkas certificate a failure carries.  The cycle-free
    assignments are among the efficient ones, so the first LP passes
    only where the second would.
    """
    require_shape(P, instance)
    _decomposition_guard(instance)
    assignments = instance._discrete_assignments
    cycles = {
        k: find_generalized_cycle(instance, from_discrete(instance, assignments[k]))
        for k in prefs._bits(_supported(instance, P))
    }
    report = _lottery(
        "ex-post-efficiency", instance, P, [assignments[k] for k, cycle in cycles.items() if cycle is None]
    )
    if report is not None:
        return report
    efficient = 0
    for k, a in enumerate(assignments):
        Q = from_discrete(instance, a)
        cycle = cycles[k] if k in cycles else find_generalized_cycle(instance, Q)
        if cycle is None or _cyclic_sd_efficiency(instance, Q, cycle).passed:
            efficient |= 1 << k
    return _lottery_report("ex-post-efficiency", instance, P, efficient)


# -- mechanism-level axioms ---------------------------------------------------


def manipulations(
    runs: MpsReruns | MgdReruns | MrpTurns,
    agent: int,
    reports: Iterable[Preference],
    strength: str = "sd",
) -> Iterator[ManipulationWitness]:
    """Each of ``reports`` by which ``agent`` manipulates the truthful
    run ``runs`` (:func:`~mtra.mechanisms.reruns`), as a witness, in the
    order of ``reports``.

    Under "sd", a report manipulates if truth-telling does not
    sd-dominate the agent's row; under "weak", if the row sd-dominates
    truth-telling with other upper contour sums.  The liar's row is
    read off ``runs`` by the report order's sort, so no instance is
    copied per report, and only the first report of each sort is judged
    (:func:`~mtra.spaces.first_of_each_sort`), since the same sort gives
    the same row; a report sorted as the truth is skipped.  A
    :class:`~mtra.spaces.Family` (the exhaustive misreport spaces and the
    CPT search's nets) is shape-checked and sorted once per process and
    tie-break, into its :meth:`~mtra.spaces.Family.table`, so each report
    costs a row and a memo lookup here.  Any other reports, sampled or
    supplied by the caller, are checked, sorted and deduplicated one at a
    time as they are read, and nothing of them is kept.  Under exact MRP
    (:class:`~mtra.mechanisms.MrpTurns`) the agent's misreports are first
    decided by the contour bound, before any row is read: if no upper
    contour set can be won in a larger share than the truth gives it
    (:meth:`~mtra.mechanisms.MrpTurns.most`), no report manipulates
    under either strength, so the reports are read for their checks and
    none is judged.  Many sorts still
    give the agent the same row, so each distinct row (numerators and
    denominator) is judged once, by one integer comparison: its upper
    contour sums cross-multiplied with the truthful sums.  Equal sums
    mean equal rows.
    A manipulating report is run from scratch for the witness by
    :meth:`runs.fresh <mtra.mechanisms.MpsReruns.fresh>`, whose output
    must give the row it was judged by and equal :meth:`runs.rerun
    <mtra.mechanisms.MpsReruns.rerun>`; the witness records ``runs.tiebreak``.
    """
    if strength not in ("sd", "weak"):
        raise ValueError(f"unknown strategyproofness strength {strength!r}")
    instance, truth, j = runs.instance, runs.truth, agent
    if not 0 <= j < instance.n:
        raise DimensionMismatch(f"agent {j} is not one of the {instance.n} agents")
    if isinstance(reports, spaces.Family):
        table = zip(*reports.table(instance, j, runs.tiebreaks[j]))
    else:
        table = spaces.first_of_each_sort(instance, j, runs.tiebreaks[j], reports)
    masks = _ucs_masks(instance.orders[j])
    truth_sums = _contour_sums(masks, _held(truth.nums[j]))
    if isinstance(runs, MrpTurns) and _at_least(truth_sums, truth.den, runs.most(j, masks), runs.total):
        for _ in table:  # no report can gain: each is still read, so its checks still run
            pass
        return
    verdicts: dict[tuple[tuple[int, ...], int], bool] = {}
    own = runs.sorts[j]
    for sort, report in table:
        if sort == own:
            continue
        nums, den = key = runs.row(j, sort)
        verdict = verdicts.get(key)
        if verdict is None:
            sums = _contour_sums(masks, _held(nums))
            verdict = not _at_least(truth_sums, truth.den, sums, den)
            if strength == "weak":
                verdict = verdict and _at_least(sums, den, truth_sums, truth.den)
            verdicts[key] = verdict
        if verdict:
            lied = runs.fresh(j, report)
            judged_row = all(v * den == w * lied.den for v, w in zip(lied.nums[j], nums))
            if not judged_row or lied != runs.rerun(j, sort):
                raise SoundnessError(f"agent {j}'s row differs from the mechanism's on the re-run")
            yield ManipulationWitness(j, report, truth, lied, runs.tiebreak)


def _tiebreaks(instance: Instance, tiebreaks: Iterable[Tiebreak] | None) -> tuple[Tiebreak, ...]:
    """The tie-breaks a mechanism-level check runs under, by default the
    sweep's; none would run the mechanism not once and pass."""
    tiebreaks = spaces.sweep_tiebreaks(instance.m) if tiebreaks is None else tuple(tiebreaks)
    if not tiebreaks:
        raise ValueError("a mechanism-level check needs at least one tie-break")
    return tiebreaks


def check_strategyproofness(
    mechanism: str,
    instance: Instance,
    misreports: spaces.MisreportSpace,
    strength: str = "sd",
    tiebreaks: Iterable[Tiebreak] | None = None,
) -> PropertyReport:
    """sd: truth-telling sd-dominates every misreport.
    weak: no misreport sd-dominates truth-telling unless it leaves the
    agent's own row unchanged.

    The mechanism runs once per tie-break, with the truth
    (:func:`~mtra.mechanisms.reruns`), and each agent's misreports are
    judged against that run by :func:`manipulations`.  The first
    witness, by tie-break and then agent, fails the check.
    """
    if strength not in ("sd", "weak"):
        raise ValueError(f"unknown strategyproofness strength {strength!r}")
    name = ("sd" if strength == "sd" else "weak-sd") + "-strategyproofness"
    detail = f"{mechanism} against {misreports.describe()}"
    for tb in _tiebreaks(instance, tiebreaks):
        runs = reruns(mechanism, instance, tb)
        for j in range(instance.n):
            reports = misreports.for_agent(instance, j)
            witness = next(manipulations(runs, j, reports, strength), None)
            if witness is not None:
                return PropertyReport(name, False, witness=witness, detail=detail)
    return PropertyReport(name, True, detail=detail)


def check_upper_invariance(
    mechanism: str,
    instance: Instance,
    transforms: spaces.TransformSource,
    tiebreaks: Iterable[Tiebreak] | None = None,
) -> PropertyReport:
    """The pivot column of the output must survive every valid upper
    invariant transformation of any single agent's preference.

    The transformed output comes from :func:`~mtra.mechanisms.reruns`,
    so no instance is copied per transformation.  The first failing one
    is run from scratch for the witness (:meth:`~mtra.mechanisms.MpsReruns.fresh`),
    and that output must equal the one it was judged by.
    """
    detail = f"{mechanism} against {transforms.describe()}"
    for tb in _tiebreaks(instance, tiebreaks):
        runs = reruns(mechanism, instance, tb)
        truth = runs.truth
        seen: dict[tuple[int, prefs.PartialOrder], FractionalAssignment] = {}
        for j, report, pivot in transforms.candidates(instance, truth):
            instance._check_preference(j, report)
            new = prefs.as_order(report)
            valid, _ = prefs.is_uit(instance.orders[j], new, pivot, truth.nums[j])
            if not valid:
                continue
            key = (j, new)
            lied = seen.get(key)
            if lied is None:
                lied = seen[key] = runs.rerun(j, new.sort(runs.tiebreaks[j]))
            for k in range(instance.n):
                if lied.nums[k][pivot] * truth.den != truth.nums[k][pivot] * lied.den:
                    fresh = runs.fresh(j, report)
                    if fresh != lied:
                        raise SoundnessError(f"agent {j}'s transformation re-runs to another output")
                    return PropertyReport(
                        "upper-invariance",
                        False,
                        witness=InvarianceWitness(j, report, pivot, truth, fresh, tb),
                        detail=detail,
                    )
    return PropertyReport("upper-invariance", True, detail=detail)
