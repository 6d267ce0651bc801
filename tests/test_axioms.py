import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import independent_net
from mtra import axioms, fixtures, spaces
from mtra import preferences as prefs
from mtra.axioms import (
    FarkasWitness,
    InvarianceWitness,
    ManipulationWitness,
    PropertyReport,
    _sd_efficiency_lp,
    check_decomposability,
    check_envy,
    check_ete,
    check_ex_post_efficiency,
    check_ordinal_fairness,
    check_sd_efficiency,
    check_strategyproofness,
    check_upper_invariance,
    find_generalized_cycle,
    improvable_tuples,
    manipulations,
    sd_compare,
    ucs_sums,
)
from mtra.errors import (
    DimensionMismatch,
    InstanceTooLargeToDecide,
    MisreportSpaceTooLarge,
    MissingPreference,
    MtraError,
    ParseError,
    SoundnessError,
    UniverseMismatch,
)
from mtra.io import build_instance
from mtra.lp import EQ, LinearProgram, solve
from mtra.mechanisms import MrpExact, MrpTurns, mgd, mgd_decompose, mps, mrp, reruns, resolve_sorts
from mtra.model import (
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    Lottery,
    all_discrete_assignments,
    from_discrete,
    validate_assignment,
)

F = Fraction


def run_mechanism(mechanism, instance, tiebreak):
    """The public mechanism's exact output: what the references re-run,
    bypassing :func:`mtra.mechanisms.reruns`."""
    if mechanism == "mps":
        return mps(instance, tiebreak)[0]
    if mechanism == "mgd":
        return mgd(instance, tiebreak)
    return mrp(instance, MrpExact(), tiebreak).assignment


# -- sd_compare ----------------------------------------------------------------


def test_sd_compare_reference_tables(mixed_pair):
    a1, a2, a3 = fixtures.assignment_1(), fixtures.assignment_2(), fixtures.assignment_3()
    for j in range(2):
        assert sd_compare(mixed_pair.orders[j], a2.row(j), a3.row(j)).p_dominates_q
    assert not sd_compare(mixed_pair.orders[1], a2.row(1), a1.row(1)).p_dominates_q
    # for the first agent the reverse comparison is a strict dominance
    assert sd_compare(mixed_pair.orders[0], a1.row(0), a2.row(0)).p_dominates_q
    # for the second agent the two rows are incomparable
    verdict = sd_compare(mixed_pair.orders[1], a1.row(1), a2.row(1))
    assert not verdict.p_dominates_q and not verdict.q_dominates_p


def test_sd_compare_reflexive_and_mutual_implies_equal():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.choice([2, 3, 4])
        order = spaces.random_partial_order(rng, m)
        cuts = sorted(rng.randint(0, 6) for _ in range(m - 1))
        row = tuple(
            F(b - a, 6) for a, b in zip([0] + cuts, cuts + [6])
        )
        verdict = sd_compare(order, row, row)
        assert verdict.p_dominates_q and verdict.q_dominates_p
        other_cuts = sorted(rng.randint(0, 6) for _ in range(m - 1))
        other = tuple(F(b - a, 6) for a, b in zip([0] + other_cuts, other_cuts + [6]))
        both = sd_compare(order, row, other)
        if both.p_dominates_q and both.q_dominates_p:
            assert row == other


def test_sd_compare_transitive():
    rng = random.Random(37)
    for _ in range(60):
        m = rng.choice([2, 3])
        order = spaces.random_partial_order(rng, m)
        rows = []
        for _ in range(3):
            cuts = sorted(rng.randint(0, 4) for _ in range(m - 1))
            rows.append(tuple(F(b - a, 4) for a, b in zip([0] + cuts, cuts + [4])))
        a, b, c = rows
        if (
            sd_compare(order, a, b).p_dominates_q
            and sd_compare(order, b, c).p_dominates_q
        ):
            assert sd_compare(order, a, c).p_dominates_q


def test_sd_compare_universe_mismatch(mixed_pair):
    with pytest.raises(UniverseMismatch):
        sd_compare(mixed_pair.orders[0], (F(1),), (F(1),))
    chain = prefs.PartialOrder.from_chain([0, 1, 2])
    for row in ([F(1, 2), F(1, 2), 0, 5], [F(1, 2), F(1, 2)]):
        with pytest.raises(UniverseMismatch):
            ucs_sums(chain, row)


# -- improvable tuples / generalized cycles -------------------------------------


def test_improvable_tuples_third_table(mixed_pair):
    bn = mixed_pair.bundle_by_name
    pairs = {(t.better, t.worse) for t in improvable_tuples(mixed_pair, fixtures.assignment_3())}
    assert pairs == {
        (bn["1F1B"], bn["1F2B"]),
        (bn["1F1B"], bn["2F1B"]),
        (bn["1F2B"], bn["2F1B"]),
        (bn["2F2B"], bn["2F1B"]),
    }


def test_improvable_tuples_global_optimum_empty(mixed_pair):
    bn = mixed_pair.bundle_by_name
    # both agents on their unique tops: agent 1 at 1F1B, agent 2 at 2F2B
    disc = DiscreteAssignment((bn["1F1B"], bn["2F2B"]))
    assert improvable_tuples(mixed_pair, from_discrete(mixed_pair, disc)) == ()


def test_improvable_tuples_first_table(mixed_pair):
    bn = mixed_pair.bundle_by_name
    pairs = {(t.better, t.worse) for t in improvable_tuples(mixed_pair, fixtures.assignment_1())}
    assert pairs == {(bn["1F1B"], bn["1F2B"])}


def test_generalized_cycle_third_table(mixed_pair):
    cycle = find_generalized_cycle(mixed_pair, fixtures.assignment_3())
    assert cycle is not None and len(cycle) == 4


def test_generalized_cycle_absent_for_eating_outputs():
    rng = random.Random(41)
    for _ in range(20):
        inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), "general")
        out, _ = mps(inst)
        assert find_generalized_cycle(inst, out) is None


def test_generalized_cycle_empty_imp(mixed_pair):
    bn = mixed_pair.bundle_by_name
    disc = DiscreteAssignment((bn["1F1B"], bn["2F2B"]))
    assert find_generalized_cycle(mixed_pair, from_discrete(mixed_pair, disc)) is None


# -- efficiency oracles ----------------------------------------------------------


def test_sd_efficiency_fails_for_third_table(mixed_pair):
    report = check_sd_efficiency(mixed_pair, fixtures.assignment_3())
    assert not report.passed
    for j in range(2):
        assert sd_compare(
            mixed_pair.orders[j], report.witness.row(j), fixtures.assignment_3().row(j)
        ).p_dominates_q


def test_sd_efficiency_uniform_opposed_trio(opposed_trio):
    # trade finds its own dominating assignment; the exact LP's unique
    # optimum, the paper's assignment_6, is pinned in test_lp.py
    uniform = fixtures.assignment_5()
    report = check_sd_efficiency(opposed_trio, uniform)
    assert not report.passed
    assert_dominates(opposed_trio, report.witness, uniform)


def test_sd_efficiency_serial_outcomes_pass(mixed_pair):
    from mtra.mechanisms import resolve_sorts, serial_dictatorship

    sorts = resolve_sorts(mixed_pair, fixtures.sort_a(mixed_pair))
    for priority in ([0, 1], [1, 0]):
        disc = serial_dictatorship(mixed_pair, sorts, priority)
        assert check_sd_efficiency(mixed_pair, from_discrete(mixed_pair, disc)).passed


def _dominated_per_cell(instance, P):
    # independent formulation for a valid P: P is dominated iff, for some
    # single cell (j, x), a direction D at P (row and item sums 0, D >= 0
    # where P is 0) keeps every upper-contour sum >= 0 and raises that
    # cell's by 1; each cell is one feasibility program, over D = D+ - D-
    from mtra.lp import Constraint, LinearProgram, solve

    n, m = instance.n, instance.m
    cells = [(j, x) for j in range(n) for x in range(m)]
    held = [(j, x) for j, x in cells if P.nums[j][x]]
    nv = len(cells) + len(held)

    def row(weights, rel, rhs):
        # weights per cell of D, spread over its D+ and D- columns
        coeffs = [weights.get(cell, 0) for cell in cells] + [-weights.get(cell, 0) for cell in held]
        return Constraint(tuple(coeffs), rel, rhs)

    base_cons = [row({(j, x): 1 for x in range(m)}, "=", 0) for j in range(n)]
    for o in range(n * instance.p):
        items = {(j, x): 1 for j in range(n) for x in range(m) if o in instance.bundle_items[x]}
        base_cons.append(row(items, "=", 0))
    contour = {
        (j, x): {(j, y): 1 for y in range(m) if instance.orders[j].ucs_mask(x) >> y & 1} for j, x in cells
    }
    base_cons += [row(contour[cell], ">=", 0) for cell in cells]
    return any(solve(LinearProgram(nv, (*base_cons, row(contour[cell], "=", 1)))).optimal for cell in cells)


def test_sd_efficiency_oracle_matches_per_cell_formulation():
    rng = random.Random(79)
    from mtra.model import all_discrete_assignments

    disagreements = 0
    for _ in range(25):
        inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), "general")
        if inst.m > 4:
            continue
        assignments = all_discrete_assignments(inst)
        picks = rng.sample(assignments, k=min(rng.randint(1, 3), len(assignments)))
        rows = [[Fraction(0)] * inst.m for _ in range(inst.n)]
        for disc in picks:
            for j, x in enumerate(disc.bundles):
                rows[j][x] += Fraction(1, len(picks))
        P = FractionalAssignment.from_rows(rows)
        aggregate = check_sd_efficiency(inst, P).passed
        per_cell = not _dominated_per_cell(inst, P)
        if aggregate != per_cell:
            disagreements += 1
    assert disagreements == 0


def test_no_cycle_implies_efficient_on_random_lotteries():
    # random mixtures of discrete assignments, screened by the cycle
    # certificate, must pass the exact LP, which does not consult it
    rng = random.Random(43)
    from mtra.model import all_discrete_assignments

    checked = 0
    for _ in range(30):
        inst = spaces.random_profile(rng, 2, rng.choice([1, 2]), "general")
        assignments = all_discrete_assignments(inst)
        picks = rng.sample(assignments, k=min(2, len(assignments)))
        weights = [F(1, len(picks))] * len(picks)
        rows = [[F(0)] * inst.m for _ in range(inst.n)]
        for w, disc in zip(weights, picks):
            for j, x in enumerate(disc.bundles):
                rows[j][x] += w
        P = FractionalAssignment.from_rows(rows)
        if find_generalized_cycle(inst, P) is None:
            checked += 1
            assert _sd_efficiency_lp(inst, P).passed
    assert checked > 0


def reference_generalized_cycle(instance, P):
    """The former `find_generalized_cycle`: the improvable pairs as a set
    of tuples, pruned until every left item appears on some right side."""
    pairs = {(t.better, t.worse) for t in improvable_tuples(instance, P)}
    while pairs:
        right_items = {o for _, worse in pairs for o in instance.bundle_items[worse]}
        keep = {
            (better, worse)
            for better, worse in pairs
            if all(o in right_items for o in instance.bundle_items[better])
        }
        if keep == pairs:
            return frozenset(pairs)
        pairs = keep
    return None


def _sd_efficiency_cases():
    """On seeded profiles of every kind: each mechanism's output under
    both sweep tie-breaks, random mixtures of discrete assignments, and
    at (2,2) every discrete assignment."""
    rng = random.Random(109)
    for n, p in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (3, 3)):
        for kind in ("general", "cpnet", "independent") * 2:
            inst = spaces.random_profile(rng, n, p, kind)
            for tb in spaces.sweep_tiebreaks(inst.m):
                for mech in ("mps", "mgd", "mrp"):
                    yield inst, run_mechanism(mech, inst, tb)
            assignments = all_discrete_assignments(inst)
            for _ in range(3):
                picks = rng.sample(assignments, k=2)
                weights = [rng.randint(1, 4) for _ in picks]
                lottery = Lottery(tuple((F(w, sum(weights)), a) for w, a in zip(weights, picks)))
                yield inst, lottery.expectation(inst)
            if (n, p) == (2, 2):
                for a in assignments:
                    yield inst, from_discrete(inst, a)


def assert_dominates(instance, Q, P):
    """Q is another valid assignment that sd-dominates P for every agent,
    checked with the public functions alone."""
    assert validate_assignment(Q, instance) is None and Q != P
    for j in range(instance.n):
        assert sd_compare(instance.orders[j], Q.row(j), P.row(j)).p_dominates_q


def test_sd_efficiency_matches_the_lp(monkeypatch):
    # the verdict must be the LP's; a failure's witness may be trade's
    # own dominating assignment, so it is re-verified, not compared
    fallbacks = _record_calls(monkeypatch, "_sd_efficiency_lp")
    seen = {"pass": 0, "fail": 0, "cyclic pass": 0, "trade fail": 0, "lp fallback": 0}
    for inst, P in _sd_efficiency_cases():
        cycle = find_generalized_cycle(inst, P)
        assert cycle == reference_generalized_cycle(inst, P)
        fallbacks.clear()
        report = check_sd_efficiency(inst, P)
        decided_by_lp = bool(fallbacks)
        assert report.passed == _sd_efficiency_lp(inst, P).passed
        assert report.detail == ""
        if report.passed:
            assert report.witness is None
        else:
            assert_dominates(inst, report.witness, P)
        seen["pass" if report.passed else "fail"] += 1
        seen["cyclic pass"] += report.passed and cycle is not None
        if cycle is not None:
            seen["lp fallback" if decided_by_lp else "trade fail"] += 1
            # trade decides failures, and the passes of a P with den 1
            assert decided_by_lp or not report.passed or P.den == 1
            assert not (decided_by_lp and P.den == 1)
    assert all(seen.values()), seen


def test_trade_alone_decides_discrete_assignments(monkeypatch):
    # a point-mass row is sd-dominated only by moving its unit upward, so
    # trade is exact for a discrete assignment under any orders
    calls = _record_calls(monkeypatch, "_sd_efficiency_lp")
    cyclic_efficient = 0
    for seed in range(6):
        rng = random.Random(seed)
        for n, p in ((2, 2), (3, 2), (3, 1), (2, 3)):
            for kind in ("general", "cpnet"):
                inst = spaces.random_profile(rng, n, p, kind)
                for a in all_discrete_assignments(inst):
                    P = from_discrete(inst, a)
                    report = check_sd_efficiency(inst, P)
                    assert calls == []
                    assert report.passed == _sd_efficiency_lp(inst, P).passed
                    cyclic_efficient += report.passed and find_generalized_cycle(inst, P) is not None
    assert cyclic_efficient > 0


def _linear_order_cases():
    """Seeded profiles in which every agent has a linear order, at (2,2)
    to (4,2): each mechanism's output under both sweep tie-breaks, and
    random mixtures of discrete assignments."""
    rng = random.Random(113)
    for n in (2, 3, 4):
        for _ in range(6 if n < 4 else 3):
            chains = []
            for _ in range(n):
                perm = list(range(n * n))
                rng.shuffle(perm)
                chains.append(prefs.PartialOrder.from_chain(perm))
            if rng.random() < 0.3:
                chains[1] = chains[0]
            inst = Instance(spaces.square_types(n, 2), tuple(chains))
            for tb in spaces.sweep_tiebreaks(inst.m):
                for mech in ("mps", "mgd", "mrp"):
                    yield inst, run_mechanism(mech, inst, tb)
            assignments = all_discrete_assignments(inst)
            for _ in range(3):
                picks = rng.sample(assignments, k=rng.randint(1, 3))
                weights = [rng.randint(1, 4) for _ in picks]
                lottery = Lottery(tuple((F(w, sum(weights)), a) for w, a in zip(weights, picks)))
                yield inst, lottery.expectation(inst)


def test_trade_is_exact_under_linear_orders(monkeypatch):
    # under linear orders every up-set is a contour set, so a dominating
    # change splits into upward moves (Gale's theorem): a cyclic P that
    # trade cannot improve is efficient; a discrete one passes on trade
    # alone
    fallbacks = _record_calls(monkeypatch, "_sd_efficiency_lp")
    seen = {"trade fail": 0, "lp fallback": 0}
    for inst, P in _linear_order_cases():
        if find_generalized_cycle(inst, P) is None:
            continue
        fallbacks.clear()
        report = check_sd_efficiency(inst, P)
        if fallbacks:
            assert report.passed and P.den != 1
            seen["lp fallback"] += 1
        elif report.passed:
            assert P.den == 1
        else:
            assert_dominates(inst, report.witness, P)
            seen["trade fail"] += 1
    assert all(seen.values()), seen


_TRADE_TAMPER = """
import dataclasses
import sys
from mtra import axioms, fixtures
from mtra.errors import MtraError, SoundnessError

if __debug__ or issubclass(SoundnessError, MtraError):
    sys.exit("expected python -O and a SoundnessError outside MtraError")
real = axioms.solve
for name, perturb in (
    ("unbalanced", lambda flow: [2 * flow[0]] + flow[1:]),
    ("reversed", lambda flow: [-f for f in flow]),
):
    def tampered(lp, perturb=perturb):
        out = real(lp)
        if out.optimal:
            return dataclasses.replace(out, witness=tuple(perturb(list(out.witness))))
        return out

    axioms.solve = tampered
    try:
        axioms.check_sd_efficiency(fixtures.opposed_trio(), fixtures.assignment_5())
    except SoundnessError as exc:
        print(name, "caught:", exc)
    else:
        print(name, "missed")
"""


def test_trade_soundness_checks_survive_python_O():
    # the trade flow is perturbed after the LP layer verified it: the
    # assignment it builds must be refused, with asserts stripped
    src = str(Path(axioms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TRADE_TAMPER], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "unbalanced caught: the dominating witness is not another valid assignment",
        "reversed caught: the witness does not sd-dominate P for agent 0",
    ]


# the first two seeds at each size whose exact mrp output has a
# generalized cycle; the exact LP took 0.9-48 s on each of them
TRADE_DECIDED_MRP_SEEDS = {(5, 2): (0, 1), (6, 2): (0, 1), (4, 3): (0, 1)}


@pytest.mark.parametrize("size", list(TRADE_DECIDED_MRP_SEEDS), ids=str)
def test_trade_decides_cyclic_mrp_outputs_without_the_lp(monkeypatch, size):
    def refuse(instance, P):
        raise AssertionError("the exact LP was consulted")

    monkeypatch.setattr(axioms, "_sd_efficiency_lp", refuse)
    n, p = size
    for seed in TRADE_DECIDED_MRP_SEEDS[size]:
        inst = spaces.random_profile(random.Random(seed), n, p, "general")
        P = mrp(inst, MrpExact()).assignment
        assert find_generalized_cycle(inst, P) is not None
        report = check_sd_efficiency(inst, P)
        assert not report.passed
        assert_dominates(inst, report.witness, P)


def test_sd_efficiency_refuses_wrong_shapes(mixed_pair):
    # three agents, three bundles, one agent: none is a 2 x 4 matrix
    quarters, thirds = [F(1, 4)] * 4, [F(1, 3)] * 3
    for rows in ([quarters] * 3, [thirds] * 2, [quarters]):
        with pytest.raises(DimensionMismatch):
            check_sd_efficiency(mixed_pair, FractionalAssignment.from_rows(rows))


@pytest.mark.parametrize(
    "check",
    [
        lambda inst, P: validate_assignment(P, inst),
        check_sd_efficiency,
        check_envy,
        check_ete,
        check_ordinal_fairness,
        check_decomposability,
        check_ex_post_efficiency,
    ],
    ids=["validate", "sd-efficiency", "envy", "ete", "ordinal-fairness", "decomposability", "ex-post"],
)
def test_checkers_refuse_wrong_shapes(mixed_pair, check):
    # mixed_pair needs a 2 x 4 matrix; a ragged one is refused when it is
    # built, the others by the checker before it reads P
    ragged = ((1, 0, 0, 0), (0, 0, 1))
    for nums in (ragged, ((1, 0, 0), (0, 0, 1)), ((1, 0, 0, 0),), ((1, 0, 0, 0),) * 3):
        with pytest.raises(DimensionMismatch):
            check(mixed_pair, FractionalAssignment(nums, 1))


def test_sd_efficiency_decides_invalid_rows_by_the_lp(mixed_pair):
    # rows summing to 1/2 hold no generalized cycle, but the lemma is
    # about valid assignments only: the LP finds one that dominates them
    P = FractionalAssignment.from_rows([["1/2", 0, 0, 0], [0, 0, 0, "1/2"]])
    assert find_generalized_cycle(mixed_pair, P) is None
    report = check_sd_efficiency(mixed_pair, P)
    assert not report.passed
    assert_dominates(mixed_pair, report.witness, P)


def test_sd_efficiency_passes_invalid_rows_no_assignment_dominates(mixed_pair):
    # these rows have contour sums past 1, which no valid assignment
    # reaches: the domination LP is empty, and no Q dominates P
    for rows in ([[1, 1, 0, 0], [0, 0, 0, 0]], [[2, 0, 0, 0], [0, 0, 0, 0]], [["3/2", 0, 0, 0], [0, 0, 0, "1/2"]]):
        P = FractionalAssignment.from_rows(rows)
        assert validate_assignment(P, mixed_pair) is not None
        assert check_sd_efficiency(mixed_pair, P) == PropertyReport("sd-efficiency", True)


# The benchmark's seed-0 audit rounds (perfbench/workloads.py): their
# sizes in order, and per round the ops whose exact mrp output reaches
# _sd_efficiency_lp through check_sd_efficiency.
AUDIT_SIZES = (
    ((2, 1),) * 7 + ((2, 2),) * 7 + ((3, 1),) * 18 + ((4, 1),) * 4 + ((5, 1),) * 6
    + ((3, 2),) * 6 + ((4, 2), (3, 3))
)
AUDIT_LP_OPS = {1: (48,), 2: (42,), 3: (44,), 4: (42,), 5: (45,), 6: (42, 45, 49)}


def _audit_lp_cases():
    kinds = ("general", "cpnet", "independent")
    for r, ops in AUDIT_LP_OPS.items():
        rng = random.Random(f"audit:0:{r}")
        for i, (n, p) in enumerate(AUDIT_SIZES[: max(ops) + 1]):
            inst = spaces.random_profile(rng, n, p, kinds[(i + r) % 3])
            if i in ops:
                tiebreak = spaces.sweep_tiebreaks(inst.m)[(i + r) % 2]
                yield inst, run_mechanism("mrp", inst, tiebreak)


def _efficiency_reference_cases():
    """Valid and invalid P's, cyclic and acyclic: mechanism outputs,
    random mixtures of discrete assignments and random share matrices
    (invalid more often than not), then the P's of the audit rounds and
    the opposed trio's uniform matrix."""
    rng = random.Random(127)
    for n, p in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        for kind in ("general", "cpnet", "independent"):
            inst = spaces.random_profile(rng, n, p, kind)
            for tb in spaces.sweep_tiebreaks(inst.m):
                for mech in ("mps", "mgd", "mrp"):
                    yield inst, run_mechanism(mech, inst, tb)
            assignments = all_discrete_assignments(inst)
            for _ in range(3):
                picks = rng.sample(assignments, k=min(len(assignments), rng.randint(2, 3)))
                weights = [rng.randint(1, 4) for _ in picks]
                yield inst, Lottery(tuple((F(w, sum(weights)), a) for w, a in zip(weights, picks))).expectation(inst)
                rows = [[rng.randint(0, 2) for _ in range(inst.m)] for _ in range(n)]
                yield inst, FractionalAssignment(tuple(map(tuple, rows)), max(map(sum, rows)) or 1)
    yield from _audit_lp_cases()
    yield fixtures.opposed_trio(), fixtures.assignment_5()


def _highs_dominated(instance, P, linprog):
    """The maximum-depth program, solved in floats by scipy's HiGHS: the
    largest sum of downset_size_j(y) Q_jy over valid Q whose contour sums
    are at least P's.  P is dominated iff that program is feasible and
    its maximum exceeds P's own depth sum."""
    n, m = instance.n, instance.m
    cells = [(j, x) for j in range(n) for x in range(m)]
    a_eq = [[float(k == j) for k, _ in cells] for j in range(n)]
    a_eq += [[float(holders >> x & 1) for _, x in cells] for holders in instance.item_bundles]
    a_ub, b_ub = [], []
    for j, order in enumerate(instance.orders):
        for x, total in enumerate(ucs_sums(order, P.row(j))):
            a_ub.append([-float(k == j and order.ucs_mask(x) >> y & 1) for k, y in cells])
            b_ub.append(-float(total))
    depth = [instance.orders[j].downset_size(x) for j, x in cells]
    res = linprog(
        [-d for d in depth], A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0] * len(a_eq), bounds=(0, None), method="highs"
    )
    if res.status == 2:
        return False
    assert res.status == 0
    return -res.fun > sum(d * float(P.entry(j, x)) for d, (j, x) in zip(depth, cells)) + 1e-7


def test_sd_efficiency_lp_matches_both_references(monkeypatch):
    # the exact per-cell direction programs (valid P's) and HiGHS on the
    # maximum-depth program (every P) give the same verdict; every
    # failure's witness is re-checked with the public functions
    linprog = pytest.importorskip("scipy.optimize").linprog
    seen = Counter()
    for inst, P in _efficiency_reference_cases():
        valid = validate_assignment(P, inst) is None
        report = _sd_efficiency_lp(inst, P)
        if not report.passed:
            assert_dominates(inst, report.witness, P)
        assert report.passed != _highs_dominated(inst, P, linprog)
        if valid:
            assert report.passed != _dominated_per_cell(inst, P)
        seen["valid" if valid else "invalid", find_generalized_cycle(inst, P) is not None, report.passed] += 1
    # valid and invalid P's, cyclic and acyclic, pass and fail; a valid
    # acyclic P always passes (the no-cycle lemma)
    assert {key[:2] for key in seen} == {(v, c) for v in ("valid", "invalid") for c in (True, False)}, seen
    assert {key[::2] for key in seen} == {(v, c) for v in ("valid", "invalid") for c in (True, False)}, seen
    assert ("valid", True, True) in seen and ("valid", False, False) not in seen, seen
    # the audit cases are the ones check_sd_efficiency sends to the LP
    calls = _record_calls(monkeypatch, "_sd_efficiency_lp")
    for inst, P in _audit_lp_cases():
        check_sd_efficiency(inst, P)
    assert len(calls) == sum(map(len, AUDIT_LP_OPS.values()))


_EFFICIENCY_LP_TAMPER = """
import dataclasses
import sys
from mtra import axioms, fixtures, lp, mps
from mtra.errors import MtraError, SoundnessError

if __debug__ or issubclass(SoundnessError, MtraError):
    sys.exit("expected python -O and a SoundnessError outside MtraError")
trio, uniform = fixtures.opposed_trio(), fixtures.assignment_5()
pair = fixtures.mixed_pair()
efficient = mps(pair)[0]
if axioms._sd_efficiency_lp(trio, uniform).passed or not axioms._sd_efficiency_lp(pair, efficient).passed:
    sys.exit("untampered, the uniform matrix fails and the mps output passes")
real_solve, real_simplex = axioms.solve, lp._simplex


def doubled(program):
    # the direction the LP layer verified, its first nonzero entry doubled
    out = real_solve(program)
    w = list(out.witness)
    k = next(k for k, v in enumerate(w) if v)
    w[k] *= 2
    return dataclasses.replace(out, witness=tuple(w))


def negated(*args):
    # the Farkas certificate, negated before the LP layer verifies it
    out = real_simplex(*args)
    return out if out.optimal else dataclasses.replace(out, certificate=tuple(-v for v in out.certificate))


for name, module, attr, tampered, inst, P in (
    ("direction", axioms, "solve", doubled, trio, uniform),
    ("certificate", lp, "_simplex", negated, pair, efficient),
):
    real = getattr(module, attr)
    setattr(module, attr, tampered)
    try:
        axioms._sd_efficiency_lp(inst, P)
    except SoundnessError as exc:
        print(name, "caught:", exc)
    else:
        print(name, "missed")
    setattr(module, attr, real)
"""


def test_efficiency_lp_soundness_checks_survive_python_O():
    # a feasible direction perturbed after the LP layer verified it, and
    # a certificate perturbed before it does: each is refused, with
    # asserts stripped
    src = str(Path(axioms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _EFFICIENCY_LP_TAMPER], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "direction caught: the dominating witness is not another valid assignment",
        "certificate caught: certificate fails on column 1",
    ]

# -- envy / ete / ordinal fairness ------------------------------------------------


def test_envy_eating_output_strong_on_cp_profiles():
    rng = random.Random(47)
    for _ in range(15):
        inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), "cpnet")
        out, _ = mps(inst)
        assert check_envy(inst, out, "strong").passed
        assert check_ordinal_fairness(inst, out).passed


def test_envy_weak_fails_three_chains(three_chains):
    report = check_envy(three_chains, mgd(three_chains), "weak")
    assert not report.passed
    assert (report.witness.agent, report.witness.other) == (1, 0)


def test_unknown_strength_is_refused(three_chains):
    P = mgd(three_chains)
    with pytest.raises(ValueError, match="'Strong'"):
        check_envy(three_chains, P, "Strong")
    with pytest.raises(ValueError, match="'SD'"):
        check_strategyproofness("mgd", three_chains, spaces.LinearOrderMisreports(), "SD", tiebreaks=[None])


def test_envy_uniform_identical_prefs():
    inst = build_instance(
        {
            "agents": 2,
            "types": [{"name": "F", "items": ["1F", "2F"]}],
            "preferences": [{"kind": "partial", "edges": [["1F", "2F"]]}] * 2,
        }
    )
    uniform = FractionalAssignment.from_rows([["1/2", "1/2"]] * 2)
    assert check_envy(inst, uniform, "strong").passed


def pairwise_envy(instance, P, strength="strong"):
    """Reference envy check (the former `check_envy`): one `sd_compare`
    per ordered pair of agents."""
    name = "sd-envy-freeness" if strength == "strong" else "weak-sd-envy-freeness"
    for j in range(instance.n):
        order = instance.orders[j]
        for k in range(instance.n):
            if j == k:
                continue
            if strength == "strong":
                if not sd_compare(order, P.row(j), P.row(k)).p_dominates_q:
                    return PropertyReport(name, False, witness=axioms.EnvyWitness(j, k))
            else:
                verdict = sd_compare(order, P.row(k), P.row(j))
                if verdict.p_dominates_q and P.row(j) != P.row(k):
                    return PropertyReport(name, False, witness=axioms.EnvyWitness(j, k))
    return PropertyReport(name, True)


DIFFERENTIAL_SIZES = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1), (2, 3), (3, 3), (4, 2), (6, 1))


def differential_cases(seed, count):
    """``count`` seeded instances at ``DIFFERENTIAL_SIZES``, each with its
    matrices: the three mechanisms' outputs under a sweep tie-break, a
    random mixture of discrete assignments (so envy fails too), and two
    nonnegative integer matrices that are not assignments, the second
    with two equal rows."""
    rng = random.Random(seed)
    for _ in range(count):
        n, p = rng.choice(DIFFERENTIAL_SIZES)
        inst = spaces.random_profile(rng, n, p, rng.choice(["general", "cpnet", "independent"]))
        tb = rng.choice(spaces.sweep_tiebreaks(inst.m))
        outputs = [run_mechanism(mech, inst, tb) for mech in ("mrp", "mgd", "mps")]
        picks = rng.choices(all_discrete_assignments(inst), k=rng.randint(1, 3))
        weights = [F(rng.randint(1, 5)) for _ in picks]
        rows = [[F(0)] * inst.m for _ in range(inst.n)]
        for w, disc in zip(weights, picks):
            for j, x in enumerate(disc.bundles):
                rows[j][x] += w / sum(weights)
        outputs.append(FractionalAssignment.from_rows(rows))
        ints = [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(inst.m)] for _ in range(inst.n)]
        twins = [*ints[:-1], ints[0]]
        matrices = [FractionalAssignment.from_rows(m) for m in (ints, twins)]
        yield inst, outputs, [M for M in matrices if validate_assignment(M, inst) is not None]


def test_envy_matches_pairwise_reference():
    seen = set()
    for inst, outputs, matrices in differential_cases(109, 80):
        for kind, P in [*(("output", P) for P in outputs), *(("matrix", M) for M in matrices)]:
            for strength in ("strong", "weak"):
                got = check_envy(inst, P, strength)
                assert got == pairwise_envy(inst, P, strength)
                seen.add((kind, strength, got.passed))
    assert len(seen) == 8, seen


def per_bundle_ordinal_fairness(instance, P):
    """Reference ordinal-fairness check (the former `check_ordinal_fairness`):
    every agent's contour sums at all m bundles, compared wherever it
    holds share."""
    sums = [ucs_sums(instance.orders[j], P.row(j)) for j in range(instance.n)]
    for j, row in enumerate(P.nums):
        for x in range(instance.m):
            if row[x] == 0:
                continue
            for k in range(instance.n):
                if k != j and sums[j][x] > sums[k][x]:
                    return PropertyReport("ordinal-fairness", False, witness=axioms.OrdinalFairnessWitness(x, j, k))
    return PropertyReport("ordinal-fairness", True)


def test_ordinal_fairness_matches_per_bundle_reference():
    seen = set()
    for inst, outputs, matrices in differential_cases(113, 60):
        for kind, P in [*(("output", P) for P in outputs), *(("matrix", M) for M in matrices)]:
            got = check_ordinal_fairness(inst, P)
            assert got == per_bundle_ordinal_fairness(inst, P)
            seen.add((kind, got.passed))
    assert seen == {("output", True), ("output", False), ("matrix", True), ("matrix", False)}, seen


def test_sd_dominance_matches_two_sd_compares():
    seen = set()
    for inst, outputs, matrices in differential_cases(127, 60):
        for P, Q in itertools.product(outputs + matrices, repeat=2):
            for j in range(inst.n):
                for order in inst.orders:
                    verdict = sd_compare(order, P.row(j), Q.row(j))
                    want = (verdict.p_dominates_q, sd_compare(order, Q.row(j), P.row(j)).p_dominates_q)
                    assert axioms.sd_dominance(order, P, Q, j) == want
                    seen.add(want)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_ete(three_chains):
    twins = Instance(
        three_chains.types, (three_chains.preferences[0], three_chains.preferences[0], three_chains.preferences[2])
    )
    good = mgd(twins)
    assert check_ete(twins, good).passed
    bad = FractionalAssignment.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    report = check_ete(twins, bad)
    assert not report.passed and (report.witness.agent, report.witness.other) == (0, 1)
    # all-distinct preferences: vacuous pass
    assert check_ete(three_chains, bad).passed


def test_ordinal_fairness_three_chains(three_chains):
    report = check_ordinal_fairness(three_chains, mgd(three_chains))
    assert not report.passed
    w = report.witness
    assert (w.bundle, w.agent, w.other) == (three_chains.bundle_by_name["1F"], 0, 1)


def test_ordinal_fairness_alternative_outcome():
    inst = fixtures.chain_twins()
    bn = inst.bundle_by_name
    P = FractionalAssignment.from_rows(
        [
            [0, "1/2", "1/2", 0],
            [0, "1/2", "1/2", 0],
        ]
    )
    assert check_ordinal_fairness(inst, P).passed
    assert P != mps(inst)[0]


# -- decomposability / ex-post -----------------------------------------------------


def _assert_separates(instance, P, cert):
    """The Farkas certificate, as multipliers of the rows "the weights of
    the assignments giving j bundle x sum to P.entry(j, x)" and "all
    weights sum to 1", proves P no mixture of discrete assignments.
    Checked on every one of the (n!)^p columns, so also on those the LP
    presolve removed (P's zero entries fix them)."""
    n, m = instance.n, instance.m
    assert len(cert) == n * m + 1
    for a in all_discrete_assignments(instance):
        assert sum(cert[j * m + a.bundles[j]] for j in range(n)) + cert[-1] <= 0
    assert sum(cert[j * m + x] * P.entry(j, x) for j in range(n) for x in range(m)) + cert[-1] > 0


def whole_program_lottery(prop, instance, P, assignments):
    """Reference lottery LP over every one of ``assignments`` (the former
    `axioms._lottery_report`): one entry row per (j, x), zero entries
    included, which the LP presolve removes with their columns."""
    nv = len(assignments)
    cols = [[[] for _ in range(instance.m)] for _ in range(instance.n)]
    for k, a in enumerate(assignments):
        for j, x in enumerate(a.bundles):
            cols[j][x].append(k)
    cons = [
        axioms._share_row(nv, cols[j][x], EQ, v, P.den)
        for j, row in enumerate(P.nums)
        for x, v in enumerate(row)
    ]
    cons.append(axioms._share_row(nv, range(nv), EQ, 1))
    out = solve(LinearProgram(nv, tuple(cons)))
    if out.optimal:
        weights = (F(w, out.det) for w in out.witness)
        lottery = Lottery(tuple((w, a) for w, a in zip(weights, assignments) if w > 0))
        assert lottery.expectation(instance) == P
        return PropertyReport(prop, True, witness=lottery)
    scales = [P.den // math.gcd(v, P.den) for row in P.nums for v in row] + [1]
    cert = [y * k for y, k in zip(out.certificate, scales)]
    g = math.gcd(*cert)
    return PropertyReport(prop, False, witness=FarkasWitness(tuple(F(v // g) for v in cert)))


def whole_program_decomposability(instance, P):
    """Reference decomposability check: the lottery LP over all (n!)^p
    discrete assignments."""
    axioms._decomposition_guard(instance)
    return whole_program_lottery("decomposability", instance, P, all_discrete_assignments(instance))


def test_decomposability_dependent_pair(dependent_pair):
    P = fixtures.assignment_3()
    report = check_decomposability(dependent_pair, P)
    assert not report.passed and report.witness.certificate is not None
    _assert_separates(dependent_pair, P, report.witness.certificate)


def test_decomposability_certificates_of_eating_outputs():
    # the LP row of entry (j, x) is scaled by that entry's denominator;
    # the certificate must come back as multipliers of the rows with unit
    # coefficients
    fails = scaled = 0
    for seed in range(40):
        for n, p in ((2, 2), (3, 2)):
            for kind in ("cpnet", "general", "independent"):
                inst = spaces.random_profile(random.Random(seed), n, p, kind)
                P = mps(inst)[0]
                report = check_decomposability(inst, P)
                if report.passed:
                    continue
                _assert_separates(inst, P, report.witness.certificate)
                fails += 1
                scaled += any(v.denominator > 1 for row in P.rows for v in row)
    assert fails > 0 and scaled > 0


def test_decomposability_matches_whole_program_reference():
    # the LP over the supported assignments gives the whole program's
    # lottery; a failure carries the whole program's certificate
    rng = random.Random(109)
    verdicts = {True: 0, False: 0}
    scaled_fails = 0
    for n, p in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)):
        for kind in ("general", "cpnet", "independent"):
            for _ in range(2):
                inst = spaces.random_profile(rng, n, p, kind)
                for tb in spaces.sweep_tiebreaks(inst.m):
                    for mech in ("mrp", "mgd", "mps"):
                        P = run_mechanism(mech, inst, tb)
                        got = check_decomposability(inst, P)
                        assert got == whole_program_decomposability(inst, P)
                        verdicts[got.passed] += 1
                        if not got.passed:
                            scaled_fails += any(v.denominator > 1 for row in P.rows for v in row)
    assert verdicts[True] > 0 and scaled_fails > 0, (verdicts, scaled_fails)


def test_lottery_report_refuses_a_mixture_missed_over_the_supported_assignments(mixed_pair, monkeypatch):
    # a lottery over all the assignments uses only those P supports, so
    # an LP that finds none over them but one over all of them is a fault
    real = axioms.solve
    programs = []

    def first_infeasible(program):
        programs.append(program)
        return SimpleNamespace(optimal=False) if len(programs) == 1 else real(program)

    monkeypatch.setattr(axioms, "solve", first_infeasible)
    message = "P is a mixture of all the assignments but not of those it supports"
    with pytest.raises(SoundnessError, match=message):
        check_decomposability(mixed_pair, mps(mixed_pair)[0])
    assert len(programs) == 2


def test_lottery_expectation_is_checked_on_the_lp_integers(mixed_pair, monkeypatch):
    # a solver whose weights do not give P back is caught before any
    # Fraction or Lottery is built
    real = axioms.solve

    def halved(program):
        out = real(program)
        return dataclasses.replace(out, det=out.det * 2)

    monkeypatch.setattr(axioms, "solve", halved)
    monkeypatch.setattr(axioms, "Lottery", None)
    with pytest.raises(SoundnessError, match="the lottery's expectation is not P"):
        check_decomposability(mixed_pair, mps(mixed_pair)[0])


def test_decomposability_mrp(mixed_pair):
    result = mrp(mixed_pair, MrpExact(), fixtures.sort_a(mixed_pair))
    report = check_decomposability(mixed_pair, result.assignment)
    assert report.passed
    assert report.witness.expectation(mixed_pair) == result.assignment


def test_decomposability_discrete(mixed_pair):
    bn = mixed_pair.bundle_by_name
    P = from_discrete(mixed_pair, DiscreteAssignment((bn["1F1B"], bn["2F2B"])))
    report = check_decomposability(mixed_pair, P)
    assert report.passed and len(report.witness.entries) == 1


def test_decomposability_at_guard_boundary():
    # four agents, one type: 24 discrete assignments, still decidable
    rng = random.Random(71)
    inst = spaces.random_profile(rng, 4, 1, "general")
    result = mrp(inst, MrpExact()).assignment
    assert check_decomposability(inst, result).passed
    assert check_ex_post_efficiency(inst, result).passed


def test_decomposability_guard():
    inst = build_instance(
        {
            "agents": 5,
            "types": [{"name": "F", "items": [f"{i}F" for i in range(1, 6)]}],
            "preferences": [{"kind": "partial", "edges": []}] * 5,
        }
    )
    uniform = FractionalAssignment.from_rows([[F(1, 5)] * 5] * 5)
    with pytest.raises(InstanceTooLargeToDecide):
        check_decomposability(inst, uniform)


def test_ex_post_mrp_passes(mixed_pair):
    result = mrp(mixed_pair, MrpExact(), fixtures.sort_a(mixed_pair))
    assert check_ex_post_efficiency(mixed_pair, result.assignment).passed


def test_ex_post_fails_for_dependent_pair(dependent_pair):
    assert not check_ex_post_efficiency(dependent_pair, fixtures.assignment_3()).passed


_LOTTERY_TAMPER = """
import dataclasses
import sys
from mtra import axioms, fixtures
from mtra.errors import MtraError, SoundnessError
from mtra.mechanisms import MrpExact, mrp

if __debug__ or issubclass(SoundnessError, MtraError):
    sys.exit("expected python -O and a SoundnessError outside MtraError")
real = axioms.solve


def tampered(lp):
    out = real(lp)
    if out.optimal:
        # one unit of weight moves from the first positive entry to the
        # second: still a lottery, but of another expectation
        w = list(out.witness)
        first, second = [k for k, v in enumerate(w) if v][:2]
        w[first] -= 1
        w[second] += 1
        return dataclasses.replace(out, witness=tuple(w))
    return out


axioms.solve = tampered
inst = fixtures.three_chains()
try:
    axioms.check_decomposability(inst, mrp(inst, MrpExact()).assignment)
except SoundnessError as exc:
    print("caught:", exc)
else:
    print("missed")
"""


def test_lottery_expectation_check_survives_python_O():
    # the lottery LP's witness is moved after the LP layer verified it:
    # only the expectation check ties the lottery to P
    src = str(Path(axioms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _LOTTERY_TAMPER], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["caught: the lottery's expectation is not P"]


def _record_calls(monkeypatch, name):
    """Wrap ``axioms.<name>`` so each call's assignment is appended to the
    returned list."""
    calls = []
    real = getattr(axioms, name)

    def recording(instance, P):
        calls.append(P)
        return real(instance, P)

    monkeypatch.setattr(axioms, name, recording)
    return calls


def test_ex_post_efficiency_decides_each_assignment_once(monkeypatch):
    calls = _record_calls(monkeypatch, "find_generalized_cycle")
    inst = spaces.random_profile(random.Random(53), 3, 2, "general")
    P = mps(inst)[0]
    first = check_ex_post_efficiency(inst, P)
    assert len(calls) == len(all_discrete_assignments(inst))
    # no verdict is kept between calls, so the second call checks again
    assert check_ex_post_efficiency(inst, P) == first
    assert len(calls) == 2 * len(all_discrete_assignments(inst))


def test_ex_post_pass_decides_only_the_supported_assignments(monkeypatch):
    calls = _record_calls(monkeypatch, "find_generalized_cycle")
    inst = spaces.random_profile(random.Random(53), 3, 2, "general")
    P = mrp(inst, MrpExact()).assignment
    assert check_ex_post_efficiency(inst, P).passed
    supported = [
        a for a in all_discrete_assignments(inst) if all(P.nums[j][x] for j, x in enumerate(a.bundles))
    ]
    assert calls == [from_discrete(inst, a) for a in supported]
    assert len(supported) < len(all_discrete_assignments(inst))


def _dominated_mixture():
    """Opposed strict preferences over two items, and the uniform
    assignment: a mixture of both discrete assignments, one dominated."""
    inst = build_instance(
        {
            "agents": 2,
            "types": [{"name": "F", "items": ["1F", "2F"]}],
            "preferences": [
                {"kind": "partial", "edges": [["1F", "2F"]]},
                {"kind": "partial", "edges": [["2F", "1F"]]},
            ],
        }
    )
    return inst, FractionalAssignment.from_rows([["1/2", "1/2"]] * 2)


def test_ex_post_fails_for_dominated_mixture():
    inst, uniform = _dominated_mixture()
    assert check_decomposability(inst, uniform).passed
    assert not check_ex_post_efficiency(inst, uniform).passed


def all_columns_ex_post(instance, P):
    """Reference ex-post check (the former `check_ex_post_efficiency`):
    decide every discrete assignment, cycle-free or by the exact LP,
    and solve the lottery LP over all the efficient ones."""
    axioms._decomposition_guard(instance)
    efficient = [
        a
        for a in all_discrete_assignments(instance)
        if find_generalized_cycle(instance, from_discrete(instance, a)) is None
        or _sd_efficiency_lp(instance, from_discrete(instance, a)).passed
    ]
    return whole_program_lottery("ex-post-efficiency", instance, P, efficient)


def _ex_post_cases():
    rng = random.Random(101)
    for n, p in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        for kind in ("general", "cpnet", "independent"):
            for _ in range(2):
                inst = spaces.random_profile(rng, n, p, kind)
                for tb in spaces.sweep_tiebreaks(inst.m):
                    for mech in ("mrp", "mgd", "mps"):
                        yield inst, run_mechanism(mech, inst, tb)
    yield _dominated_mixture()


def test_ex_post_matches_all_columns_reference():
    verdicts = {True: 0, False: 0}
    for inst, P in _ex_post_cases():
        got = check_ex_post_efficiency(inst, P)
        want = all_columns_ex_post(inst, P)
        # a pass over the supported cycle-free assignments gives the
        # reference's lottery; a failure carries its certificate
        assert got == want
        verdicts[got.passed] += 1
        if got.passed:
            for _, a in got.witness.entries:
                assert find_generalized_cycle(inst, from_discrete(inst, a)) is None
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


def test_ex_post_decides_cyclic_assignments_by_trade_alone(monkeypatch):
    # a discrete assignment is its own only lottery, so a cyclic one
    # passes only through the fallback, whose trade LP decides every
    # discrete assignment without the domination LP
    decided = _record_calls(monkeypatch, "_sd_efficiency_lp")
    rng = random.Random(103)
    fallbacks = 0
    for n, p in ((2, 2), (3, 2)):
        for kind in ("general", "cpnet", "independent") * 2:
            inst = spaces.random_profile(rng, n, p, kind)
            for a in all_discrete_assignments(inst):
                P = from_discrete(inst, a)
                if find_generalized_cycle(inst, P) is None:
                    continue
                decided.clear()
                report = check_ex_post_efficiency(inst, P)
                assert decided == []
                assert report.passed == _sd_efficiency_lp(inst, P).passed
                if report.passed:
                    fallbacks += 1
                    assert report.witness.entries == ((1, a),)
    assert fallbacks > 0


def test_ex_post_pass_runs_no_sd_efficiency_lp(monkeypatch):
    calls = _record_calls(monkeypatch, "_sd_efficiency_lp")
    inst = spaces.random_profile(random.Random(107), 3, 2, "general")
    cyclic = [
        a for a in all_discrete_assignments(inst)
        if find_generalized_cycle(inst, from_discrete(inst, a)) is not None
    ]
    assert cyclic  # so the old program would have run an LP per cyclic one
    report = check_ex_post_efficiency(inst, mrp(inst, MrpExact()).assignment)
    assert report.passed and calls == []


def enumerated_assignments(instance):
    """Reference enumeration (the former `all_discrete_assignments`):
    one permutation of items per type, in `itertools.product` order."""
    per_type = [list(itertools.permutations(range(instance.n))) for _ in range(instance.p)]
    return [
        DiscreteAssignment(
            tuple(prefs.bundle_index([perm[j] for perm in combo], instance.sizes) for j in range(instance.n))
        )
        for combo in itertools.product(*per_type)
    ]


def scan_supported(P, assignments):
    """Reference support (the former `axioms._supported`): a list scan
    for the assignments giving every agent a bundle P gives it a share
    of."""
    return [a for a in assignments if all(row[x] for row, x in zip(P.nums, a.bundles))]


def scan_lottery_report(prop, instance, P, assignments):
    """Reference lottery report (the former `axioms._lottery_report`):
    the lottery LP over the scanned supported assignments, and on a
    failure over all of ``assignments``."""
    report = axioms._lottery(prop, instance, P, scan_supported(P, assignments))
    if report is not None:
        return report
    out, entries = axioms._lottery_lp(instance, P, assignments)
    assert not out.optimal
    flat = [v for row in P.nums for v in row]
    cert = [0] * len(flat) + [out.certificate[-1]]
    for i, y in zip(entries, out.certificate):
        cert[i] = y * (P.den // math.gcd(flat[i], P.den))
    g = math.gcd(*cert)
    return PropertyReport(prop, False, witness=FarkasWitness(tuple(F(v // g) for v in cert)))


def scan_ex_post(instance, P):
    """Reference ex-post check (the former `check_ex_post_efficiency`)
    over scanned assignment lists."""
    assignments = enumerated_assignments(instance)
    cycles = {a: find_generalized_cycle(instance, from_discrete(instance, a)) for a in scan_supported(P, assignments)}
    report = axioms._lottery("ex-post-efficiency", instance, P, [a for a, c in cycles.items() if c is None])
    if report is not None:
        return report
    for a in assignments:
        if a not in cycles:
            cycles[a] = find_generalized_cycle(instance, from_discrete(instance, a))
    efficient = [
        a
        for a in assignments
        if cycles[a] is None or axioms._cyclic_sd_efficiency(instance, from_discrete(instance, a), cycles[a]).passed
    ]
    return scan_lottery_report("ex-post-efficiency", instance, P, efficient)


def _mask_cases():
    """Per (n, p) the decomposability checks take, seeded profiles with
    the three mechanisms' outputs, discrete P's, the uniform P and
    invalid P's."""
    rng = random.Random(113)
    for n in range(1, axioms.DECOMPOSITION_AGENT_LIMIT + 1):
        for p in range(1, axioms.DECOMPOSITION_TYPE_LIMIT + 1):
            for kind in ("general", "cpnet", "independent"):
                inst = spaces.random_profile(rng, n, p, kind)
                Ps = [run_mechanism(mech, inst, None) for mech in ("mrp", "mgd", "mps")]
                Ps.append(from_discrete(inst, rng.choice(enumerated_assignments(inst))))
                if kind == "general":
                    # the uniform P's lottery LP does not read the preferences
                    Ps.append(FractionalAssignment(((1,) * inst.m,) * n, inst.m))
                rows = [[rng.choice((0, 0, 1, 2)) for _ in range(inst.m)] for _ in range(n)]
                Ps.append(FractionalAssignment(tuple(map(tuple, rows)), 2))
                yield inst, Ps


def test_supported_masks_match_the_list_scan():
    shapes = set()
    for inst, Ps in _mask_cases():
        reference = enumerated_assignments(inst)
        assert list(inst._discrete_assignments) == reference == all_discrete_assignments(inst)
        shapes.add((inst.n, inst.p))
        for P in Ps:
            assert axioms._columns(inst, axioms._supported(inst, P)) == scan_supported(P, reference)
    assert shapes == {(n, p) for n in (1, 2, 3, 4) for p in (1, 2)}


def test_lottery_reports_match_the_list_scan_reference():
    verdicts = Counter()
    for inst, Ps in _mask_cases():
        # an invalid P at (4, 2) fails over all 576 columns, which the
        # test below covers; ex-post beyond 36 assignments is left out
        for P in Ps if (inst.n, inst.p) != (4, 2) else Ps[:-1]:
            got = check_decomposability(inst, P)
            assert got == scan_lottery_report("decomposability", inst, P, enumerated_assignments(inst))
            verdicts["decomposability", got.passed] += 1
            if len(inst._discrete_assignments) <= 36:
                got = check_ex_post_efficiency(inst, P)
                assert got == scan_ex_post(inst, P)
                verdicts["ex-post", got.passed] += 1
    assert all(verdicts[prop, passed] for prop in ("decomposability", "ex-post") for passed in (True, False)), verdicts


def test_a_failure_at_4_2_solves_over_all_576_assignments(monkeypatch):
    inst = spaces.random_profile(random.Random(127), 4, 2, "general")
    P = FractionalAssignment(((1,) * 16,) * 3 + ((2,) + (1,) * 14 + (0,),), 16)
    assert validate_assignment(P, inst) is not None
    widths = []
    real = axioms.solve

    def recording(program):
        widths.append(program.num_vars)
        return real(program)

    monkeypatch.setattr(axioms, "solve", recording)
    report = check_decomposability(inst, P)
    assert not report.passed and widths[-1] == 576
    _assert_separates(inst, P, report.witness.certificate)


# -- strategyproofness / upper invariance --------------------------------------------


def test_mrp_sd_sp_on_cp_profiles():
    rng = random.Random(53)
    for _ in range(8):
        inst = spaces.random_profile(rng, 2, 2, "cpnet")
        report = check_strategyproofness(
            "mrp", inst, spaces.CpNetMisreports("all"), "sd"
        )
        assert report.passed, report


def test_mrp_sd_sp_fails_blank_vs_chain(blank_vs_chain):
    report = check_strategyproofness(
        "mrp", blank_vs_chain, spaces.LinearOrderMisreports(), "sd", tiebreaks=[None]
    )
    assert not report.passed
    w = report.witness
    assert w.agent == 0
    assert w.manipulated.row(0) == (F(0), F(1))


def test_mgd_weak_sp_fails_three_chains(three_chains):
    report = check_strategyproofness(
        "mgd", three_chains, spaces.LinearOrderMisreports(), "weak", tiebreaks=[None]
    )
    assert not report.passed
    assert report.witness.agent == 2


def rerun_strategyproofness(mechanism, instance, misreports, strength="sd", tiebreaks=None):
    """The former `check_strategyproofness` body, which re-runs the
    mechanism on every misreport and compares rows with `sd_compare`:
    the reference for the turn-table and integer-comparison paths."""
    name = ("sd" if strength == "sd" else "weak-sd") + "-strategyproofness"
    detail = f"{mechanism} against {misreports.describe()}"
    if tiebreaks is None:
        tiebreaks = spaces.sweep_tiebreaks(instance.m)
    for tb in tiebreaks:
        truth = run_mechanism(mechanism, instance, tb)
        for j in range(instance.n):
            order = instance.orders[j]
            judged = {order}
            for report in misreports.for_agent(instance, j):
                rep_order = prefs.as_order(report)
                if rep_order in judged:
                    continue
                judged.add(rep_order)
                lied = run_mechanism(mechanism, instance.with_preference(j, report), tb)
                if strength == "sd":
                    manipulated = not sd_compare(order, truth.row(j), lied.row(j)).p_dominates_q
                else:
                    verdict = sd_compare(order, lied.row(j), truth.row(j))
                    manipulated = verdict.p_dominates_q and lied.row(j) != truth.row(j)
                if manipulated:
                    witness = ManipulationWitness(j, report, truth, lied, tb)
                    return PropertyReport(name, False, witness=witness, detail=detail)
    return PropertyReport(name, True, detail=detail)


def test_strategyproofness_matches_rerun_reference(blank_vs_chain, three_chains):
    rng = random.Random(61)
    cases = [
        (blank_vs_chain, spaces.LinearOrderMisreports()),
        (three_chains, spaces.LinearOrderMisreports()),
    ]
    for n, p, kind in ((2, 1, "general"), (4, 1, "general"), (2, 2, "general"), (2, 2, "cpnet")):
        cases.append((spaces.random_profile(rng, n, p, kind), spaces.LinearOrderMisreports()))
    for n, p, kind in ((3, 2, "general"), (2, 3, "cpnet"), (4, 2, "cpnet")):
        cases.append((spaces.random_profile(rng, n, p, kind), spaces.SampledLinearOrderMisreports(40, seed=n)))
    for n, p, kind in ((2, 2, "cpnet"), (2, 2, "independent"), (2, 3, "cpnet")):
        cases.append((spaces.random_profile(rng, n, p, kind), spaces.CpNetMisreports("all")))
    for n, p, kind in ((3, 2, "cpnet"), (3, 2, "general"), (2, 3, "independent")):
        cases.append((spaces.random_profile(rng, n, p, kind), spaces.IndependentCpNetMisreports()))
    failed = {}
    for inst, space in cases:
        for mechanism in ("mrp", "mps", "mgd"):
            for strength in ("sd", "weak"):
                want = rerun_strategyproofness(mechanism, inst, space, strength)
                assert check_strategyproofness(mechanism, inst, space, strength) == want
                failed[mechanism, strength] = failed.get((mechanism, strength), 0) + (not want.passed)
    # the failing branch is compared too: every pair fails somewhere but
    # mrp under weak strategyproofness, which none of these cases breaks
    assert all(failed[key] for key in failed if key != ("mrp", "weak")), failed
    # one tie-break per agent
    for n, p, kind in ((2, 2, "cpnet"), (2, 2, "independent"), (3, 2, "cpnet"), (3, 2, "general")):
        inst = spaces.random_profile(rng, n, p, kind)
        tiebreaks = [[rng.sample(range(inst.m), inst.m) for _ in range(n)]]
        space = spaces.IndependentCpNetMisreports()
        for mechanism in ("mrp", "mps", "mgd"):
            want = rerun_strategyproofness(mechanism, inst, space, "weak", tiebreaks)
            assert check_strategyproofness(mechanism, inst, space, "weak", tiebreaks) == want
    # the misreport space and strengths the truthfulness benchmark times,
    # on one profile
    inst = spaces.random_profile(rng, 3, 2, "cpnet")
    space = spaces.CpNetMisreports("all")
    for mechanism, strength in (("mrp", "sd"), ("mps", "weak"), ("mgd", "weak")):
        want = rerun_strategyproofness(mechanism, inst, space, strength, tiebreaks=[None])
        assert check_strategyproofness(mechanism, inst, space, strength, tiebreaks=[None]) == want


def test_misreport_family_tables_match_rerun_reference():
    # the CP-net families are judged through their kept tables; each is
    # compared with the reference under a shared tie-break other than the
    # canonical one and under one tie-break per agent, passing and failing
    rng = random.Random(73)
    families = (spaces.CpNetMisreports("own"), spaces.CpNetMisreports("all"), spaces.IndependentCpNetMisreports())
    failed = {}
    for n, p, count in ((2, 2, 4), (3, 2, 1)):
        for _ in range(count):
            inst = spaces.random_profile(rng, n, p, "cpnet")
            shared = rng.sample(range(inst.m), inst.m)
            per_agent = [rng.sample(range(inst.m), inst.m) for _ in range(n)]
            for space in families:
                # the reference re-runs every (3,2) net of every graph, so that one is run under "sd" only
                strengths = ("sd",) if n == 3 and space == spaces.CpNetMisreports("all") else ("sd", "weak")
                for tiebreaks in ([shared], [per_agent]):
                    for mechanism in ("mrp", "mps", "mgd"):
                        for strength in strengths:
                            want = rerun_strategyproofness(mechanism, inst, space, strength, tiebreaks)
                            assert check_strategyproofness(mechanism, inst, space, strength, tiebreaks) == want
                            key = (n, space.describe(), mechanism)
                            failed[key] = failed.get(key, 0) + (not want.passed)
    # mrp is sd-strategyproof on CP-net profiles; the others fail on every family and size
    assert all(bool(count) == (key[2] != "mrp") for key, count in failed.items()), failed


def test_cpnet_family_is_sorted_and_checked_once_per_tiebreak(monkeypatch):
    # the 2 628 nets of CpNetMisreports("all") at (3,2) are shape-checked
    # once per tie-break for all profiles, agents and checks; each order
    # comes with its canonical sort, and is sorted at most once under
    # another tie-break
    nets = spaces.all_cpnets((3, 3))
    assert len(nets) == 2628
    monkeypatch.setattr(nets, "_tables", {})  # no table made by an earlier test
    net_ids = {id(net) for net in nets}
    order_ids = {id(net.order) for net in nets}
    checked, sorted_, tables = Counter(), Counter(), []
    real_check, real_sort, real_first = Instance._check_preference, prefs.topological_sort, spaces.first_of_each_sort

    def check(self, agent, preference):
        if id(preference) in net_ids:
            checked[id(preference)] += 1
        return real_check(self, agent, preference)

    def sort(order, tiebreak):
        if id(order) in order_ids:
            sorted_[id(order), tuple(tiebreak)] += 1
        return real_sort(order, tiebreak)

    def first_of_each_sort(instance, agent, tiebreak, reports):
        tables.append(tiebreak)
        return real_first(instance, agent, tiebreak, reports)

    monkeypatch.setattr(Instance, "_check_preference", check)
    monkeypatch.setattr(prefs, "topological_sort", sort)
    monkeypatch.setattr(spaces, "first_of_each_sort", first_of_each_sort)
    rng = random.Random(79)
    space = spaces.CpNetMisreports("all")
    for inst in (spaces.random_profile(rng, 3, 2, "cpnet") for _ in range(2)):
        assert check_strategyproofness("mrp", inst, space, "sd", tiebreaks=[None]).passed
        assert len(tables) == 1 and len(checked) == len(nets)
        assert set(checked.values()) == {1} and not sorted_
    # a second tie-break makes a second table, checking every net again
    reverse = tuple(reversed(range(inst.m)))
    assert check_strategyproofness("mrp", inst, space, "sd", tiebreaks=[reverse]).passed
    assert tables == [tuple(range(inst.m)), reverse]
    assert set(checked.values()) == {2} and set(sorted_.values()) <= {1}
    assert {tiebreak for _, tiebreak in sorted_} <= {reverse}


class _OneAgent(spaces.MisreportSpace):
    """Another space's misreports for one agent and none for the others,
    so that a whole-profile check judges that agent alone."""

    def __init__(self, space, agent):
        self.space, self.agent = space, agent

    def for_agent(self, instance, agent):
        return self.space.for_agent(instance, agent) if agent == self.agent else ()

    def describe(self):
        return self.space.describe()


def contour_shares(order, row):
    """Per upper contour mask of ``order``, the mask and the share of ``row`` on it."""
    masks = [order.ucs_mask(x) for x in range(order.m)]
    return masks, [sum(v for x, v in enumerate(row) if mask >> x & 1) for mask in masks]


def contour_bound_holds(runs, agent):
    """Does the truth give ``agent`` at least ``MrpTurns.most`` of each of its upper contour sets?"""
    masks, shares = contour_shares(runs.instance.orders[agent], runs.truth.row(agent))
    return all(F(most, runs.total) <= share for most, share in zip(runs.most(agent, masks), shares))


def test_mrp_contour_bound_is_exact_over_linear_orders():
    # MrpTurns.most(j, U) is the most of U any linear order of j's wins,
    # and the order listing U first (U's bundles in the truthful sort's
    # order, then the rest) wins it.  So where the truth meets every
    # bound, no linear order manipulates; where it misses one, that
    # U-first order does.  Both are checked against the re-run reference.
    rng = random.Random(101)
    linear = spaces.LinearOrderMisreports()
    held = Counter()
    for n, p in ((2, 1), (3, 1), (4, 1), (2, 2)):
        for kind in ("general", "cpnet"):
            inst = spaces.random_profile(rng, n, p, kind)
            m = inst.m
            for tb in (None, tuple(reversed(range(m))), [rng.sample(range(m), m) for _ in range(n)]):
                runs = reruns("mrp", inst, tb)
                for j in range(n):
                    order, own = inst.orders[j], runs.sorts[j]
                    masks, truth = contour_shares(order, runs.truth.row(j))
                    sorts = itertools.permutations(range(m))
                    won = [contour_shares(order, runs.row(j, sort)[0])[1] for sort in sorts]
                    missed = False
                    for u, (mask, most, share) in enumerate(zip(masks, runs.most(j, masks), truth)):
                        assert max(row[u] for row in won) == most
                        first = [x for x in own if mask >> x & 1] + [x for x in own if not mask >> x & 1]
                        nums, den = runs.row(j, first)
                        assert den == runs.total and sum(nums[x] for x in range(m) if mask >> x & 1) == most
                        if F(most, den) > share:
                            missed = True
                            lied = [F(v, den) for v in nums]
                            assert not sd_compare(order, runs.truth.row(j), lied).p_dominates_q
                    assert contour_bound_holds(runs, j) == (not missed)
                    want = rerun_strategyproofness("mrp", inst, _OneAgent(linear, j), "sd", [tb])
                    assert want.passed == (not missed)
                    assert check_strategyproofness("mrp", inst, _OneAgent(linear, j), "sd", [tb]) == want
                    held[kind, not missed] += 1
    # the truth meets every bound on a CP-net profile here, and both ways on a general one
    assert held["general", True] and held["general", False] and not held["cpnet", False], held


def test_mrp_contour_bound_passes_every_cpnet_misreport():
    # wherever the bound holds, the reference re-runs all 2 628 (3,2)
    # CP-nets of every graph and finds no manipulation
    rng = random.Random(103)
    space = spaces.CpNetMisreports("all")
    judged = Counter()
    for kind in ("cpnet", "general", "general", "general"):
        inst = spaces.random_profile(rng, 3, 2, kind)
        runs = reruns("mrp", inst)
        for j in range(inst.n):
            if contour_bound_holds(runs, j):
                assert rerun_strategyproofness("mrp", inst, _OneAgent(space, j), "sd", [None]).passed
                judged[kind] += 1
    assert judged["cpnet"] == 3 and judged["general"], judged


def test_mrp_contour_bound_keeps_every_refusal(monkeypatch):
    # where the bound decides every agent no row is read, yet each report
    # is still read and each misreport space still refuses what it refused
    rng = random.Random(107)
    inst = spaces.random_profile(rng, 2, 2, "cpnet")
    big = spaces.random_profile(rng, 3, 2, "cpnet")
    for profile in (inst, big):
        assert all(contour_bound_holds(reruns("mrp", profile), j) for j in range(profile.n))
    monkeypatch.setattr(MrpTurns, "row", lambda self, agent, sort: pytest.fail("a row was read"))
    for strength in ("sd", "weak"):
        assert check_strategyproofness("mrp", inst, spaces.CpNetMisreports("all"), strength).passed
        reports = [*spaces.all_cpnets(inst.sizes)[:5], independent_net([range(4)])]
        with pytest.raises(ParseError):
            list(manipulations(reruns("mrp", inst), 0, reports, strength))
        with pytest.raises(MisreportSpaceTooLarge):
            check_strategyproofness("mrp", big, spaces.LinearOrderMisreports(), strength)
        # agent 0 is decided by the bound before agent 1's graph is asked for
        no_net = big.with_preference(1, big.orders[1])
        with pytest.raises(MtraError, match="agent 1 has no CP-net"):
            check_strategyproofness("mrp", no_net, spaces.CpNetMisreports("own"), strength, tiebreaks=[None])


def test_manipulations_yields_every_manipulation_in_report_order(three_chains, opposed_trio):
    # each linear order is its own sort, so no report is skipped but the
    # truth's sort, which gives the truthful row
    space = spaces.LinearOrderMisreports()
    found = 0
    for inst in (three_chains, opposed_trio):
        for mechanism, strength in (("mps", "sd"), ("mgd", "weak"), ("mrp", "sd"), ("mps", "weak")):
            runs = reruns(mechanism, inst)
            truth = run_mechanism(mechanism, inst, None)
            for j in range(inst.n):
                order = inst.orders[j]
                reports = list(space.for_agent(inst, j))
                want = []
                for report in reports:
                    lied = run_mechanism(mechanism, inst.with_preference(j, report), None)
                    if strength == "sd":
                        manipulated = not sd_compare(order, truth.row(j), lied.row(j)).p_dominates_q
                    else:
                        verdict = sd_compare(order, lied.row(j), truth.row(j))
                        manipulated = verdict.p_dominates_q and lied.row(j) != truth.row(j)
                    if manipulated:
                        want.append(ManipulationWitness(j, report, truth, lied, None))
                assert list(manipulations(runs, j, reports, strength)) == want
                # a report sorted as one already judged is skipped
                assert list(manipulations(runs, j, reports * 2, strength)) == want
                found += len(want)
    assert found > 10


@pytest.mark.parametrize("agent", [-1, 2], ids=["-1", "n"])
def test_manipulations_of_no_agent_are_refused(blank_vs_chain, agent):
    # a family's reports are checked once, into its table, so the agent
    # is checked apart from them
    runs = reruns("mrp", blank_vs_chain)
    for reports in (spaces.all_linear_orders(2), list(spaces.all_linear_orders(2))):
        with pytest.raises(DimensionMismatch, match=f"agent {agent} is not one of the 2 agents"):
            next(manipulations(runs, agent, reports))


def test_manipulation_rerun_must_give_the_whole_output(blank_vs_chain, monkeypatch):
    # exact MRP judges a row off its turn tables; a re-run pass that
    # disagrees with the from-scratch run elsewhere is caught
    monkeypatch.setattr(MrpTurns, "rerun", lambda self, agent, sort: self.truth)
    with pytest.raises(SoundnessError, match="agent 0's row differs from the mechanism's on the re-run"):
        check_strategyproofness("mrp", blank_vs_chain, spaces.LinearOrderMisreports(), "sd", tiebreaks=[None])


def test_manipulation_witness_replays_under_the_runs_tiebreak(opposed_trio):
    # the witness records the tie-break the truthful run was made under,
    # as the caller gave it, and the misreport replays to its output there
    reverse = tuple(reversed(range(opposed_trio.m)))
    space = spaces.LinearOrderMisreports()
    for mechanism in ("mps", "mgd", "mrp"):
        for tiebreak in (reverse, [reverse] * opposed_trio.n):
            runs = reruns(mechanism, opposed_trio, tiebreak)
            found = 0
            for j in range(opposed_trio.n):
                for witness in manipulations(runs, j, space.for_agent(opposed_trio, j)):
                    assert witness.tiebreak is tiebreak
                    replayed = run_mechanism(mechanism, opposed_trio.with_preference(j, witness.misreport), tiebreak)
                    assert witness.manipulated == replayed
                    found += 1
            assert found > 0, mechanism


def rerun_upper_invariance(mechanism, instance, transforms, tiebreaks=None):
    """The former `check_upper_invariance` body, which re-runs the public
    mechanism on the one-agent copy for every transformation: the
    reference for the re-runs of `mechanisms.reruns`."""
    detail = f"{mechanism} against {transforms.describe()}"
    if tiebreaks is None:
        tiebreaks = spaces.sweep_tiebreaks(instance.m)
    for tb in tiebreaks:
        truth = run_mechanism(mechanism, instance, tb)
        for j, report, pivot in transforms.candidates(instance, truth):
            old = instance.orders[j]
            new = prefs.as_order(report)
            if new == old or not prefs.is_uit(old, new, pivot, truth.nums[j])[0]:
                continue
            lied = run_mechanism(mechanism, instance.with_preference(j, report), tb)
            if any(lied.entry(k, pivot) != truth.entry(k, pivot) for k in range(instance.n)):
                witness = InvarianceWitness(j, report, pivot, truth, lied, tb)
                return PropertyReport("upper-invariance", False, witness=witness, detail=detail)
    return PropertyReport("upper-invariance", True, detail=detail)


def test_upper_invariance_matches_rerun_reference(blank_vs_chain, three_chains):
    rng = random.Random(67)
    lie = prefs.PartialOrder.from_pairs(2, [(1, 0)])
    cases = [
        (blank_vs_chain, spaces.ExplicitTransforms(((0, lie, 1), (1, lie, 0)))),
        (three_chains, spaces.DeletionTransforms()),
    ]
    for n, p in ((2, 2), (3, 1), (3, 2), (2, 3)):
        cases.append((spaces.random_profile(rng, n, p, "cpnet"), spaces.CpNetTransforms()))
        cases.append((spaces.random_profile(rng, n, p, "independent"), spaces.CpNetTransforms()))
        cases.append((spaces.random_profile(rng, n, p, "general"), spaces.DeletionTransforms()))
    failed = {}
    for inst, transforms in cases:
        per_agent = [rng.sample(range(inst.m), inst.m) for _ in range(inst.n)]
        for mechanism in ("mrp", "mps", "mgd"):
            for tiebreaks in (None, [per_agent]):
                want = rerun_upper_invariance(mechanism, inst, transforms, tiebreaks)
                assert check_upper_invariance(mechanism, inst, transforms, tiebreaks) == want
                failed[mechanism] = failed.get(mechanism, 0) + (not want.passed)
    assert all(failed.values()), failed


class _WrongSizes(spaces.MisreportSpace, spaces.TransformSource):
    """Yields CP-nets over other type sizes than the instance's: one over
    as many bundles, one over more."""

    def for_agent(self, instance, agent):
        return (independent_net([range(4)]), independent_net([range(3), range(2)]))

    def candidates(self, instance, assignment):
        return ((0, net, 0) for net in self.for_agent(instance, 0))

    def describe(self):
        return "CP-nets of the wrong sizes"


def test_misreports_of_the_wrong_sizes_are_refused():
    inst = spaces.random_profile(random.Random(3), 2, 2, "cpnet")
    for net in _WrongSizes().for_agent(inst, 0):
        with pytest.raises(ParseError):
            inst.with_preference(0, net)
    for mechanism in ("mrp", "mps", "mgd"):
        with pytest.raises(ParseError):
            check_strategyproofness(mechanism, inst, _WrongSizes(), "weak", tiebreaks=[None])
    for mechanism in ("mrp", "mps", "mgd"):
        with pytest.raises(ParseError):
            check_upper_invariance(mechanism, inst, _WrongSizes(), tiebreaks=[None])


def test_misreport_space_guard():
    rng = random.Random(59)
    inst = spaces.random_profile(rng, 3, 2, "general")
    with pytest.raises(MisreportSpaceTooLarge):
        check_strategyproofness("mrp", inst, spaces.LinearOrderMisreports(), "weak")


def test_upper_invariance_mps_on_cp_profiles():
    rng = random.Random(61)
    for _ in range(6):
        inst = spaces.random_profile(rng, 2, 2, "cpnet")
        assert check_upper_invariance("mps", inst, spaces.CpNetTransforms()).passed


def test_upper_invariance_fails_blank_vs_chain(blank_vs_chain):
    lie = prefs.PartialOrder.from_pairs(2, [(1, 0)])
    transforms = spaces.ExplicitTransforms(((0, lie, 1),))
    for mech in ("mrp", "mps"):
        assert not check_upper_invariance(mech, blank_vs_chain, transforms, tiebreaks=[None]).passed


@pytest.mark.parametrize("mechanism", ["mps", "mgd", "mrp"])
@pytest.mark.parametrize("agent", [-1, 2], ids=["-1", "n"])
def test_transforms_of_no_agent_are_refused(blank_vs_chain, mechanism, agent):
    assert blank_vs_chain.n == 2
    lie = prefs.PartialOrder.from_pairs(2, [(1, 0)])
    transforms = spaces.ExplicitTransforms(((agent, lie, 1),))
    with pytest.raises(DimensionMismatch, match=f"agent {agent} is not one of the 2 agents"):
        check_upper_invariance(mechanism, blank_vs_chain, transforms, tiebreaks=[None])


@pytest.mark.parametrize("mechanism", ["mps", "mgd", "mrp"])
@pytest.mark.parametrize("pivot", [-2, -1, 2], ids=["-2", "-1", "m"])
def test_transforms_of_no_pivot_are_refused(blank_vs_chain, mechanism, pivot):
    assert blank_vs_chain.m == 2
    lie = prefs.PartialOrder.from_pairs(2, [(1, 0)])
    transforms = spaces.ExplicitTransforms(((0, lie, pivot),))
    with pytest.raises(DimensionMismatch, match=f"pivot {pivot} is not one of the 2 bundles"):
        check_upper_invariance(mechanism, blank_vs_chain, transforms, tiebreaks=[None])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda inst: resolve_sorts(inst, (0,)), DimensionMismatch, "tiebreak must rank every bundle exactly once"),
        (lambda inst: resolve_sorts(inst, [tuple(range(inst.m))]), DimensionMismatch,
         "tiebreak must list one bundle order per agent"),
        (lambda inst: resolve_sorts(inst, (0, 0, 1, 2)), DimensionMismatch,
         "tiebreak must rank every bundle exactly once"),
        (lambda inst: resolve_sorts(inst, (0, 1, 2, 7)), DimensionMismatch,
         "tiebreak must rank every bundle exactly once"),
        (lambda inst: resolve_sorts(inst, [tuple(range(inst.m)), None]), DimensionMismatch,
         "tiebreak must rank every bundle exactly once"),
        (lambda inst: prefs.is_uit(inst.orders[0], prefs.PartialOrder.from_pairs(inst.m + 1, ()), 0, [0] * inst.m),
         UniverseMismatch, "orders range over different universes"),
        (lambda inst: prefs.is_uit(inst.orders[0], inst.orders[0], -1, [0] * inst.m),
         DimensionMismatch, "pivot -1 is not one of the 4 bundles"),
        (lambda inst: prefs.is_uit(inst.orders[0], inst.orders[0], inst.m, [0] * inst.m),
         DimensionMismatch, "pivot 4 is not one of the 4 bundles"),
        (lambda inst: Instance(inst.types, ("1F1B", "2F2B")), ParseError, "agent 0 preference has unsupported type"),
        (lambda inst: spaces.acyclic_dependency_graphs(4), MisreportSpaceTooLarge,
         "cannot enumerate dependency graphs on 4 types"),
        (lambda inst: spaces.random_profile(random.Random(0), 2, 1, "bogus"), ValueError,
         "unknown profile kind 'bogus'"),
        (lambda inst: next(manipulations(reruns("mps", inst), 0, (), strength="bogus")), ValueError,
         "unknown strategyproofness strength 'bogus'"),
        (lambda inst: axioms.sd_dominance(prefs.PartialOrder.from_chain((0, 1)), FractionalAssignment.from_rows(
            [[1, 0, 0]]), FractionalAssignment.from_rows([[0, 0, 1]]), 0), UniverseMismatch,
         "allocation rows do not match the bundle universe"),
        (lambda inst: axioms.sd_dominance(inst.orders[0], fixtures.assignment_1(), fixtures.assignment_2(), 2),
         DimensionMismatch, "agent 2 is not a row of both assignments"),
        (lambda inst: axioms.sd_dominance(inst.orders[0], fixtures.assignment_1(), fixtures.assignment_2(), -1),
         DimensionMismatch, "agent -1 is not a row of both assignments"),
        (lambda inst: find_generalized_cycle(inst, FractionalAssignment.from_rows([[1, 0, 0, 0]] * 3)),
         DimensionMismatch, "matrix is 3x4, instance needs 2x4"),
        (lambda inst: find_generalized_cycle(inst, FractionalAssignment.from_rows([[0, 0, 0, 0, 1]] * 2)),
         DimensionMismatch, "matrix is 2x5, instance needs 2x4"),
        (lambda inst: improvable_tuples(inst, FractionalAssignment.from_rows([[0, 0, 0, 1]] * 3)),
         DimensionMismatch, "matrix is 3x4, instance needs 2x4"),
        (lambda inst: improvable_tuples(inst, FractionalAssignment.from_rows([[0, 0, 0, 1]])),
         DimensionMismatch, "matrix is 1x4, instance needs 2x4"),
        (lambda inst: prefs.is_uit(inst.orders[0], inst.orders[0], 0, [0]),
         UniverseMismatch, "allocation rows do not match the bundle universe"),
        (lambda inst: prefs.is_uit(inst.orders[0], inst.orders[0], 0, [0] * 9),
         UniverseMismatch, "allocation rows do not match the bundle universe"),
        (lambda inst: Instance(inst.types, ()), MissingPreference, "an instance needs at least one agent"),
        (lambda inst: mrp(inst, "bogus"), TypeError, "unknown MRP mode 'bogus'"),
    ],
    ids=["shared-tiebreak-length", "per-agent-tiebreak-count", "tiebreak-repeat", "tiebreak-outside",
         "tiebreak-none-entry", "uit-universes", "uit-pivot-negative",
         "uit-pivot-past-m", "instance-preference-kind", "dependency-graphs-p4", "profile-kind",
         "manipulation-strength", "sd-dominance-width", "sd-dominance-agent-past-n", "sd-dominance-agent-negative",
         "cycle-rows-past-n", "cycle-width", "tuples-rows-past-n", "tuples-rows-short", "uit-row-short",
         "uit-row-long", "instance-agentless", "mrp-mode-unknown"],
)
def test_input_guards_refuse_with_their_own_errors(mixed_pair, call, error, message):
    assert mixed_pair.m == 4 and mixed_pair.n == 2
    with pytest.raises(error) as info:
        call(mixed_pair)
    assert type(info.value) is error and str(info.value) == message


def test_upper_invariance_identity_passes(blank_vs_chain):
    transforms = spaces.ExplicitTransforms(((0, blank_vs_chain.preferences[0], 1),))
    assert check_upper_invariance("mrp", blank_vs_chain, transforms, tiebreaks=[None]).passed


@pytest.mark.parametrize("tiebreaks", [[], iter(())])
def test_mechanism_checks_refuse_no_tiebreaks(mixed_pair, tiebreaks):
    # no tie-break would run the mechanism not once and pass
    with pytest.raises(ValueError, match="at least one tie-break"):
        check_strategyproofness("mrp", mixed_pair, spaces.LinearOrderMisreports(), "sd", tiebreaks=tiebreaks)
    with pytest.raises(ValueError, match="at least one tie-break"):
        check_upper_invariance("mrp", mixed_pair, spaces.CpNetTransforms(), tiebreaks=tiebreaks)


def test_deletion_transforms_generate_valid_candidates():
    rng = random.Random(5)
    total = 0
    for _ in range(8):
        inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), "general")
        P, _ = mps(inst)
        for j, new, pivot in spaces.DeletionTransforms().candidates(inst, P):
            ok, _ = prefs.is_uit(inst.orders[j], new, pivot, P.row(j))
            assert ok
            total += 1
    assert total > 0


def test_upper_invariance_mgd_fails_via_deletion(three_chains):
    # dropping a zero-share bundle from the second chain merges its sort
    # with the first agent's, changing the pivot column
    report = check_upper_invariance(
        "mgd", three_chains, spaces.DeletionTransforms(), tiebreaks=[None]
    )
    assert not report.passed
    w = report.witness
    assert w.truthful.entry(w.agent, w.pivot) != w.manipulated.entry(w.agent, w.pivot)


def test_ucs_sums_match_direct_computation(mixed_pair):
    row = fixtures.assignment_1().row(0)
    sums = ucs_sums(mixed_pair.orders[0], row)
    assert sums == (F(1, 2), F(1), F(1), F(1))


def fraction_ucs_sums(order, row):
    """Reference contour sums in Fraction arithmetic (the former `ucs_sums`)."""
    out = []
    for x in range(order.m):
        mask = order.ucs_mask(x)
        total = F(0)
        y = 0
        while mask:
            if mask & 1:
                total += row[y]
            mask >>= 1
            y += 1
        out.append(total)
    return tuple(out)


def test_ucs_sums_match_fraction_reference():
    rng = random.Random(79)
    for _ in range(200):
        m = rng.choice([1, 2, 4, 9, 16, 27, 64, 125])
        order = spaces.random_partial_order(rng, m)
        kind = rng.choice(["mixed", "int", "zero"])
        if kind == "zero":
            row = [rng.choice([0, F(0)]) for _ in range(m)]
        elif kind == "int":
            row = [rng.choice([0, 1, 2, -1]) for _ in range(m)]
        else:
            row = [
                rng.choice([0, F(0), 1, F(rng.randint(-9, 9), rng.randint(1, 60))])
                for _ in range(m)
            ]
        got = ucs_sums(order, row)
        assert got == fraction_ucs_sums(order, row)
        assert all(type(v) is Fraction for v in got)


def subtract_sd_compare(order, p_row, q_row):
    """Reference dominance test: two `ucs_sums` calls and a Fraction
    subtraction per bundle (the former `sd_compare`)."""
    slack = tuple(a - b for a, b in zip(ucs_sums(order, p_row), ucs_sums(order, q_row)))
    return all(v >= 0 for v in slack), all(v <= 0 for v in slack), slack


def test_sd_compare_matches_subtract_reference():
    rng = random.Random(89)

    def entry():
        return rng.choice([0, F(0), 1, -1, 2, F(rng.randint(-9, 9), rng.randint(1, 60))])

    kinds = {"zero": 0, "dominated": 0, "equal": 0}
    for _ in range(400):
        m = rng.choice([1, 2, 4, 9, 16, 27, 64, 125])
        order = spaces.random_partial_order(rng, m)
        kind = rng.choice(["mixed", "zero", "equal", "shifted"])
        p_row = [entry() for _ in range(m)]
        if kind == "zero":
            p_row, q_row = [F(0)] * m, [rng.choice([0, F(0)]) for _ in range(m)]
        elif kind == "equal":
            q_row = list(p_row)
        elif kind == "shifted":
            # move share down the order, so p dominates q (or the reverse)
            q_row = list(p_row)
            x = rng.randrange(m)
            below = [y for y in range(m) if order.prefers(x, y)]
            if below:
                amount = F(rng.randint(1, 5), rng.randint(1, 7))
                q_row[x] -= amount
                q_row[rng.choice(below)] += amount
        else:
            q_row = [entry() for _ in range(m)]
        verdict = sd_compare(order, p_row, q_row)
        want = subtract_sd_compare(order, p_row, q_row)
        assert (verdict.p_dominates_q, verdict.q_dominates_p, verdict.slack) == want
        assert all(type(v) is Fraction for v in verdict.slack)
        kinds["zero"] += all(v == 0 for v in want[2])
        kinds["dominated"] += want[0] != want[1]
        kinds["equal"] += p_row == q_row
    # every verdict combination is exercised
    assert all(count >= 20 for count in kinds.values()), kinds


def test_sd_compare_takes_rows_with_large_coprime_denominators():
    # each row's denominator is within the digit limit (4215 and 4295
    # digits), their product is not: the rows are scaled one at a time
    two, three = 2**14000, 3**9000
    chain = prefs.PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
    p_row = [F(1, 2) + F(1, two), F(1, 2) - F(1, two), F(0)]
    q_row = [F(1, 2) + F(1, three), F(1, 2) - F(1, three), F(0)]
    r_row = [F(1, three), F(0), 1 - F(1, three)]
    s_row = [F(3, two), F(1) - F(5, two), F(1, two)]
    rows = (p_row, q_row, r_row, s_row)
    for row in rows:
        assert ucs_sums(chain, row) == fraction_ucs_sums(chain, row)
    verdicts = set()
    for a in rows:
        for b in rows:
            verdict = sd_compare(chain, a, b)
            want = subtract_sd_compare(chain, a, b)
            assert (verdict.p_dominates_q, verdict.q_dominates_p, verdict.slack) == want
            verdicts.add(want[:2])
    # equal, dominated both ways and incomparable rows are all among them
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_mgd_lottery_outcomes_are_efficient():
    rng = random.Random(67)
    for _ in range(10):
        inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), "general")
        for prob, disc in mgd_decompose(inst).entries:
            assert check_sd_efficiency(inst, from_discrete(inst, disc)).passed
