"""Embedded reference instances and their expected outputs.

These are the worked examples and counterexamples that pin the package's
behavior: two-agent food/beverage instances with conditional and partial
preferences, the three-agent single-type instances behind the fairness
and truthfulness counterexamples, and the frozen assignment tables they
produce.  ``replay_all`` re-derives every expected value and reports the
first divergence, which gives the CLI a self-contained regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import preferences as prefs
from . import spaces
from .axioms import (
    check_decomposability,
    check_envy,
    check_ex_post_efficiency,
    check_ordinal_fairness,
    check_sd_efficiency,
    check_strategyproofness,
    check_upper_invariance,
    find_generalized_cycle,
    improvable_tuples,
    sd_compare,
)
from .io import build_instance
from .mechanisms import MrpExact, mgd, mgd_decompose, mps, mrp, mrp_decompose
from .model import FractionalAssignment, Instance

F = Fraction


def mixed_pair() -> Instance:
    """Two agents, types F and B; agent 1 conditional (F -> B), agent 2
    a partial order with one bottom bundle."""
    return build_instance(
        {
            "agents": 2,
            "types": [
                {"name": "F", "items": ["1F", "2F"]},
                {"name": "B", "items": ["1B", "2B"]},
            ],
            "preferences": [
                {
                    "kind": "cpnet",
                    "dependency": [["F", "B"]],
                    "cpt": {
                        "F": {"": ["1F", "2F"]},
                        "B": {"1F": ["1B", "2B"], "2F": ["2B", "1B"]},
                    },
                },
                {
                    "kind": "partial",
                    "edges": [["1F1B", "1F2B"], ["2F1B", "1F2B"], ["2F2B", "1F2B"]],
                },
            ],
        }
    )


def partial_twins() -> Instance:
    """Both agents carrying agent 2's partial order from mixed_pair."""
    base = mixed_pair()
    return Instance(base.types, (base.preferences[1], base.preferences[1]))


def dependent_pair() -> Instance:
    """Shared dependency F -> B; the instance whose eating outcome is
    valid but cannot be realized as any lottery."""
    return build_instance(
        {
            "agents": 2,
            "types": [
                {"name": "F", "items": ["1F", "2F"]},
                {"name": "B", "items": ["1B", "2B"]},
            ],
            "preferences": [
                {
                    "kind": "cpnet",
                    "dependency": [["F", "B"]],
                    "cpt": {
                        "F": {"": ["1F", "2F"]},
                        "B": {"1F": ["2B", "1B"], "2F": ["1B", "2B"]},
                    },
                },
                {
                    "kind": "cpnet",
                    "dependency": [["F", "B"]],
                    "cpt": {
                        "F": {"": ["1F", "2F"]},
                        "B": {"1F": ["1B", "2B"], "2F": ["2B", "1B"]},
                    },
                },
            ],
        }
    )


def blank_vs_chain() -> Instance:
    """Two agents, one type; agent 1 reports nothing, agent 2 a chain."""
    return build_instance(
        {
            "agents": 2,
            "types": [{"name": "F", "items": ["1F", "2F"]}],
            "preferences": [
                {"kind": "partial", "edges": []},
                {"kind": "partial", "edges": [["1F", "2F"]]},
            ],
        }
    )


def three_chains() -> Instance:
    """Three agents, one type, three distinct chains."""
    return build_instance(
        {
            "agents": 3,
            "types": [{"name": "F", "items": ["1F", "2F", "3F"]}],
            "preferences": [
                {"kind": "partial", "edges": [["1F", "2F"], ["1F", "3F"], ["2F", "3F"]]},
                {"kind": "partial", "edges": [["1F", "3F"], ["1F", "2F"], ["3F", "2F"]]},
                {"kind": "partial", "edges": [["3F", "1F"], ["3F", "2F"], ["1F", "2F"]]},
            ],
        }
    )


def opposed_trio() -> Instance:
    """Two opposed chains plus one empty preference; the instance where
    strong envy-freeness and sd-efficiency cannot meet."""
    return build_instance(
        {
            "agents": 3,
            "types": [{"name": "F", "items": ["1F", "2F", "3F"]}],
            "preferences": [
                {"kind": "partial", "edges": [["1F", "2F"], ["2F", "3F"], ["1F", "3F"]]},
                {"kind": "partial", "edges": [["3F", "2F"], ["2F", "1F"], ["3F", "1F"]]},
                {"kind": "partial", "edges": []},
            ],
        }
    )


def solo() -> Instance:
    return build_instance(
        {
            "agents": 1,
            "types": [{"name": "F", "items": ["1F"]}],
            "preferences": [{"kind": "partial", "edges": []}],
        }
    )


def chain_twins() -> Instance:
    """Both agents with mixed_pair agent 1's linear order; ordinal fairness does
    not single out the eating outcome here."""
    base = mixed_pair()
    return Instance(base.types, (base.preferences[0], base.preferences[0]))


# Tie-breaks of the two-agent food/beverage examples (shared by all agents;
# agent 1's order is linear so only agent 2's sort is affected).
def sort_a(instance: Instance) -> list[int]:
    return [instance.bundle_by_name[x] for x in ["2F1B", "1F1B", "2F2B", "1F2B"]]


def sort_b(instance: Instance) -> list[int]:
    return [instance.bundle_by_name[x] for x in ["1F1B", "2F2B", "2F1B", "1F2B"]]


def assignment_1() -> FractionalAssignment:
    return FractionalAssignment.from_rows(
        [["1/2", "1/2", "0", "0"], ["0", "0", "1/2", "1/2"]]
    )


def assignment_2() -> FractionalAssignment:
    return FractionalAssignment.from_rows(
        [["1/2", "0", "0", "1/2"], ["1/2", "0", "0", "1/2"]]
    )


def assignment_3() -> FractionalAssignment:
    return FractionalAssignment.from_rows(
        [["0", "1/2", "1/2", "0"], ["1/2", "0", "0", "1/2"]]
    )


def assignment_5() -> FractionalAssignment:
    return FractionalAssignment.from_rows([["1/3"] * 3] * 3)


def assignment_6() -> FractionalAssignment:
    return FractionalAssignment.from_rows(
        [["2/3", "1/3", "0"], ["0", "1/3", "2/3"], ["1/3", "1/3", "1/3"]]
    )


# -- replay suite ------------------------------------------------------------
# Each check returns whether its facts hold; its name and detail string are
# stated only in REPLAY_CHECKS, and the acceptance criteria read the verdicts.


@dataclass(frozen=True)
class ReplayResult:
    name: str
    passed: bool
    detail: str = ""


def _induced_order_check() -> bool:
    inst = mixed_pair()
    chain = prefs.PartialOrder.from_chain(
        [inst.bundle_by_name[b] for b in ["1F1B", "1F2B", "2F2B", "2F1B"]]
    )
    return inst.orders[0] == chain


def _preference_graph_check() -> bool:
    inst = mixed_pair()
    bn = inst.bundle_by_name
    want = {(bn["1F1B"], bn["1F2B"]), (bn["2F1B"], bn["1F2B"]), (bn["2F2B"], bn["1F2B"])}
    return set(prefs.preference_graph(inst.orders[1])) == want


def _upper_contour_check() -> bool:
    inst = mixed_pair()
    bn = inst.bundle_by_name
    o1, o2 = inst.orders
    return (
        o1.upper_contour_set(bn["1F1B"]) == {bn["1F1B"]}
        and o1.upper_contour_set(bn["1F2B"]) == {bn["1F1B"], bn["1F2B"]}
        and o1.upper_contour_set(bn["2F2B"]) == {bn["1F1B"], bn["1F2B"], bn["2F2B"]}
        and o1.upper_contour_set(bn["2F1B"]) == set(range(4))
        and o2.upper_contour_set(bn["2F1B"]) == {bn["2F1B"]}
        and o2.upper_contour_set(bn["1F2B"]) == set(range(4))
    )


def _dominance_table_check() -> bool:
    inst = mixed_pair()
    bn = inst.bundle_by_name
    a1, a2, a3 = assignment_1(), assignment_2(), assignment_3()
    ok = all(
        sd_compare(inst.orders[j], a2.row(j), a3.row(j)).p_dominates_q for j in range(2)
    )
    v = sd_compare(inst.orders[1], a2.row(1), a1.row(1))
    ok = ok and not v.p_dominates_q and v.slack[bn["2F1B"]] < 0
    ok = ok and sd_compare(inst.orders[0], a1.row(0), a2.row(0)).p_dominates_q
    w = sd_compare(inst.orders[1], a1.row(1), a2.row(1))
    ok = ok and not w.p_dominates_q and not w.q_dominates_p
    return ok and w.slack[bn["1F1B"]] < 0 and w.slack[bn["2F1B"]] > 0


def _topological_sorts_check() -> bool:
    inst = mixed_pair()
    got_a = prefs.topological_sort(inst.orders[1], sort_a(inst))
    got_b = prefs.topological_sort(inst.orders[1], sort_b(inst))
    return got_a == tuple(sort_a(inst)) and got_b == tuple(sort_b(inst))


def _eating_two_sorts_check() -> bool:
    inst = mixed_pair()
    first, _ = mps(inst, sort_a(inst))
    second, _ = mps(inst, sort_b(inst))
    return first == assignment_1() and second == assignment_2()


def _priority_exact_check() -> bool:
    inst = mixed_pair()
    result = mrp(inst, MrpExact(), sort_a(inst))
    lottery = mrp_decompose(inst, sort_a(inst))
    return (
        result.assignment == assignment_1()
        and len(lottery.entries) == 2
        and lottery.expectation(inst) == result.assignment
    )


def _halves(inst: Instance, a: str, b: str) -> FractionalAssignment:
    """Every agent gets half of bundle ``a`` and half of bundle ``b``."""
    pair = (inst.bundle_by_name[a], inst.bundle_by_name[b])
    row = [F(1, 2) if x in pair else F(0) for x in range(inst.m)]
    return FractionalAssignment.from_rows([row] * inst.n)


def _group_sharing_check() -> bool:
    inst = partial_twins()
    return (
        mgd(inst, sort_a(inst)) == _halves(inst, "2F1B", "1F2B")
        and mgd(inst, sort_b(inst)) == _halves(inst, "1F1B", "2F2B")
    )


def _group_lottery_check() -> bool:
    inst = partial_twins()
    lottery = mgd_decompose(inst, sort_a(inst))
    return (
        len(lottery.entries) == 2
        and all(prob == F(1, 2) for prob, _ in lottery.entries)
        and lottery.expectation(inst) == mgd(inst, sort_a(inst))
    )


def _dependent_pair_eating_check() -> bool:
    inst = dependent_pair()
    chain1 = prefs.PartialOrder.from_chain(
        [inst.bundle_by_name[b] for b in ["1F2B", "1F1B", "2F1B", "2F2B"]]
    )
    chain2 = prefs.PartialOrder.from_chain(
        [inst.bundle_by_name[b] for b in ["1F1B", "1F2B", "2F2B", "2F1B"]]
    )
    out, _ = mps(inst)
    return inst.orders[0] == chain1 and inst.orders[1] == chain2 and out == assignment_3()


def _dependent_pair_lottery_check() -> bool:
    inst = dependent_pair()
    report = check_decomposability(inst, assignment_3())
    expost = check_ex_post_efficiency(inst, assignment_3())
    return (
        not report.passed
        and report.witness is not None
        and report.witness.certificate is not None
        and not expost.passed
    )


def _blank_vs_chain_priority_check() -> bool:
    inst = blank_vs_chain()
    truth = mrp(inst, MrpExact()).assignment
    half = FractionalAssignment.from_rows([["1/2", "1/2"]] * 2)
    lie_pref = prefs.PartialOrder.from_pairs(2, [(1, 0)])
    lied = mrp(inst.with_preference(0, lie_pref), MrpExact()).assignment
    swapped = FractionalAssignment.from_rows([["0", "1"], ["1", "0"]])
    return truth == half and lied == swapped


def _blank_vs_chain_transformation_check() -> bool:
    inst = blank_vs_chain()
    truth = mrp(inst, MrpExact()).assignment
    lie_pref = prefs.PartialOrder.from_pairs(2, [(1, 0)])
    ok_pivot2, z = prefs.is_uit(inst.orders[0], lie_pref, 1, truth.row(0))
    not_pivot1, _ = prefs.is_uit(inst.orders[0], lie_pref, 0, truth.row(0))
    return ok_pivot2 and z == frozenset() and not not_pivot1


def _blank_vs_chain_invariance_check() -> bool:
    inst = blank_vs_chain()
    sp = check_strategyproofness(
        "mrp", inst, spaces.LinearOrderMisreports(), "sd", tiebreaks=[None]
    )
    lie = spaces.ExplicitTransforms(((0, prefs.PartialOrder.from_pairs(2, [(1, 0)]), 1),))
    ui = check_upper_invariance("mrp", inst, lie, tiebreaks=[None])
    ui_mps = check_upper_invariance("mps", inst, lie, tiebreaks=[None])
    return not sp.passed and not ui.passed and not ui_mps.passed


def _worst_first_eating_check() -> bool:
    inst = blank_vs_chain()
    tb = [[1, 0], [0, 1]]  # agent 1 sorted worst-first, agent 2 canonical
    out, _ = mps(inst, tb)
    swapped = FractionalAssignment.from_rows([["0", "1"], ["1", "0"]])
    of = check_ordinal_fairness(inst, out)
    ef = check_envy(inst, out, "strong")
    return out == swapped and not of.passed and not ef.passed


def _three_chains_dictatorship_check() -> bool:
    inst = three_chains()
    out = mgd(inst)
    want = FractionalAssignment.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    weak = check_envy(inst, out, "weak")
    of = check_ordinal_fairness(inst, out)
    bn = inst.bundle_by_name
    of_at = (
        not of.passed
        and of.witness.bundle == bn["1F"]
        and of.witness.agent == 0
        and of.witness.other == 1
    )
    return out == want and not weak.passed and of_at


def _three_chains_manipulation_check() -> bool:
    inst = three_chains()
    sp = check_strategyproofness(
        "mgd", inst, spaces.LinearOrderMisreports(), "weak", tiebreaks=[None]
    )
    if sp.passed:
        return False
    w = sp.witness
    gained = w.manipulated.row(w.agent)
    ok = w.agent == 2 and gained == (F(1, 2), F(1, 2), F(0))
    ui = check_upper_invariance(
        "mgd",
        inst,
        spaces.ExplicitTransforms(((2, inst.preferences[0], inst.bundle_by_name["2F"]),)),
        tiebreaks=[None],
    )
    return ok and not ui.passed


def _opposed_trio_check() -> bool:
    inst = opposed_trio()
    uniform = assignment_5()
    better = assignment_6()
    envy = check_envy(inst, uniform, "strong")
    eff = check_sd_efficiency(inst, uniform)
    dominates = all(
        sd_compare(inst.orders[j], better.row(j), uniform.row(j)).p_dominates_q
        for j in range(3)
    )
    return envy.passed and not eff.passed and dominates


def _improvable_pairs_check() -> bool:
    inst = mixed_pair()
    bn = inst.bundle_by_name
    pairs = {(t.better, t.worse) for t in improvable_tuples(inst, assignment_3())}
    want = {
        (bn["1F1B"], bn["1F2B"]),
        (bn["1F1B"], bn["2F1B"]),
        (bn["1F2B"], bn["2F1B"]),
        (bn["2F2B"], bn["2F1B"]),
    }
    better_than = [[a for a, b in pairs if b == x] for x in range(inst.m)]
    acyclic = prefs.dependency_order(better_than) is not None
    cycle = find_generalized_cycle(inst, assignment_3())
    return pairs == want and acyclic and cycle is not None


def _ordinal_fairness_gap_check() -> bool:
    inst = chain_twins()
    P = _halves(inst, "1F2B", "2F1B")
    eating, _ = mps(inst)
    return check_ordinal_fairness(inst, P).passed and P != eating


def _solo_sanity() -> bool:
    inst = solo()
    one = FractionalAssignment.from_rows([[1]])
    return (
        mrp(inst, MrpExact()).assignment == one
        and mps(inst)[0] == one
        and mgd(inst) == one
    )


REPLAY_CHECKS: tuple[tuple[str, Callable[[], bool], str], ...] = (
    ("induced-order-linear-chain", _induced_order_check, ""),
    ("bottom-bundle-preference-graph", _preference_graph_check, ""),
    ("upper-contour-sets", _upper_contour_check, ""),
    (
        "dominance-table",
        _dominance_table_check,
        "(2)sd(3); (2) vs (1) incomparable for agent 2, (1)sd(2) for agent 1",
    ),
    ("two-topological-sorts", _topological_sorts_check, ""),
    ("eating-two-sorts", _eating_two_sorts_check, ""),
    ("priority-exact-average", _priority_exact_check, ""),
    ("group-sharing-two-sorts", _group_sharing_check, ""),
    ("group-sharing-lottery", _group_lottery_check, ""),
    ("dependent-pair-eating", _dependent_pair_eating_check, ""),
    ("dependent-pair-indecomposable", _dependent_pair_lottery_check, ""),
    ("blank-vs-chain-priority", _blank_vs_chain_priority_check, ""),
    (
        "blank-vs-chain-transformation",
        _blank_vs_chain_transformation_check,
        "valid at the reported pivot with empty removal set",
    ),
    ("blank-vs-chain-invariance-failures", _blank_vs_chain_invariance_check, ""),
    ("worst-first-eating-unfair", _worst_first_eating_check, ""),
    ("three-chains-dictatorship", _three_chains_dictatorship_check, ""),
    ("three-chains-manipulation", _three_chains_manipulation_check, ""),
    ("opposed-trio-envy-vs-efficiency", _opposed_trio_check, ""),
    (
        "improvable-pairs-cycle",
        _improvable_pairs_check,
        "pair relation acyclic yet a generalized cycle exists",
    ),
    ("ordinal-fairness-gap", _ordinal_fairness_gap_check, ""),
    ("solo-instance", _solo_sanity, ""),
)


def replay_all() -> list[ReplayResult]:
    return [ReplayResult(name, bool(fn()), detail) for name, fn, detail in REPLAY_CHECKS]


def fixture_names() -> list[str]:
    return [name for name, _, _ in REPLAY_CHECKS]
