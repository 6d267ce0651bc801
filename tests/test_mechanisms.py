import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mtra import fixtures, manipulation, spaces
from mtra import io as mio
from mtra import mechanisms as mechanisms_module
from mtra import preferences as prefs
from mtra.errors import (
    DimensionMismatch,
    GuardViolation,
    MtraError,
    NothingAvailable,
    ParseError,
    SoundnessError,
    TooManyAgentsForExact,
)
from mtra.mechanisms import (
    EXACT_TURN_LIMIT,
    MpsRound,
    MpsTrace,
    MrpExact,
    MrpMonteCarlo,
    mgd,
    mgd_decompose,
    mps,
    mrp,
    mrp_decompose,
    reruns,
    resolve_sorts,
    serial_dictatorship,
)
from mtra.axioms import check_strategyproofness, check_upper_invariance
from mtra.io import build_instance
from mtra.model import (
    ZERO,
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    Lottery,
    from_discrete,
    outcome_matrix,
    validate_assignment,
)

F = Fraction


def names(inst, disc):
    return [inst.bundle_names[b] for b in disc.bundles]


def test_serial_dictatorship_mixed_pair(mixed_pair):
    sorts = resolve_sorts(mixed_pair, fixtures.sort_a(mixed_pair))
    assert names(mixed_pair, serial_dictatorship(mixed_pair, sorts, [0, 1])) == ["1F1B", "2F2B"]
    assert names(mixed_pair, serial_dictatorship(mixed_pair, sorts, [1, 0])) == ["1F2B", "2F1B"]


def test_serial_dictatorship_three_chains(three_chains):
    sorts = resolve_sorts(three_chains)
    assert names(three_chains, serial_dictatorship(three_chains, sorts, [0, 1, 2])) == [
        "1F",
        "3F",
        "2F",
    ]


def test_mrp_exact_mixed_pair(mixed_pair):
    result = mrp(mixed_pair, MrpExact(), fixtures.sort_a(mixed_pair))
    assert result.assignment == fixtures.assignment_1()
    lottery = mrp_decompose(mixed_pair, fixtures.sort_a(mixed_pair))
    assert lottery.expectation(mixed_pair) == result.assignment


def test_mrp_exact_blank_vs_chain(blank_vs_chain):
    result = mrp(blank_vs_chain, MrpExact())
    assert result.assignment == FractionalAssignment.from_rows([["1/2", "1/2"]] * 2)


def test_mrp_singleton():
    single = fixtures.solo()
    assert mrp(single, MrpExact()).assignment == FractionalAssignment.from_rows([[1]])


def test_mrp_single_run(mixed_pair):
    sorts = resolve_sorts(mixed_pair, fixtures.sort_a(mixed_pair))
    result = from_discrete(mixed_pair, serial_dictatorship(mixed_pair, sorts, (1, 0)))
    assert result == FractionalAssignment.from_rows([[0, 1, 0, 0], [0, 0, 1, 0]])


def test_mrp_monte_carlo_reproducible(mixed_pair):
    a = mrp(mixed_pair, MrpMonteCarlo(64, seed=7), fixtures.sort_a(mixed_pair)).assignment
    b = mrp(mixed_pair, MrpMonteCarlo(64, seed=7), fixtures.sort_a(mixed_pair)).assignment
    assert a == b
    assert all(sum(row) == 1 for row in a.rows)
    # zero samples would average nothing into an all-zero matrix
    for samples in (0, -3):
        with pytest.raises(MtraError):
            MrpMonteCarlo(samples)


def sampled_mrp_reference(instance, samples, seed, tiebreak):
    """Reference sampled MRP (the former Monte-Carlo loop): one
    `serial_dictatorship` per shuffled priority, nothing shared."""
    sorts = resolve_sorts(instance, tiebreak)
    rng = random.Random(seed)
    outcomes = Counter()
    for _ in range(samples):
        priority = list(range(instance.n))
        rng.shuffle(priority)
        outcomes[serial_dictatorship(instance, sorts, priority).bundles] += 1
    return outcome_matrix(instance, outcomes.items(), samples)


def test_mrp_monte_carlo_matches_one_dictatorship_per_sample():
    rng = random.Random(46)
    for n, p in ((2, 1), (3, 2), (4, 2), (7, 2), (2, 3), (5, 3)):
        inst = spaces.random_profile(rng, n, p, rng.choice(["general", "cpnet", "independent"]))
        shared = tuple(rng.sample(range(inst.m), inst.m))
        per_agent = [tuple(rng.sample(range(inst.m), inst.m)) for _ in range(n)]
        for tiebreak in (None, shared, per_agent):
            for samples in (1, 64, 200):
                for seed in (0, rng.randrange(1 << 30), rng.randrange(1 << 30)):
                    got = mrp(inst, MrpMonteCarlo(samples, seed), tiebreak)
                    assert got.assignment == sampled_mrp_reference(inst, samples, seed, tiebreak)
                    assert got.mode == MrpMonteCarlo(samples, seed)


def test_mrp_monte_carlo_is_guarded():
    too_many = spaces.ENUMERATION_LIMIT + 1
    with pytest.raises(GuardViolation, match=f"{too_many} monte-carlo samples"):
        MrpMonteCarlo(too_many)
    assert MrpMonteCarlo(spaces.ENUMERATION_LIMIT).samples == spaces.ENUMERATION_LIMIT


@pytest.mark.parametrize(
    "name, priority",
    [
        ("mixed_pair", [0]),
        ("mixed_pair", [0, 0]),
        ("mixed_pair", [0, 2]),
        ("three_chains", (0, 0, 1)),
        ("three_chains", (0, 1)),
        ("three_chains", (0, 1, 2, 3)),
    ],
    ids=["short", "repeated", "no-agent", "three-repeated", "three-short", "three-too-long"],
)
def test_serial_dictatorship_rejects_bad_priority(request, name, priority):
    # each would give one item twice, let one agent pick twice or pick for no agent
    inst = request.getfixturevalue(name)
    sorts = resolve_sorts(inst, fixtures.sort_a(inst) if name == "mixed_pair" else None)
    with pytest.raises(DimensionMismatch, match=rf"priority [\[(].*[\])] is not an order of the {inst.n} agents"):
        serial_dictatorship(inst, sorts, priority)


def test_mrp_exact_guard(own_items_first):
    # both exact passes refuse before depth 2, whose turns take them past the budget
    for run in (lambda: mrp(own_items_first, MrpExact()), lambda: mrp_decompose(own_items_first)):
        with pytest.raises(TooManyAgentsForExact, match=r"would take 1676400 turns .* by depth 2"):
            run()
    assert 1676400 > EXACT_TURN_LIMIT
    # the budget counts states, not agents: nine agents fit
    inst = spaces.random_profile(random.Random(0), 9, 1, "cpnet")
    lottery = mrp_decompose(inst)
    assert len(lottery.entries) == 171
    assert lottery.expectation(inst) == mrp(inst, MrpExact()).assignment


def test_mps_two_sorts(mixed_pair):
    first, trace = mps(mixed_pair, fixtures.sort_a(mixed_pair))
    assert first == fixtures.assignment_1()
    assert trace.rounds[-1].end == 1
    assert all(r.exhausted for r in trace.rounds)
    second, _ = mps(mixed_pair, fixtures.sort_b(mixed_pair))
    assert second == fixtures.assignment_2()


def test_mps_dependent_pair(dependent_pair):
    out, _ = mps(dependent_pair)
    assert out == fixtures.assignment_3()


def test_mps_always_valid_with_full_clock():
    rng = random.Random(2)
    for _ in range(30):
        inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), "general")
        for tiebreak in spaces.sweep_tiebreaks(inst.m):
            out, trace = mps(inst, tiebreak)
            assert validate_assignment(out, inst) is None
            assert trace.rounds[-1].end == 1
            ends = [r.end for r in trace.rounds]
            assert ends == sorted(ends) and len(set(ends)) == len(ends)


def test_mps_trace_consumes_in_item_order_on_independent_profiles():
    # On independent profiles an agent walks down each type's order,
    # switching exactly when her current item exhausts.
    rng = random.Random(4)
    for _ in range(20):
        n, p = rng.choice([2, 3]), rng.choice([1, 2])
        inst = spaces.random_profile(rng, n, p, "independent")
        out, trace = mps(inst)
        for j in range(n):
            net = inst.preferences[j]
            for t in range(p):
                type_order = dict(net.tables[t])[()]
                rank = {item: i for i, item in enumerate(type_order)}
                consumed: list[int] = []
                for r in trace.rounds:
                    item = inst.bundle_items[r.eaten[j]][t] - t * inst.n
                    if not consumed or consumed[-1] != item:
                        if consumed:
                            # previous item must be exhausted by now
                            prev = t * inst.n + consumed[-1]
                            assert next(q.end for q in trace.rounds if prev in q.exhausted) <= r.start
                        consumed.append(item)
                assert [rank[i] for i in consumed] == sorted(rank[i] for i in consumed)


def supply_ext(linear, bundle_items, supply):
    """Reference `ext` over item supplies: the first bundle of ``linear``
    whose items all have supply > 0 (the former `prefs.ext`)."""
    for x in linear:
        if all(supply[o] > 0 for o in bundle_items[x]):
            return x
    raise NothingAvailable("no bundle in the order is fully available")


def fresh_sorts(instance, tiebreak=None):
    """Every agent's sort made from scratch, bypassing the instance's cache."""
    if tiebreak is None:
        breaks = [range(instance.m)] * instance.n
    elif isinstance(list(tiebreak)[0], int):
        breaks = [tiebreak] * instance.n
    else:
        breaks = tiebreak
    return tuple(prefs.topological_sort(o, tb) for o, tb in zip(instance.orders, breaks))


def supply_serial_dictatorship(instance, sorts, priority):
    """Reference serial dictatorship over item supplies."""
    supply = [1] * (instance.n * instance.p)
    chosen = {}
    for j in priority:
        x = supply_ext(sorts[j], instance.bundle_items, supply)
        chosen[j] = x
        for o in instance.bundle_items[x]:
            supply[o] -= 1
    return tuple(chosen[j] for j in range(instance.n))


def supply_mgd(instance, sorts):
    """Reference general dictatorship over item supplies."""
    supply = [1] * (instance.n * instance.p)
    rows = [[ZERO] * instance.m for _ in range(instance.n)]
    for j in range(instance.n):
        top = supply_ext(sorts[j], instance.bundle_items, supply)
        group = [k for k in range(instance.n) if sorts[k] == sorts[j]]
        for member in group:
            rows[member][top] = F(1, len(group))
        for o in instance.bundle_items[top]:
            supply[o] -= 1
    return FractionalAssignment.from_rows(rows)


def fraction_mps(instance, tiebreak=None):
    """Reference eating rule in Fraction arithmetic over item supplies
    (the former `mps`)."""
    sorts = fresh_sorts(instance, tiebreak)
    n, p = instance.n, instance.p
    supply = [F(1)] * (n * p)
    alive = set(range(n * p))
    rows = [[ZERO] * instance.m for _ in range(n)]
    rounds = []
    clock = ZERO
    while alive:
        eaten = tuple(
            supply_ext(sorts[j], instance.bundle_items, supply) for j in range(n)
        )
        consumers = [0] * (n * p)
        for x in eaten:
            for o in instance.bundle_items[x]:
                consumers[o] += 1
        step = min(
            (supply[o] / consumers[o] for o in alive if consumers[o]),
            default=None,
        )
        if step is None or step <= 0:
            raise SoundnessError("every agent eats until the clock hits 1")
        for j, x in enumerate(eaten):
            rows[j][x] += step
        exhausted = []
        for o in list(alive):
            if consumers[o]:
                supply[o] -= step * consumers[o]
                if supply[o] == 0:
                    exhausted.append(o)
                    alive.remove(o)
        if not exhausted:
            raise SoundnessError("each round must exhaust at least one item")
        clock += step
        rounds.append(MpsRound(clock - step, clock, eaten, tuple(exhausted)))
        for t in range(p):
            left = sum(
                (supply[t * n + i] for i in range(n) if t * n + i in alive),
                ZERO,
            )
            if left != n * (1 - clock):
                raise SoundnessError(f"type {t} supply is not conserved")
    if clock != 1:
        raise SoundnessError("the eating clock must end at 1")
    return FractionalAssignment.from_rows(rows), MpsTrace(tuple(rounds))


def _differential_profiles():
    """(instance, tiebreak) pairs on which `mps` must equal `fraction_mps`."""
    # the F->B 3x3 profiles the CPT manipulation search runs on
    rng = random.Random(71)
    orders = list(itertools.permutations(range(3)))
    for _ in range(40):
        tables = [(rng.choice(orders), tuple(rng.choice(orders) for _ in range(3))) for _ in range(3)]
        yield Instance(
            spaces.square_types(3, 2),
            tuple(manipulation.shared_fb_net(f, b) for f, b in tables),
        ), None
    rng = random.Random(73)
    sizes = [(2, 1), (4, 1), (6, 1), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (4, 3)]
    for n, p in sizes:
        for kind in ("general", "cpnet", "independent"):
            for _ in range(3):
                inst = spaces.random_profile(rng, n, p, kind)
                shared = list(range(inst.m))
                rng.shuffle(shared)
                per_agent = [rng.sample(range(inst.m), inst.m) for _ in range(n)]
                for tiebreak in (*spaces.sweep_tiebreaks(inst.m), shared, per_agent):
                    yield inst, tiebreak


def test_mps_matches_fraction_reference():
    for inst, tiebreak in _differential_profiles():
        out, trace = mps(inst, tiebreak)
        assert (out, trace) == fraction_mps(inst, tiebreak)
        assert all(type(v) is Fraction for row in out.rows for v in row)
        assert all(type(r.start) is type(r.end) is Fraction for r in trace.rounds)


def eager_mrp(instance, tiebreak=None):
    """The former exact ``mrp`` body, which built the lottery on every
    call: the reference for ``mrp`` and ``mrp_decompose``."""
    sorts = resolve_sorts(instance, tiebreak)
    counts = [[0] * instance.m for _ in range(instance.n)]
    outcome_weight = {}
    total = 0
    for priority in itertools.permutations(range(instance.n)):
        disc = serial_dictatorship(instance, sorts, priority)
        outcome_weight[disc.bundles] = outcome_weight.get(disc.bundles, 0) + 1
        for j, x in enumerate(disc.bundles):
            counts[j][x] += 1
        total += 1
    rows = tuple(tuple(Fraction(c, total) for c in row) for row in counts)
    lottery = Lottery(
        tuple((Fraction(w, total), DiscreteAssignment(b)) for b, w in outcome_weight.items())
    )
    return FractionalAssignment.from_rows(rows), lottery


@pytest.fixture(scope="module")
def eager_cases():
    """(instance, tiebreak, eager_mrp output) on seeded general, CP-net
    and independent profiles up to (8,2), under canonical, reversed,
    shared and per-agent tie-breaks; at 8 agents, where one reference
    run takes about half a second, each profile gets one of them in
    turn."""
    rng = random.Random(89)
    cases = []
    for n, p in ((2, 1), (5, 1), (3, 2), (5, 2), (6, 2), (7, 2), (3, 3), (4, 3), (5, 3), (8, 1), (8, 2)):
        for i, kind in enumerate(("general", "cpnet", "independent")):
            inst = spaces.random_profile(rng, n, p, kind)
            shared = rng.sample(range(inst.m), inst.m)
            per_agent = [rng.sample(range(inst.m), inst.m) for _ in range(n)]
            tiebreaks = [None, tuple(reversed(range(inst.m))), shared, per_agent]
            if n == 8:
                tiebreaks = tiebreaks[i + p - 1 : i + p]
            cases += [(inst, tiebreak, eager_mrp(inst, tiebreak)) for tiebreak in tiebreaks]
    assert len(cases) == 9 * 3 * 4 + 2 * 3
    return cases


def test_mrp_decompose_matches_eager_lottery(eager_cases):
    # the same entries in the same order: the lottery pass meets each
    # outcome first where the lexicographic enumeration does
    checked = 0
    for inst, tiebreak in _differential_profiles():
        if inst.n > 4:
            continue
        assignment, lottery = eager_mrp(inst, tiebreak)
        assert mrp_decompose(inst, tiebreak) == lottery
        assert mrp(inst, MrpExact(), tiebreak).assignment == assignment
        checked += 1
    assert checked == 40 + 8 * 3 * 3 * 4
    for inst, tiebreak, (_, lottery) in eager_cases:
        assert mrp_decompose(inst, tiebreak) == lottery


def test_mrp_exact_matches_eager_reference(eager_cases):
    # the turn-table pass against the enumeration of all n! orders
    for inst, tiebreak, (assignment, _) in eager_cases:
        assert mrp(inst, MrpExact(), tiebreak).assignment == assignment


def test_serial_dictatorship_and_mgd_match_supply_references():
    rng = random.Random(83)
    for inst, tiebreak in _differential_profiles():
        sorts = fresh_sorts(inst, tiebreak)
        assert resolve_sorts(inst, tiebreak) == sorts
        priorities = [tuple(range(inst.n)), tuple(reversed(range(inst.n))), tuple(rng.sample(range(inst.n), inst.n))]
        for priority in priorities:
            got = serial_dictatorship(inst, sorts, priority).bundles
            assert got == supply_serial_dictatorship(inst, sorts, priority)
        assert mgd(inst, tiebreak) == supply_mgd(inst, sorts)


def test_mgd_twins(mixed_pair):
    twins = fixtures.partial_twins()
    bn = twins.bundle_by_name
    first = mgd(twins, fixtures.sort_a(twins))
    assert first.row(0) == first.row(1)
    assert first.entry(0, bn["2F1B"]) == F(1, 2) and first.entry(0, bn["1F2B"]) == F(1, 2)
    second = mgd(twins, fixtures.sort_b(twins))
    assert second.entry(0, bn["1F1B"]) == F(1, 2) and second.entry(0, bn["2F2B"]) == F(1, 2)


def test_mgd_three_chains(three_chains):
    assert mgd(three_chains) == FractionalAssignment.from_rows(
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    )


def test_mgd_identical_single_type():
    inst = build_instance(
        {
            "agents": 2,
            "types": [{"name": "F", "items": ["1F", "2F"]}],
            "preferences": [{"kind": "partial", "edges": [["1F", "2F"]]}] * 2,
        }
    )
    assert mgd(inst) == FractionalAssignment.from_rows([["1/2", "1/2"]] * 2)


def test_mgd_decompose_three_chains(three_chains):
    lottery = mgd_decompose(three_chains)
    assert len(lottery.entries) == 1
    assert lottery.expectation(three_chains) == mgd(three_chains)


def test_mgd_decompose_twins():
    twins = fixtures.partial_twins()
    lottery = mgd_decompose(twins, fixtures.sort_a(twins))
    assert len(lottery.entries) == 2
    assert all(p == F(1, 2) for p, _ in lottery.entries)
    assert lottery.expectation(twins) == mgd(twins, fixtures.sort_a(twins))


def test_mgd_decompose_two_groups(three_chains):
    inst = Instance(three_chains.types, (three_chains.preferences[0],) * 2 + (three_chains.preferences[2],))
    lottery = mgd_decompose(inst)
    assert sum((p for p, _ in lottery.entries), F(0)) == 1
    assert len(lottery.entries) == 2  # lcm of group sizes {2, 1}
    assert lottery.expectation(inst) == mgd(inst)


def test_mgd_decompose_matches_mgd_on_random_profiles():
    rng = random.Random(8)
    for _ in range(30):
        inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), "general")
        for tiebreak in spaces.sweep_tiebreaks(inst.m):
            assert mgd_decompose(inst, tiebreak).expectation(inst) == mgd(inst, tiebreak)


def rotation_mgd_decompose(instance, tiebreak=None):
    """The former ``mgd_decompose`` body, one serial dictatorship per
    rotation of the members inside each equal-sort group: the reference
    for the lottery read off one pick order."""
    sorts = resolve_sorts(instance, tiebreak)
    groups = {}
    for j, sort in enumerate(sorts):
        groups.setdefault(sort, []).append(j)
    k = math.lcm(*map(len, groups.values()))
    outcomes = {}
    for u in range(k):
        priority = [0] * instance.n
        for members in groups.values():
            for pos, agent in enumerate(members):
                priority[agent] = members[(pos + u) % len(members)]
        bundles = serial_dictatorship(instance, sorts, priority).bundles
        outcomes[bundles] = outcomes.get(bundles, 0) + 1
    return Lottery(tuple((F(w, k), DiscreteAssignment(b)) for b, w in outcomes.items()))


def _mgd_group_cases():
    """(instance, tiebreak) pairs: the fixtures, and seeded profiles in
    which agents 0, {1, 3} and {2, 4, 5} report equal preferences, under
    a shared tie-break and under per-agent ones equal within a group."""
    for make in (
        fixtures.mixed_pair, fixtures.partial_twins, fixtures.dependent_pair, fixtures.blank_vs_chain,
        fixtures.three_chains, fixtures.opposed_trio, fixtures.solo, fixtures.chain_twins,
    ):
        inst = make()
        tiebreaks = [None, list(reversed(range(inst.m)))]
        if "2F1B" in inst.bundle_by_name:
            tiebreaks += [fixtures.sort_a(inst), fixtures.sort_b(inst)]
        for tiebreak in tiebreaks:
            yield inst, tiebreak
    rng = random.Random(29)
    for p in (1, 2):
        for kind in ("general", "cpnet"):
            for _ in range(3):
                base = spaces.random_profile(rng, 6, p, kind)
                inst = Instance(base.types, tuple(base.preferences[g] for g in (0, 1, 2, 1, 2, 2)))
                shared = rng.sample(range(inst.m), inst.m)
                per_group = [rng.sample(range(inst.m), inst.m) for _ in range(3)]
                for tiebreak in (None, shared, [per_group[g] for g in (0, 1, 2, 1, 2, 2)]):
                    yield inst, tiebreak


def test_mgd_decompose_matches_rotation_reference():
    lcms = set()
    for inst, tiebreak in _mgd_group_cases():
        lottery = mgd_decompose(inst, tiebreak)
        assert lottery == rotation_mgd_decompose(inst, tiebreak)
        assert lottery.expectation(inst) == mgd(inst, tiebreak)
        lcms.add(math.lcm(*(p.denominator for p, _ in lottery.entries)))
    assert 6 in lcms and 2 in lcms, lcms


def test_mechanisms_on_a_partial_profile_sort_nothing_under_the_default_tiebreak(monkeypatch):
    # a `partial` preference is closed along its canonical sort and keeps
    # it, so the mechanisms read that sort and make none
    calls = []
    real = prefs.topological_sort

    def counted(order, tiebreak):
        calls.append(tiebreak)
        return real(order, tiebreak)

    monkeypatch.setattr(prefs, "topological_sort", counted)
    rng = random.Random(59)
    for n, p in ((2, 1), (3, 2), (4, 2), (2, 3)):
        # read back from a document, so every order is a fresh `partial` one
        inst, _ = mio.parse_instance(mio.serialize_instance(spaces.random_profile(rng, n, p, "general")))
        mps(inst)
        mgd(inst)
        mrp(inst, MrpExact())
    assert calls == []


def test_mgd_and_its_lottery_run_one_serial_dictatorship(monkeypatch):
    real = mechanisms_module.serial_dictatorship
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mechanisms_module, "serial_dictatorship", counted)
    for inst, tiebreak in _mgd_group_cases():
        for run in (mgd, mgd_decompose):
            calls.clear()
            run(inst, tiebreak)
            assert len(calls) == 1, (run.__name__, len(calls))
            assert list(calls[0][2]) == list(range(inst.n))


def test_mgd_reruns_keep_the_truthful_picks(monkeypatch, three_chains):
    # the truthful run is one serial dictatorship and a re-run another;
    # what each agent is left comes from the truthful run's picks
    real = mechanisms_module.serial_dictatorship
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mechanisms_module, "serial_dictatorship", counted)
    truth = reruns("mgd", three_chains)
    truth.rerun(0, tuple(reversed(truth.sorts[0])))
    assert len(calls) == 2
    monkeypatch.undo()
    for inst, tiebreak in _mgd_group_cases():
        run = reruns("mgd", inst, tiebreak)
        picks = serial_dictatorship(inst, run.sorts, range(inst.n)).bundles
        left = [(1 << inst.m) - 1]
        for x in picks[:-1]:
            left.append(left[-1] & ~inst.conflicts[x])
        assert run.picks == picks and run.available == tuple(left)


def test_equal_preferences_equal_rows():
    rng = random.Random(21)
    for _ in range(20):
        inst = spaces.random_profile(rng, 3, 1, "general")
        inst = Instance(inst.types, (inst.preferences[0], inst.preferences[0], inst.preferences[2]))
        for tiebreak in spaces.sweep_tiebreaks(inst.m):
            for out in (
                mps(inst, tiebreak)[0],
                mgd(inst, tiebreak),
                mrp(inst, MrpExact(), tiebreak).assignment,
            ):
                assert out.row(0) == out.row(1)


def test_mechanisms_are_deterministic(mixed_pair):
    tiebreak = fixtures.sort_a(mixed_pair)
    assert mps(mixed_pair, tiebreak)[0] == mps(mixed_pair, tiebreak)[0]
    assert mgd(mixed_pair, tiebreak) == mgd(mixed_pair, tiebreak)
    assert (
        mrp(mixed_pair, MrpExact(), tiebreak).assignment
        == mrp(mixed_pair, MrpExact(), tiebreak).assignment
    )


def test_outputs_validate_everywhere():
    rng = random.Random(30)
    for _ in range(20):
        kind = rng.choice(["general", "cpnet", "independent"])
        inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), kind)
        assert validate_assignment(mgd(inst), inst) is None
        assert validate_assignment(mrp(inst, MrpExact()).assignment, inst) is None
        assert validate_assignment(mps(inst)[0], inst) is None


def _one_agent_cases():
    """(instance, tiebreak, reports) on seeded profiles of the sweep's
    sizes, under the canonical, reversed and a per-agent tie-break.  The
    reports are linear orders, CP-nets and the profile's own
    preferences, so some leave an agent's eating as it was."""
    rng = random.Random(97)
    for n, p in ((2, 2), (3, 1), (3, 2), (4, 2), (2, 3)):
        for kind in ("general", "cpnet", "independent"):
            for _ in range(2):
                inst = spaces.random_profile(rng, n, p, kind)
                per_agent = [rng.sample(range(inst.m), inst.m) for _ in range(n)]
                reports = [prefs.PartialOrder.from_chain(rng.sample(range(inst.m), inst.m)) for _ in range(3)]
                reports += [spaces.random_cpnet(rng, inst.sizes) for _ in range(3)]
                reports += inst.preferences
                for tiebreak in (*spaces.sweep_tiebreaks(inst.m), per_agent):
                    yield inst, tiebreak, reports


def public_run(mechanism, instance, tiebreak):
    """The mechanism's exact output from a reference independent of the
    re-runs: `fraction_mps` for `mps`, whose public run is the re-run
    tree's truthful path, and the public run for `mgd` and `mrp`."""
    if mechanism == "mps":
        return fraction_mps(instance, tiebreak)[0]
    if mechanism == "mgd":
        return mgd(instance, tiebreak)
    return mrp(instance, MrpExact(), tiebreak).assignment


def truthful_states(runs):
    """The states on the truthful path of an `MpsReruns` tree, root first."""
    node, states = runs.root, []
    while node.out is None:
        states.append(node)
        node = node.children[0, prefs.ext(runs.sorts[0], node.available)]
    assert node.out is runs.truth
    return states


@pytest.mark.parametrize("mechanism", ["mps", "mgd", "mrp"])
def test_reruns_know_what_they_ran(mechanism, opposed_trio):
    # the mechanism is the class's own, the tie-break the caller's as
    # given, and a fresh run is the public run of the one-agent copy
    reverse = tuple(reversed(range(opposed_trio.m)))
    for tiebreak in (None, reverse, [reverse] * opposed_trio.n):
        runs = reruns(mechanism, opposed_trio, tiebreak)
        assert runs.mechanism == type(runs).mechanism == mechanism
        assert runs.tiebreak is tiebreak
        for j in range(opposed_trio.n):
            for report in spaces.all_linear_orders(opposed_trio.m):
                assert runs.fresh(j, report) == public_run(mechanism, opposed_trio.with_preference(j, report), tiebreak)


@pytest.mark.parametrize("mechanism", ["mps", "mgd", "mrp"])
def test_reruns_match_public_runs(mechanism):
    # where each mps re-run left the truthful path: never, at round 0, or later
    resumed = {"truth": 0, "start": 0, "later": 0}
    for inst, tiebreak, reports in _one_agent_cases():
        runs = reruns(mechanism, inst, tiebreak)
        assert runs.truth == public_run(mechanism, inst, tiebreak)
        for j in range(inst.n):
            for report in reports:
                sort = prefs.as_order(report).sort(runs.tiebreaks[j])
                want = public_run(mechanism, inst.with_preference(j, report), tiebreak)
                got = runs.rerun(j, sort)
                assert got == want
                nums, den = runs.row(j, sort)
                assert len(nums) == inst.m
                assert all(v * want.den == w * den for v, w in zip(nums, want.nums[j]))
                # the same key (for mps, the same eating) is the same output object
                assert runs.rerun(j, sort) is got
                if mechanism != "mps":
                    continue
                first = next(
                    (
                        r
                        for r, state in enumerate(truthful_states(runs))
                        if prefs.ext(sort, state.available) != prefs.ext(runs.sorts[j], state.available)
                    ),
                    None,
                )
                if first is None:
                    assert got is runs.truth
                resumed["truth" if first is None else "start" if first == 0 else "later"] += 1
    if mechanism == "mps":
        assert all(resumed.values()), resumed


def test_mps_truthful_walks_end_at_the_truth():
    for inst, tiebreak, _ in _one_agent_cases():
        runs = reruns("mps", inst, tiebreak)
        assert runs.leaf.out is runs.truth
        for j in range(inst.n):
            assert runs.rerun(j, runs.sorts[j]) is runs.truth


def test_reruns_refuse_an_unknown_mechanism(mixed_pair):
    with pytest.raises(ValueError):
        reruns("serial", mixed_pair)


def _tiebreak_outputs(inst, tiebreak):
    """Everything a tie-break decides: each mechanism's output, each
    lottery, and each re-run object's tie-breaks, sorts and truth."""
    runs = [reruns(mechanism, inst, tiebreak) for mechanism in ("mps", "mgd", "mrp")]
    return (
        mps(inst, tiebreak),
        mgd(inst, tiebreak),
        mrp(inst, MrpExact(), tiebreak),
        mrp_decompose(inst, tiebreak),
        mgd_decompose(inst, tiebreak),
        [(r.tiebreaks, r.sorts, r.truth) for r in runs],
    )


def test_tiebreak_shapes_that_rank_alike_give_equal_outputs():
    # None is the canonical ranking, and one shared ranking is that
    # ranking given once per agent, to every mechanism and re-run
    rng = random.Random(47)
    for n, p in ((2, 2), (3, 2), (4, 1)):
        for kind in ("general", "cpnet", "independent"):
            inst = spaces.random_profile(rng, n, p, kind)
            shared = tuple(rng.sample(range(inst.m), inst.m))
            assert _tiebreak_outputs(inst, None) == _tiebreak_outputs(inst, tuple(range(inst.m)))
            assert _tiebreak_outputs(inst, shared) == _tiebreak_outputs(inst, [shared] * n)


RANKS = "tiebreak must rank every bundle exactly once"
PER_AGENT = "tiebreak must list one bundle order per agent"
NAMES = ["1F1B", "1F2B", "2F1B", "2F2B"]  # mixed_pair's bundles by index


@pytest.mark.parametrize(
    "tiebreak, file, document, message",
    [
        ((0, 1, 2), NAMES[:3], [NAMES[:3]] * 2, RANKS),
        ((0, 1, 2, 2), NAMES[:3] + NAMES[2:3], [NAMES[:3] + NAMES[2:3]] * 2, RANKS),
        ([(0, 1, 2, 3)], [NAMES], [NAMES], PER_AGENT),
        ([(0, 1, 2, 3)] * 3, [NAMES] * 3, [NAMES] * 3, PER_AGENT),
        # a tiebreak file must be a JSON list, and no name spells the 5
        (5, None, 5, PER_AGENT),
        ([(0, 1, 2, 3), 5], None, None, RANKS),
    ],
    ids=["short", "repeated", "one-agent", "three-agents", "not-a-sequence", "entry-not-a-sequence"],
)
def test_tiebreak_refusals_read_alike(mixed_pair, tiebreak, file, document, message):
    # the mechanisms and the writer refuse a tie-break with one message,
    # and a tiebreak file or an instance document that spells it by
    # bundle names with the same text
    for refuse in (resolve_sorts, mio.serialize_instance):
        with pytest.raises(DimensionMismatch) as caught:
            refuse(mixed_pair, tiebreak)
        assert str(caught.value) == message
    doc = json.loads(mio.serialize_instance(mixed_pair))
    reads = []
    if file is not None:
        reads.append(lambda: mio.parse_tiebreak(json.dumps(file), mixed_pair))
    if document is not None:
        reads.append(lambda: mio.parse_instance(json.dumps(dict(doc, tiebreak=document))))
    for read in reads:
        with pytest.raises(ParseError) as caught:
            read()
        assert str(caught.value) == message


def _cpnet_profile_32():
    """The seeded (3,2) CP-net profile of the tree tests, with every
    agent's CP-net misreports of `CpNetMisreports("all")`."""
    inst = spaces.random_profile(random.Random(5), 3, 2, "cpnet")
    space = spaces.CpNetMisreports("all")
    return inst, space


def test_mps_tree_matches_public_mps_on_every_cpnet_sort():
    inst, space = _cpnet_profile_32()
    runs = reruns("mps", inst)
    compared = 0
    for j in range(inst.n):
        seen = set()
        for report in space.for_agent(inst, j):
            sort = prefs.as_order(report).sort(runs.tiebreaks[j])
            if sort in seen:
                continue
            seen.add(sort)
            assert runs.rerun(j, sort) == mps(inst.with_preference(j, report))[0]
            compared += 1
    assert compared > 7000, compared


def _truthful_turns(inst, sorts):
    """Per agent, the bundles left at its turn when every agent picks by
    its truthful sort in index order."""
    left, turns = (1 << inst.m) - 1, []
    for sort in sorts:
        turns.append(left)
        left &= ~inst.conflicts[prefs.ext(sort, left)]
    return turns


def test_mgd_reruns_match_public_mgd_on_every_cpnet_sort():
    inst, space = _cpnet_profile_32()
    cases = [(inst, space)]
    cases += [(fixture(), spaces.LinearOrderMisreports()) for fixture in (fixtures.three_chains, fixtures.opposed_trio)]
    compared = joins = own = 0
    for inst, space in cases:
        runs = reruns("mgd", inst)
        assert runs.available == tuple(_truthful_turns(inst, runs.sorts))
        for j in range(inst.n):
            seen = set()
            for report in space.for_agent(inst, j):
                sort = prefs.as_order(report).sort(runs.tiebreaks[j])
                if sort in seen:
                    continue
                seen.add(sort)
                got = runs.rerun(j, sort)
                assert got == mgd(inst.with_preference(j, report))
                # the same key is the same output object
                assert runs.rerun(j, sort) is got
                joins += any(runs.sorts[k] == sort for k in range(inst.n) if k != j)
                own += sort == runs.sorts[j]
                compared += 1
    assert compared > 7000 and joins > 0 and own > 0, (compared, joins, own)


def test_strategyproofness_runs_each_mps_round_once(monkeypatch):
    inst, space = _cpnet_profile_32()
    real_round = mechanisms_module._round
    rounds = []

    def counted_round(instance, node, eaten):
        if instance is inst:
            rounds.append((node, eaten))
        return real_round(instance, node, eaten)

    monkeypatch.setattr(mechanisms_module, "_round", counted_round)
    report = check_strategyproofness("mps", inst, space, "weak", tiebreaks=[None])
    monkeypatch.undo()
    assert report == check_strategyproofness("mps", inst, space, "weak", tiebreaks=[None])
    # no round on the profile is eaten twice from the same node; the
    # nodes are kept by the tree, and different nodes can hold equal
    # states, so a node is told apart by its identity
    assert len({(id(node), eaten) for node, eaten in rounds}) == len(rounds)
    misreports = sum(1 for j in range(inst.n) for _ in space.for_agent(inst, j))
    assert len(rounds) * 10 < misreports, (len(rounds), misreports)


def test_upper_invariance_makes_one_mrp_pass_per_key(monkeypatch):
    inst, _ = _cpnet_profile_32()
    real_turns, real_rerun = mechanisms_module._turns, mechanisms_module.MrpTurns.rerun
    passes, asked = [], set()

    def counted_turns(instance, sorts):
        if instance is inst:
            passes.append(tuple(map(tuple, sorts)))
        return real_turns(instance, sorts)

    def recorded_rerun(self, agent, sort):
        asked.add((agent, tuple(prefs.ext(sort, available) for available in self.tables[agent])))
        return real_rerun(self, agent, sort)

    monkeypatch.setattr(mechanisms_module, "_turns", counted_turns)
    monkeypatch.setattr(mechanisms_module.MrpTurns, "rerun", recorded_rerun)
    report = check_upper_invariance("mrp", inst, spaces.CpNetTransforms(), tiebreaks=[None])
    monkeypatch.undo()
    assert report == check_upper_invariance("mrp", inst, spaces.CpNetTransforms(), tiebreaks=[None])
    truth = reruns("mrp", inst)
    assert passes[0] == truth.sorts
    # every later pass swaps one agent's sort, and no two of them have
    # the same key: the agent and its picks at the states of its turn table
    keys = []
    for sorts in passes[1:]:
        (j,) = [k for k in range(inst.n) if sorts[k] != truth.sorts[k]]
        keys.append((j, tuple(prefs.ext(sorts[j], available) for available in truth.tables[j])))
    assert len(set(keys)) == len(keys) > 1, keys
    assert set(keys) == asked


def test_strategyproofness_shares_each_mgd_key_once(monkeypatch):
    inst, space = _cpnet_profile_32()
    real_share = mechanisms_module._share
    shared = []

    def counted_share(instance, sorts):
        if instance is inst:
            shared.append(tuple(map(tuple, sorts)))
        return real_share(instance, sorts)

    monkeypatch.setattr(mechanisms_module, "_share", counted_share)
    report = check_strategyproofness("mgd", inst, space, "weak", tiebreaks=[None])
    monkeypatch.undo()
    assert report == check_strategyproofness("mgd", inst, space, "weak", tiebreaks=[None])
    truth = resolve_sorts(inst)
    assert shared[0] == truth
    # every later share swaps one agent's sort, and no two of them have
    # the same key: the agent, its pick from what the truthful run leaves
    # it, and the other agents whose truthful sort it takes
    turns = _truthful_turns(inst, truth)
    keys = []
    for sorts in shared[1:]:
        (j,) = [k for k in range(inst.n) if sorts[k] != truth[k]]
        mates = tuple(k for k in range(inst.n) if k != j and truth[k] == sorts[j])
        keys.append((j, prefs.ext(sorts[j], turns[j]), mates))
    assert len(set(keys)) == len(keys)
    misreports = sum(1 for j in range(inst.n) for _ in space.for_agent(inst, j))
    assert len(shared) * 100 < misreports, (len(shared), misreports)


_TAMPER = """
import sys
from mtra import axioms, fixtures, mechanisms, spaces
from mtra import preferences as prefs
from mtra.errors import MtraError, SoundnessError
from mtra.model import FractionalAssignment

if __debug__ or issubclass(SoundnessError, MtraError):
    sys.exit("expected python -O and a SoundnessError outside MtraError")
inst = fixtures.blank_vs_chain()
lie = prefs.PartialOrder.from_pairs(2, [(1, 0)])


def caught(run):
    try:
        run()
    except SoundnessError as exc:
        print("caught:", exc)
    else:
        print("missed")


# agent 0 eats bundle 1 instead of 0 from round 0, which now has one
# unit of item 0 too many
reruns = mechanisms.reruns("mps", inst)
reruns.root.supply = (2, 1)
caught(lambda: reruns.rerun(0, lie.sort(reruns.tiebreaks[0])))

# off the truthful path: agent 0 of three_chains eats bundle 2 first,
# then 0 or 1; the state after round 0 gains one unit of item 0 once
# the first walk has grown it, and the second walk takes another pick
# from it
chains = mechanisms.reruns("mps", fixtures.three_chains())
chains.rerun(0, (2, 0, 1))
node = chains.root.children[0, 2]
node.supply = (node.supply[0] + node.den, *node.supply[1:])
caught(lambda: chains.rerun(0, (2, 1, 0)))

# a resumed re-run that hands back the agents' rows swapped
real = mechanisms.MpsReruns.rerun
mechanisms.MpsReruns.rerun = lambda self, j, sort: FractionalAssignment(
    tuple(reversed(real(self, j, sort).nums)), real(self, j, sort).den
)
caught(lambda: axioms.check_strategyproofness("mps", inst, spaces.LinearOrderMisreports(), "sd", [None]))
caught(lambda: axioms.check_upper_invariance("mps", inst, spaces.ExplicitTransforms(((0, lie, 1),)), [None]))
"""


def test_resumed_eating_checks_survive_python_O():
    src = str(Path(mechanisms_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPER], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "caught: type 0 supply is not conserved",
        "caught: type 0 supply is not conserved",
        "caught: agent 0's row differs from the mechanism's on the re-run",
        "caught: agent 0's transformation re-runs to another output",
    ]
