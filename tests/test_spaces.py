import itertools
import random

import pytest

from conftest import independent_net
from mtra import io, spaces
from mtra import preferences as prefs
from mtra.axioms import check_strategyproofness, check_upper_invariance
from mtra.errors import GuardViolation, InconsistentOrder, MisreportSpaceTooLarge, MtraError
from mtra.mechanisms import reruns


def test_linear_order_counts():
    assert len(spaces.all_linear_orders(3)) == 6
    assert len(spaces.all_linear_orders(4)) == 24
    # a linear order has one bundle above none, one above one, and so on
    assert all(sorted(row.bit_count() for row in o.above) == [0, 1, 2] for o in spaces.all_linear_orders(3))


def all_partial_orders(m):
    """Every labeled strict partial order on m bundles: the relations over
    distinct pairs that `PartialOrder`'s construction check accepts,
    those that are transitively closed.  A cyclic one never is."""
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    out = []
    for mask in range(1 << len(pairs)):
        rel = [0] * m
        for i, (better, worse) in enumerate(pairs):
            if mask >> i & 1:
                rel[worse] |= 1 << better
        try:
            out.append(prefs.PartialOrder(m, tuple(rel)))
        except InconsistentOrder:
            pass
    return out


def test_poset_counts():
    # labeled posets: 19 on three elements, 219 on four
    assert len(all_partial_orders(3)) == 19
    assert len(all_partial_orders(4)) == 219


def test_dependency_graphs():
    assert spaces.acyclic_dependency_graphs(1) == (((),),)
    graphs = spaces.acyclic_dependency_graphs(2)
    assert set(graphs) == {((), ()), ((), (0,)), ((1,), ())}
    # labelled DAGs on three nodes
    assert len(spaces.acyclic_dependency_graphs(3)) == 25


def test_cpnet_enumeration_counts():
    nets_22 = spaces.all_cpnets((2, 2))
    assert len(nets_22) == 4 + 8 + 8
    assert spaces.count_cpnets((3, 3), ((), (0,))) == 6 * 6**3
    independents = spaces.enumerate_cpnets((2, 2), ((), ()))
    assert len(independents) == 4 and all(not any(n.parents) for n in independents)


def test_cpnet_guard():
    with pytest.raises(MisreportSpaceTooLarge):
        list(spaces.enumerate_cpnets((4, 4, 4), (((), (0,), (0, 1)))))


def test_order_representatives_cover_all_orders():
    reps = spaces.cpnet_order_representatives((2, 2))
    orders = {prefs.induce_order(net) for net in spaces.all_cpnets((2, 2))}
    assert {o for o, _ in reps} == orders


def per_bundle_relation_key(order, u):
    """The former key loop, kept as the reference: ``above[y] & u`` for
    each y in u, ascending, ``m`` bits each, then u in the low bits."""
    key = 0
    for y in prefs._bits(u):
        key = (key << order.m) | (order.above[y] & u)
    return (key << order.m) | u


def test_packed_relation_key_matches_the_per_bundle_reference():
    # two (order, mask) pairs share a packed key exactly when they share
    # the reference key: the same mask, and the same relation inside it
    rng = random.Random(43)
    agreed = differed = 0
    for m in (8, 9):
        orders = [spaces.random_partial_order(rng, m) for _ in range(12)]
        orders += [prefs.PartialOrder.from_pairs(m, ()), orders[0]]
        for _ in range(3000):
            a, b = rng.choice(orders), rng.choice(orders)
            u = rng.randrange(1 << m) & rng.randrange(1 << m) & rng.randrange(1 << m)
            v = u if rng.random() < 0.9 else rng.randrange(1 << m)
            same = spaces._relation_key(spaces._pack(a), u, m) == spaces._relation_key(spaces._pack(b), v, m)
            assert same == (per_bundle_relation_key(a, u) == per_bundle_relation_key(b, v))
            agreed += same
            differed += not same
    assert agreed > 1000 and differed > 1000


class ScanCpNetTransforms(spaces.TransformSource):
    """Reference for the indexed ``CpNetTransforms``: every pair of a
    representative (other than the truth's own order) and a pivot, left
    to the checker to validate."""

    def candidates(self, instance, assignment):
        reps = spaces.cpnet_order_representatives(instance.sizes)
        for j in range(instance.n):
            truth = instance.orders[j]
            for order, net in reps:
                if order == truth:
                    continue
                for pivot in range(instance.m):
                    yield j, net, pivot

    def describe(self):
        return spaces.CpNetTransforms().describe()


def valid_scan_triples(instance, assignment):
    for j, net, pivot in ScanCpNetTransforms().candidates(instance, assignment):
        if prefs.is_uit(instance.orders[j], prefs.as_order(net), pivot, assignment.row(j))[0]:
            yield j, net, pivot


def test_cpnet_transforms_match_the_scan():
    rng = random.Random(37)
    triples = failures = 0
    for n, p, per_kind in ((2, 1, 3), (3, 1, 3), (2, 2, 3), (3, 2, 1), (2, 3, 1)):
        for kind in ("general", "cpnet"):
            for _ in range(per_kind):
                inst = spaces.random_profile(rng, n, p, kind)
                for mech in ("mps", "mrp", "mgd"):
                    for tb in spaces.sweep_tiebreaks(inst.m):
                        out = reruns(mech, inst, tb).truth
                        want = list(valid_scan_triples(inst, out))
                        assert list(spaces.CpNetTransforms().candidates(inst, out)) == want
                        triples += len(want)
                        report = check_upper_invariance(mech, inst, spaces.CpNetTransforms(), [tb])
                        assert report == check_upper_invariance(mech, inst, ScanCpNetTransforms(), [tb])
                        failures += not report.passed
    assert triples > 10_000 and failures > 10


def test_random_profiles_are_valid():
    rng = random.Random(0)
    for kind in ("general", "cpnet", "independent"):
        for _ in range(10):
            inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), kind)
            assert len(inst.orders) == inst.n
            if kind == "independent":
                assert inst.is_cp_profile and all(not any(net.parents) for net in inst.preferences)
            if kind == "cpnet":
                assert inst.is_cp_profile


def test_sampled_misreports_deterministic():
    rng = random.Random(1)
    inst = spaces.random_profile(rng, 3, 2, "general")
    space = spaces.SampledLinearOrderMisreports(5, seed=9)
    assert list(space.for_agent(inst, 0)) == list(space.for_agent(inst, 0))
    assert len(list(space.for_agent(inst, 1))) == 5


def test_sampled_misreports_refuse_counts_outside_the_budget():
    # no sample would check nothing and pass; a passing check draws them all
    for samples in (0, -3):
        with pytest.raises(MtraError):
            spaces.SampledLinearOrderMisreports(samples)
    with pytest.raises(MisreportSpaceTooLarge, match=f"{spaces.ENUMERATION_LIMIT + 1} sampled misreports"):
        spaces.SampledLinearOrderMisreports(spaces.ENUMERATION_LIMIT + 1)


def test_sampled_misreports_are_drawn_lazily(monkeypatch):
    inst = spaces.random_profile(random.Random(1), 3, 2, "general")
    # the first of the most orders allowed comes without the rest being built
    real_from_chain, built = prefs.PartialOrder.from_chain, []
    monkeypatch.setattr(
        prefs.PartialOrder, "from_chain", classmethod(lambda cls, perm: built.append(perm) or real_from_chain(perm))
    )
    limit = spaces.SampledLinearOrderMisreports(spaces.ENUMERATION_LIMIT, seed=9)
    first = next(iter(limit.for_agent(inst, 0)))
    assert sorted(row.bit_count() for row in first.above) == list(range(inst.m))
    assert len(built) == 1
    monkeypatch.undo()
    space = spaces.SampledLinearOrderMisreports(40, seed=9)
    for agent in range(inst.n):
        # the former eager loop, kept as the reference
        rng = random.Random(f"9:{inst.m}:{agent}")
        want = []
        for _ in range(40):
            perm = list(range(inst.m))
            rng.shuffle(perm)
            want.append(prefs.PartialOrder.from_chain(perm))
        assert tuple(space.for_agent(inst, agent)) == tuple(want)


class FreshChains(spaces.MisreportSpace):
    """Every linear order over the bundles, built anew for each agent."""

    def for_agent(self, instance, agent):
        return spaces.Family(prefs.PartialOrder.from_chain(perm) for perm in itertools.permutations(range(instance.m)))

    def describe(self):
        return "fresh linear orders"


def test_chains_need_no_sort_under_the_default_tiebreak(monkeypatch):
    # a chain is closed along its identity sort and keeps it, so judging
    # chain misreports without a tie-break sorts nothing
    calls = []
    real = prefs.topological_sort

    def counted(order, tiebreak):
        calls.append(tiebreak)
        return real(order, tiebreak)

    monkeypatch.setattr(prefs, "topological_sort", counted)
    rng = random.Random(61)
    for n, p, space in ((2, 2, FreshChains()), (3, 2, spaces.SampledLinearOrderMisreports(30, seed=4))):
        # read back from a document, so every truthful order is a fresh `partial` one
        inst, _ = io.parse_instance(io.serialize_instance(spaces.random_profile(rng, n, p, "general")))
        for mechanism in ("mps", "mgd", "mrp"):
            check_strategyproofness(mechanism, inst, space, "sd", tiebreaks=[None])
    assert calls == []


def test_cpnet_misreports_are_built_once_per_graph():
    inst = spaces.random_profile(random.Random(5), 3, 2, "cpnet")
    for j, net in enumerate(inst.preferences):
        space = spaces.CpNetMisreports()
        nets = space.for_agent(inst, j)
        assert space.for_agent(inst, j) is nets
        assert nets == spaces.enumerate_cpnets(inst.sizes, net.parents)
        assert len(nets) == spaces.count_cpnets(inst.sizes, net.parents)


def test_cpnet_misreports_refuse_an_unknown_graph():
    # refused when built, not as a TypeError deep inside check_strategyproofness
    for graph in ("independent", None, ((), ())):
        with pytest.raises(ValueError, match="must be 'own' or 'all'"):
            spaces.CpNetMisreports(graph)


def test_cpnet_misreports_refuse_an_agent_without_a_cpnet(mixed_pair):
    # bad input, not a size guard: agent 1 states a plain partial order
    with pytest.raises(MtraError, match="agent 1 has no CP-net") as info:
        spaces.CpNetMisreports().for_agent(mixed_pair, 1)
    assert not isinstance(info.value, GuardViolation)


def test_independent_cpnets_are_the_edgeless_enumeration():
    for sizes in ((3, 3), (2, 2, 2), (4,)):
        # the former construction: one permutation per type, the last type fastest
        per_type = [list(itertools.permutations(range(s))) for s in sizes]
        want = tuple(independent_net(combo) for combo in itertools.product(*per_type))
        assert spaces.enumerate_cpnets(sizes, ((),) * len(sizes)) == want


def test_independent_space_is_guarded():
    inst = spaces.random_profile(random.Random(0), 5, 3, "independent")
    assert spaces.count_cpnets(inst.sizes, ((),) * 3) == 120**3
    with pytest.raises(MisreportSpaceTooLarge, match="1728000 CP-nets"):
        spaces.IndependentCpNetMisreports().for_agent(inst, 0)

def test_sweep_tiebreaks():
    assert spaces.sweep_tiebreaks(4) == (None, (3, 2, 1, 0))
