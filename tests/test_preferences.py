import gc
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import independent_net
from mtra import spaces
from mtra import preferences as prefs
from mtra.errors import CyclicDependency, IncompleteCPT, InconsistentOrder, NothingAvailable, SoundnessError
from mtra.mechanisms import MrpExact, mrp, resolve_sorts


def bundle_ids(inst, names):
    return [inst.bundle_by_name[x] for x in names]


# -- induced orders ----------------------------------------------------------


def test_cpnet_orders_are_induced_once_per_net(monkeypatch):
    # a net's order is built by the module's induce_order, so a wrapper
    # put in its place (as a tracer does) sees one call per net object
    calls = []
    real = prefs.induce_order

    def counting(net):
        calls.append(net)
        return real(net)

    monkeypatch.setattr(prefs, "induce_order", counting)
    inst = spaces.random_profile(random.Random(7), 3, 2, "cpnet")
    assert inst.orders == tuple(real(net) for net in inst.preferences)
    assert inst.orders is inst.orders
    assert sorted(map(id, calls)) == sorted({id(net) for net in inst.preferences})


def test_induce_order_mixed_pair_linear(mixed_pair):
    chain = prefs.PartialOrder.from_chain(bundle_ids(mixed_pair, ["1F1B", "1F2B", "2F2B", "2F1B"]))
    assert mixed_pair.orders[0] == chain


def test_induce_order_single_type_independent():
    net = independent_net([(0, 1, 2)])
    assert prefs.induce_order(net) == prefs.PartialOrder.from_chain([0, 1, 2])


def test_induce_order_dependent_pair(dependent_pair):
    chain = prefs.PartialOrder.from_chain(bundle_ids(dependent_pair, ["1F2B", "1F1B", "2F1B", "2F2B"]))
    assert dependent_pair.orders[0] == chain


def test_induced_orders_are_valid_partial_orders():
    rng = random.Random(3)
    for _ in range(40):
        n, p = rng.choice([2, 3]), rng.choice([1, 2])
        net = spaces.random_cpnet(rng, (n,) * p)
        order = prefs.induce_order(net)  # constructor asserts closure etc.
        assert order.m == n**p


def _kahn_dependency_order(parents):
    """The former ready-set loop: the least ready node first."""
    remaining, placed, out = set(range(len(parents))), set(), []
    while remaining:
        ready = sorted(i for i in remaining if set(parents[i]) <= placed)
        if not ready:
            return None
        out.append(ready[0])
        placed.add(ready[0])
        remaining.remove(ready[0])
    return tuple(out)


def test_dependency_order_matches_the_ready_set_loop():
    # every graph on up to four nodes: the same acyclicity verdict and
    # the same order, each node after its parents
    for p in range(5):
        edges = [(a, b) for a in range(p) for b in range(p)]
        for mask in range(1 << len(edges)):
            parents = [[a for k, (a, b) in enumerate(edges) if mask >> k & 1 and b == t] for t in range(p)]
            order = prefs.dependency_order(parents)
            assert order == _kahn_dependency_order(parents)
            if order is not None:
                assert sorted(order) == list(range(p))
                assert all(order.index(q) < order.index(t) for t in range(p) for q in parents[t])
    # a parent outside the graph is never placed
    assert prefs.dependency_order([(), (2,)]) is None
    assert prefs.dependency_order([(-1,)]) is None


_TOP = (((), (0, 1)),)  # type 0 of a (2, 2) net, no parents


@pytest.mark.parametrize(
    "sizes, parents, tables, error, message",
    [
        ((2, 2), ((), (0,)), (_TOP, (((0,), (0, 1)), ((0,), (1, 0)), ((1,), (0, 1)))),
         IncompleteCPT, "duplicate row for type 1 at (0,)"),
        ((2, 2), ((), (0,)), (_TOP, (((0,), (0, 1)), ((1,), (1, 1)))),
         IncompleteCPT, "row for type 1 at (1,) is not a total order"),
        ((2, 2), ((), ()), (_TOP, (((), (0,)),)),
         IncompleteCPT, "row for type 1 at () is not a total order"),
        ((2, 2), ((), (0,)), (_TOP, (((0,), (0, 1)),)),
         IncompleteCPT, "table for type 1 does not cover the parent product"),
        ((2, 2), ((),), (_TOP, _TOP),
         IncompleteCPT, "per-type parent or table list has wrong length"),
        ((2, 2), ((), ()), (_TOP,),
         IncompleteCPT, "per-type parent or table list has wrong length"),
        ((2, 2), ((1,), (0,)), ((((0,), (0, 1)), ((1,), (0, 1))),) * 2,
         CyclicDependency, "CP-net dependency graph is cyclic"),
        # the table covers the product of the parents as listed, F twice
        ((2, 2), ((), (0, 0)), (_TOP, tuple(((a, b), (0, 1)) for a in range(2) for b in range(2))),
         IncompleteCPT, "parents of type 1 name one type twice"),
    ],
    ids=["duplicate-row", "repeated-item", "short-row", "missing-assignment",
         "short-parents", "short-tables", "cyclic", "repeated-parent"],
)
def test_malformed_nets_are_refused_alike_twice(sizes, parents, tables, error, message):
    # the graph's shape is cached on first use, so the second build of each
    # bad net reads the cache and must refuse it with the same class and text
    refusals = []
    for _ in range(2):
        with pytest.raises(error) as info:
            prefs.CPNet(sizes, parents, tables)
        refusals.append((type(info.value), str(info.value)))
    assert refusals == [(error, message)] * 2


def test_construction_builds_no_flips_and_induces_no_order(monkeypatch):
    # construction checks the tables against the graph and no more, so a
    # caller can refuse a 65 536-bundle instance before anything is built
    # per bundle pair: neither the flip rows nor the order may be made
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("construction built an m-sized relation")

    monkeypatch.setattr(prefs, "induce_order", refuse)
    rng = random.Random(11)
    sizes = (16,) * 4
    for parents in (((),) * 4, ((), (0,), (), ())):  # independent, and F -> B
        tables = tuple(
            tuple((key, tuple(rng.sample(range(16), 16))) for key in itertools.product(*(range(16) for _ in ps)))
            for ps in parents
        )
        net = prefs.CPNet(sizes, parents, tables)
        assert net.parents == parents and len(net.tables[1]) == 16 ** len(parents[1])
    assert calls == []


# -- preference graphs -------------------------------------------------------


def test_preference_graph_bottom_bundle(mixed_pair):
    bn = mixed_pair.bundle_by_name
    assert set(prefs.preference_graph(mixed_pair.orders[1])) == {
        (bn["1F1B"], bn["1F2B"]),
        (bn["2F1B"], bn["1F2B"]),
        (bn["2F2B"], bn["1F2B"]),
    }


def test_preference_graph_empty_and_chain():
    assert prefs.preference_graph(prefs.PartialOrder.from_pairs(3, ())) == ()
    chain = prefs.PartialOrder.from_chain([2, 0, 3, 1])
    assert prefs.preference_graph(chain) == ((0, 3), (2, 0), (3, 1))


def test_hasse_round_trip_random_orders():
    rng = random.Random(5)
    for _ in range(60):
        order = spaces.random_partial_order(rng, rng.choice([3, 4, 5]))
        assert prefs.PartialOrder.from_pairs(order.m, prefs.preference_graph(order)) == order


# -- one-pass closure, closedness check and induction against references ----


def loop_closure(above, m):
    """The former `_closure`: OR the rows of everything above a bundle into
    its row until no row changes.  The reference for the one-pass closure;
    its result is reflexive exactly where the relation has a cycle."""
    above = list(above)
    changed = True
    while changed:
        changed = False
        for x in range(m):
            extra = 0
            for y in prefs._bits(above[x]):
                extra |= above[y]
            if extra & ~above[x]:
                above[x] |= extra
                changed = True
    return above


def former_check(m, above):
    """The former `PartialOrder` construction check: the message it raised,
    or None for an accepted relation."""
    if len(above) != m:
        return "relation size does not match universe"
    for x in range(m):
        if above[x] >> m:
            return "relation mentions bundles outside universe"
        if above[x] & (1 << x):
            return "relation is not irreflexive"
    if loop_closure(above, m) != list(above):
        return "relation is not transitively closed"
    for x in range(m):
        if any(above[y] >> x & 1 for y in prefs._bits(above[x])):
            return "relation is not anti-symmetric"
    return None


def random_relation(rng, m, cyclic):
    """Random relation on m bundles: a subrelation of a random linear order,
    or, if ``cyclic``, any pairs, self-pairs included."""
    perm = rng.sample(range(m), m)
    density = rng.random() ** 2
    above = [0] * m
    for a in range(m):
        for b in range(m) if cyclic else range(a + 1, m):
            if rng.random() < density:
                above[perm[b]] |= 1 << perm[a]
    return above


def test_closure_matches_loop_reference():
    rng = random.Random(31)
    cyclic_seen = 0
    cases = [(m, rng.random() < 0.5) for m in range(1, 13) for _ in range(40)]
    cases += [(125, False)] * 3 + [(125, True)] * 2
    for m, cyclic in cases:
        if m < 125:
            rel = random_relation(rng, m, cyclic)
        else:  # an order plus, if cyclic, one pair against a chain of its pairs
            rel = random_relation(rng, m, False)
            if cyclic:
                worse = rng.choice([x for x in range(m) if rel[x]])
                better = rng.choice(list(prefs._bits(loop_closure(rel, m)[worse])))
                rel[better] |= 1 << worse
        want = loop_closure(rel, m)
        pairs = [(better, worse) for worse in range(m) for better in prefs._bits(rel[worse])]
        if any(want[x] >> x & 1 for x in range(m)):
            with pytest.raises(InconsistentOrder):
                prefs.PartialOrder.from_pairs(m, pairs)
            cyclic_seen += 1
        else:
            assert list(prefs.PartialOrder.from_pairs(m, pairs).above) == want
    assert 100 < cyclic_seen < len(cases) - 100


def test_construction_check_matches_former_check():
    """Closed, unclosed, reflexive and cyclic relations are accepted or
    refused with the message the former closure-based check gave."""
    rng = random.Random(37)
    verdicts = set()
    for _ in range(600):
        m = rng.randint(1, 9)
        rel = random_relation(rng, m, rng.random() < 0.3)
        closed = loop_closure(rel, m)
        if rng.random() < 0.5 and not any(closed[x] >> x & 1 for x in range(m)):
            rel = closed
            if rng.random() < 0.5:  # drop one implied pair
                x = rng.randrange(m)
                if rel[x]:
                    rel[x] &= ~(1 << rng.choice(list(prefs._bits(rel[x]))))
        want = former_check(m, rel)
        verdicts.add(want)
        if want is None:
            assert prefs.PartialOrder(m, tuple(rel)).above == tuple(rel)
        else:
            with pytest.raises(InconsistentOrder) as exc:
                prefs.PartialOrder(m, tuple(rel))
            assert str(exc.value) == want
    assert verdicts == {
        None,
        "relation is not irreflexive",
        "relation is not transitively closed",
    }


def all_pairs_induced(net):
    """The former induction: every CPT-sanctioned flip, not only adjacent
    ones, from `bundle_index` per pair, closed by `loop_closure`."""
    sizes, p = net.sizes, len(net.sizes)
    m = math.prod(sizes)
    above = [0] * m
    for i in range(p):
        for key, row in net.tables[i]:
            parent_of = dict(zip(net.parents[i], key))
            free = [q for q in range(p) if q != i and q not in parent_of]
            for rest in itertools.product(*(range(sizes[q]) for q in free)):
                coords = [0] * p
                for q, v in list(parent_of.items()) + list(zip(free, rest)):
                    coords[q] = v
                for a, b in itertools.combinations(range(len(row)), 2):
                    coords[i] = row[a]
                    better = prefs.bundle_index(coords, sizes)
                    coords[i] = row[b]
                    above[prefs.bundle_index(coords, sizes)] |= 1 << better
    return tuple(loop_closure(above, m))


def check_induced(net, tiebreaks=()):
    """The net's order equals the all-pairs reference, and its sorts, the
    canonical one (stored when the order was induced) and each of
    ``tiebreaks``, equal the scan reference's on the closed order."""
    order = prefs.induce_order(net)
    want = all_pairs_induced(net)
    assert order.above == want
    closed = prefs.PartialOrder(order.m, want)
    for tiebreak in (tuple(range(order.m)), *tiebreaks):
        assert order.sort(tiebreak) == scan_topological_sort(closed, tiebreak)


def test_induction_matches_all_pairs_reference():
    nets = spaces.all_cpnets((3, 3)) + spaces.all_cpnets((2, 2, 2))
    assert len(nets) == 3980
    rng = random.Random(41)
    sample = set(rng.sample(range(len(nets)), 200))
    for k, net in enumerate(nets):
        m = math.prod(net.sizes)
        # on a sample, the reversed and a shuffled tie-break too
        check_induced(net, [tuple(range(m - 1, -1, -1)), tuple(rng.sample(range(m), m))] if k in sample else [])
    for sizes in ((4, 3), (5, 5, 5)):
        net = spaces.random_cpnet(rng, sizes)
        m = math.prod(sizes)
        check_induced(net, [tuple(range(m - 1, -1, -1)), tuple(rng.sample(range(m), m))])


_INDUCTION_TAMPER = """
import sys
from mtra import preferences as prefs
from mtra.errors import MtraError, SoundnessError

if __debug__ or issubclass(SoundnessError, MtraError):
    sys.exit("expected python -O and a SoundnessError outside MtraError")
net = prefs.CPNet((2, 2), ((), (0,)), ((((), (1, 0)),), (((0,), (0, 1)), ((1,), (1, 0)))))
# the linear extension of the net's flips comes up short, as on a cycle
real = prefs._linear_extension
prefs._linear_extension = lambda above, m, tiebreak: real(above, m, tiebreak)[:-1]
try:
    prefs.induce_order(net)
except SoundnessError as exc:
    print("caught:", exc)
else:
    print("missed")
"""


def test_induction_check_survives_python_O():
    src = str(Path(prefs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _INDUCTION_TAMPER], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["caught: an acyclic CP-net induces an acyclic order"]


def _tampers(closed):
    """One bit added, one removed and one self-bit, each on a copy of the
    closed rows of a strict partial order, and each leaving a relation
    that is not one: the added bit puts a bundle above one of its own
    betters, the removed one is implied by a chain of two."""
    m = len(closed)
    hi, lo = next((hi, lo) for lo in range(m) for hi in prefs._bits(closed[lo]))
    w, z = next((w, z) for w in range(m) for z in prefs._bits(closed[w]) if closed[z])
    added, removed, self_bit = list(closed), list(closed), list(closed)
    added[hi] |= 1 << lo
    removed[w] &= ~(closed[z] & -closed[z])
    self_bit[z] |= 1 << z
    return {"added": added, "removed": removed, "self": self_bit}


_NET = prefs.CPNet((2, 3), ((), (0,)), ((((), (1, 0)),), (((0,), (0, 2, 1)), ((1,), (2, 1, 0)))))
# orders closed from generators, each built afresh (not from a cache)
_GENERATED = {
    "from_pairs": lambda: prefs.PartialOrder.from_pairs(4, [(0, 1), (1, 2), (1, 3), (2, 3)]),
    "induce_order": lambda: prefs.induce_order.__wrapped__(_NET),
}


@pytest.mark.parametrize("build", list(_GENERATED))
@pytest.mark.parametrize("tamper", ["added", "removed", "self"])
def test_generator_check_refuses_what_the_construction_check_refuses(monkeypatch, build, tamper):
    order = _GENERATED[build]()
    tampered = _tampers(order.above)[tamper]
    # the construction check refuses the tampered rows handed in whole,
    # and the generator check refuses them as the closure's output
    with pytest.raises(InconsistentOrder):
        prefs.PartialOrder(order.m, tuple(tampered))
    monkeypatch.setattr(prefs, "_close", lambda above, extension: list(tampered))
    with pytest.raises(SoundnessError):
        _GENERATED[build]()


def skip_one_or(above, extension):
    """A mutant of `_close` that leaves out its first OR that adds a bit."""
    closed = list(above)
    skipped = False
    for x in extension:
        rest = above[x]
        while rest:
            y = (rest & -rest).bit_length() - 1
            if skipped or not closed[y] & ~closed[x]:
                closed[x] |= closed[y]
            else:
                skipped = True
            rest &= ~closed[y] & (rest - 1)
    return closed


@pytest.mark.parametrize("build", list(_GENERATED))
def test_generator_check_catches_a_closure_that_skips_one_or(monkeypatch, build):
    real, differs = prefs._close, []

    def mutant(above, extension):
        closed = skip_one_or(above, extension)
        differs.append(closed != real(above, extension))
        return closed

    monkeypatch.setattr(prefs, "_close", mutant)
    with pytest.raises(SoundnessError) as caught:
        _GENERATED[build]()
    assert differs == [True]
    assert str(caught.value) == "a closed row is its generators' row OR'd with their closed rows"


_GENERATOR_TAMPER = """
import sys
from mtra import preferences as prefs
from mtra.errors import InconsistentOrder, SoundnessError

if __debug__:
    sys.exit("expected python -O")
order = prefs.PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
tampered = (0, 0b001, 0b010)  # 0 above 2 dropped
try:
    prefs.PartialOrder(3, tampered)
except InconsistentOrder as exc:
    print("construction check:", exc)
prefs._close = lambda above, extension: list(tampered)
try:
    prefs.PartialOrder.from_pairs(3, [(0, 1), (1, 2)])
except SoundnessError as exc:
    print("generator check:", exc)
"""


def test_both_closure_checks_survive_python_O():
    src = str(Path(prefs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _GENERATOR_TAMPER], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "construction check: relation is not transitively closed",
        "generator check: a closed row is its generators' row OR'd with their closed rows",
    ]


def test_cpnets_keep_their_induced_order():
    rng = random.Random(61)
    for sizes in ((3, 3), (2, 2, 2)):
        net = spaces.random_cpnet(rng, sizes)
        assert net.order is prefs.induce_order(net) is prefs.as_order(net)
        # an equal but distinct net holds the same order, so the same sorts
        twin = prefs.CPNet(net.sizes, net.parents, tuple(tuple(table) for table in net.tables))
        assert twin == net and twin is not net
        assert twin.order is net.order
        tiebreak = tuple(rng.sample(range(twin.order.m), twin.order.m))
        assert twin.order.sort(tiebreak) is net.order.sort(tiebreak)
    # a one-agent copy holds the same order objects
    inst = spaces.random_profile(rng, 3, 2, "cpnet")
    derived = inst.with_preference(0, inst.preferences[1])
    assert derived.orders[0] is inst.orders[1] is inst.preferences[1].order
    assert all(a is b for a, b in zip(derived.orders[1:], inst.orders[1:]))


def test_an_induced_order_leaves_nothing_behind_once_dropped():
    # the flips are built inside induce_order and go with it, so once the
    # order and its cache entry are gone nothing m-sized is left: an (8,4)
    # net's flip rows alone take some 4 MB
    net = spaces.random_cpnet(random.Random(71), (8,) * 4, independent=True)  # builds the shape
    gc.collect()
    tracemalloc.start()
    try:
        order = prefs.induce_order(net)
        assert order.m == 8**4
        del order
        prefs.induce_order.cache_clear()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 2**19, f"{retained} bytes kept after the order was dropped"


def down_mask_graph(order):
    """The former `preference_graph`: x covers y unless some bundle both
    below x and above y lies between them."""
    edges = []
    for y in range(order.m):
        for x in prefs._bits(order.above[y]):
            below_x = sum(1 << z for z in range(order.m) if order.above[z] >> x & 1)
            if not order.above[y] & below_x:
                edges.append((x, y))
    return tuple(sorted(edges))


def test_preference_graph_matches_down_mask_reference():
    rng = random.Random(43)
    orders = [spaces.random_partial_order(rng, m) for m in (1, 2, 3, 5, 8, 12) for _ in range(10)]
    orders += [spaces.random_partial_order(rng, 125) for _ in range(2)]
    orders += [prefs.induce_order(spaces.random_cpnet(rng, (5, 5, 5))), prefs.PartialOrder.from_pairs(4, ())]
    for order in orders:
        assert prefs.preference_graph(order) == down_mask_graph(order)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: prefs.PartialOrder(3, (0, 0)), "relation size does not match universe"),
        (lambda: prefs.PartialOrder(2, (0b100, 0)), "relation mentions bundles outside universe"),
        (lambda: prefs.PartialOrder(2, (0b01, 0)), "relation is not irreflexive"),
        (lambda: prefs.PartialOrder(3, (0b010, 0b100, 0)), "relation is not transitively closed"),
        (lambda: prefs.PartialOrder(2, (0b10, 0b01)), "relation is not transitively closed"),
        (lambda: prefs.PartialOrder.from_pairs(3, [(0, 1), (1, 2), (2, 0)]), "edge list induces a cycle"),
        (lambda: prefs.PartialOrder.from_pairs(2, [(0, 2)]), "edge (0,2) outside universe"),
    ],
    ids=["length", "outside", "reflexive", "unclosed", "two-cycle", "three-cycle", "edge-outside"],
)
def test_inconsistent_order_messages(build, message):
    with pytest.raises(InconsistentOrder) as exc:
        build()
    assert str(exc.value) == message


# -- upper contour sets ------------------------------------------------------


def test_upper_contour_sets(mixed_pair):
    bn = mixed_pair.bundle_by_name
    assert mixed_pair.orders[0].upper_contour_set(bn["2F2B"]) == {
        bn["1F1B"],
        bn["1F2B"],
        bn["2F2B"],
    }
    assert mixed_pair.orders[1].upper_contour_set(bn["2F1B"]) == {bn["2F1B"]}
    empty = prefs.PartialOrder.from_pairs(4, ())
    assert empty.upper_contour_set(2) == {2}


# -- topological sorts -------------------------------------------------------


def test_topological_sort_two_extensions(mixed_pair):
    tb_a = bundle_ids(mixed_pair, ["2F1B", "1F1B", "2F2B", "1F2B"])
    tb_b = bundle_ids(mixed_pair, ["1F1B", "2F2B", "2F1B", "1F2B"])
    assert prefs.topological_sort(mixed_pair.orders[1], tb_a) == tuple(tb_a)
    assert prefs.topological_sort(mixed_pair.orders[1], tb_b) == tuple(tb_b)


def test_topological_sort_linear_input_ignores_tiebreak(mixed_pair):
    chain = mixed_pair.orders[0]
    expected = tuple(bundle_ids(mixed_pair, ["1F1B", "1F2B", "2F2B", "2F1B"]))
    for tiebreak in itertools.permutations(range(4)):
        assert prefs.topological_sort(chain, tiebreak) == expected


def test_topological_sort_is_linear_extension_and_deterministic():
    rng = random.Random(9)
    for _ in range(50):
        m = rng.choice([3, 4, 5])
        order = spaces.random_partial_order(rng, m)
        tiebreak = list(range(m))
        rng.shuffle(tiebreak)
        out = prefs.topological_sort(order, tiebreak)
        emitted = 0  # each bundle comes after every bundle above it
        for x in out:
            assert not order.above[x] & ~emitted
            emitted |= 1 << x
        assert emitted == (1 << m) - 1
        assert out == prefs.topological_sort(order, tiebreak)


def scan_topological_sort(order, tiebreak):
    """The former `topological_sort` body, which scans the tie-break from
    its start for every position: the reference for the one-pass sort."""
    emitted = 0
    result = []
    for _ in range(order.m):
        for x in tiebreak:
            if emitted & (1 << x):
                continue
            if order.above[x] & ~emitted == 0:
                result.append(x)
                emitted |= 1 << x
                break
    return tuple(result)


def test_topological_sort_matches_scan_reference():
    rng = random.Random(17)
    checked = 0
    for m in (1, 2, 4, 9, 16, 27, 64, 125):
        orders = [spaces.random_partial_order(rng, m) for _ in range(4)]
        chain = rng.sample(range(m), m)
        orders += [
            prefs.PartialOrder.from_pairs(m, ()),
            prefs.PartialOrder.from_chain(range(m)),
            prefs.PartialOrder.from_chain(range(m - 1, -1, -1)),
            prefs.PartialOrder.from_chain(chain),
        ]
        for order in orders:
            # canonical, reversed and one shared shuffled tie-break
            for tiebreak in (range(m), range(m - 1, -1, -1), rng.sample(range(m), m)):
                tiebreak = tuple(tiebreak)
                assert prefs.topological_sort(order, tiebreak) == scan_topological_sort(order, tiebreak)
                checked += 1
    # per-agent tie-breaks, through the mechanisms' sorts, on CP-net and
    # general profiles up to 125 bundles
    for n, p in ((3, 2), (4, 2), (8, 2), (4, 3), (5, 3)):
        for kind in ("general", "cpnet", "independent"):
            inst = spaces.random_profile(rng, n, p, kind)
            shared = rng.sample(range(inst.m), inst.m)
            per_agent = [rng.sample(range(inst.m), inst.m) for _ in range(n)]
            for tiebreak in (None, shared, per_agent):
                breaks = (
                    [range(inst.m)] * n if tiebreak is None
                    else [shared] * n if tiebreak is shared
                    else per_agent
                )
                want = tuple(scan_topological_sort(o, tb) for o, tb in zip(inst.orders, breaks))
                assert resolve_sorts(inst, tiebreak) == want
                checked += 1
    assert checked == 8 * 8 * 3 + 5 * 3 * 3


def test_from_pairs_keeps_the_extension_it_closed_along_as_its_identity_sort():
    checked = 0
    for seed in range(4):
        rng = random.Random(seed)
        for m in (1, 2, 5, 9, 27, 64, 125):
            order = spaces.random_partial_order(rng, m)
            identity = tuple(range(m))
            assert order._sorts[identity] == prefs._linear_extension(order.above, m, identity)
            # a chain and the empty order are built by `from_pairs` too
            chain = tuple(rng.sample(range(m), m))
            linear = prefs.PartialOrder.from_chain(chain)
            assert linear._sorts[identity] == chain
            assert all(linear.above[x] == sum(1 << y for y in chain[:k]) for k, x in enumerate(chain))
            assert prefs.PartialOrder.from_pairs(m, ())._sorts[identity] == identity
            checked += 1
    assert checked == 4 * 7
    for chain in ([0, 0], [0, 2], [1, 0, 1]):
        with pytest.raises(InconsistentOrder):
            prefs.PartialOrder.from_chain(chain)


def test_topological_sort_rejects_bad_tiebreak():
    with pytest.raises(InconsistentOrder):
        prefs.topological_sort(prefs.PartialOrder.from_pairs(3, ()), [0, 0, 1])


# -- ext ----------------------------------------------------------------------


def available_mask(bundle_items, supply):
    """Bitmask of the bundles whose items all have supply > 0."""
    return sum(1 << x for x, items in enumerate(bundle_items) if all(supply[o] > 0 for o in items))


def test_ext_examples(mixed_pair):
    tb_a = tuple(bundle_ids(mixed_pair, ["2F1B", "1F1B", "2F2B", "1F2B"]))
    sort_a = prefs.topological_sort(mixed_pair.orders[1], tb_a)
    items = mixed_pair.bundle_items
    # 1B exhausted: first two bundles of the sort are unavailable
    assert mixed_pair.bundle_names[prefs.ext(sort_a, available_mask(items, [1, 1, 0, 1]))] == "2F2B"
    chain = prefs.topological_sort(mixed_pair.orders[0], range(4))
    assert mixed_pair.bundle_names[prefs.ext(chain, available_mask(items, [1, 1, 1, 1]))] == "1F1B"
    assert mixed_pair.bundle_names[prefs.ext(chain, available_mask(items, [0, 1, 1, 0]))] == "2F1B"


def test_ext_nothing_available(mixed_pair):
    chain = prefs.topological_sort(mixed_pair.orders[0], range(4))
    with pytest.raises(NothingAvailable):
        prefs.ext(chain, available_mask(mixed_pair.bundle_items, [0, 1, 0, 0]))


# -- the CPT walk --------------------------------------------------------------


def top_cpnet(net, remaining):
    """Unique best available bundle of an acyclic CP-net, as item indices:
    the types in dependency order, each taking its CPT-best item in
    ``remaining[i]`` given the items chosen for its parents.  The
    reference that `ext` over the induced order's sort must agree with."""
    chosen = {}
    for i in prefs.dependency_order(net.parents):
        row = dict(net.tables[i])[tuple(chosen[q] for q in net.parents[i])]
        chosen[i] = next(o for o in row if o in remaining[i])
    return tuple(chosen[i] for i in range(len(net.sizes)))


def test_top_cpnet_examples(mixed_pair):
    net = mixed_pair.preferences[0]
    assert top_cpnet(net, [{0, 1}, {1}]) == (0, 1)  # only 2B left: 1F2B
    assert top_cpnet(net, [{1}, {0, 1}]) == (1, 1)  # only 2F left: 2F2B
    assert top_cpnet(net, [{0, 1}, {0, 1}]) == (0, 0)  # everything: 1F1B


def test_top_cpnet_dominates_every_available_bundle():
    rng = random.Random(13)
    for _ in range(20):
        n, p = rng.choice([2, 3]), rng.choice([1, 2])
        net = spaces.random_cpnet(rng, (n,) * p)
        order = prefs.induce_order(net)
        items = [list(range(n))] * p
        for remaining in itertools.product(
            *[
                [c for size in range(1, n + 1) for c in itertools.combinations(range(n), size)]
                for _ in range(p)
            ]
        ):
            top = top_cpnet(net, remaining)
            top_idx = prefs.bundle_index(top, (n,) * p)
            for bundle in itertools.product(*remaining):
                idx = prefs.bundle_index(bundle, (n,) * p)
                if idx != top_idx:
                    assert order.prefers(top_idx, idx)


def test_ext_equals_top_for_cpnet_orders():
    rng = random.Random(17)
    for _ in range(20):
        n, p = rng.choice([2, 3]), rng.choice([1, 2])
        net = spaces.random_cpnet(rng, (n,) * p)
        order = prefs.induce_order(net)
        m = n**p
        tiebreak = list(range(m))
        rng.shuffle(tiebreak)
        sort = prefs.topological_sort(order, tiebreak)

        def coords(x):  # mixed-radix digits of bundle x, one item index per type
            return tuple(x // n ** (p - 1 - t) % n for t in range(p))

        bundle_items = [tuple(t * n + coord for t, coord in enumerate(coords(x))) for x in range(m)]
        for _ in range(10):
            remaining = [
                sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(p)
            ]
            supply = [0] * (n * p)
            for t, items in enumerate(remaining):
                for i in items:
                    supply[t * n + i] = 1
            top = top_cpnet(net, remaining)
            ext_bundle = prefs.ext(sort, available_mask(bundle_items, supply))
            assert coords(ext_bundle) == top


# -- upper invariant transformations ------------------------------------------


def test_is_uit_identity(mixed_pair):
    order = mixed_pair.orders[1]
    row = (Fraction(1, 2), 0, 0, Fraction(1, 2))
    for pivot in range(4):
        ok, z = prefs.is_uit(order, order, pivot, row)
        assert ok and z == frozenset()


def test_is_uit_blank_vs_chain(blank_vs_chain):
    truth = mrp(blank_vs_chain, MrpExact()).assignment
    lie = prefs.PartialOrder.from_pairs(2, [(1, 0)])
    ok, z = prefs.is_uit(blank_vs_chain.orders[0], lie, 1, truth.row(0))
    assert ok and z == frozenset()
    ok_at_1, reason = prefs.is_uit(blank_vs_chain.orders[0], lie, 0, truth.row(0))
    assert not ok_at_1 and "gained" in reason


def test_is_uit_three_chains(three_chains):
    from mtra.mechanisms import mgd

    P = mgd(three_chains)
    bn = three_chains.bundle_by_name
    ok, z = prefs.is_uit(three_chains.orders[2], three_chains.orders[0], bn["2F"], P.row(2))
    assert ok and z == frozenset({bn["3F"]})


def test_is_uit_rejects_positive_share_removal(mixed_pair):
    order = mixed_pair.orders[0]  # full chain
    bottom = bundle_ids(mixed_pair, ["2F1B"])[0]
    smaller = order.without_bundles([mixed_pair.bundle_by_name["1F2B"]])
    row = (Fraction(1, 2), Fraction(1, 2), 0, 0)  # positive share on 1F2B
    ok, reason = prefs.is_uit(order, smaller, bottom, row)
    assert not ok and "positive share" in reason


def test_without_bundles_is_restriction():
    rng = random.Random(23)
    for _ in range(30):
        order = spaces.random_partial_order(rng, 5)
        removed = rng.sample(range(5), 2)
        new = order.without_bundles(removed)
        for x in range(5):
            for y in range(5):
                if x in removed or y in removed:
                    assert not new.prefers(x, y)
                else:
                    assert new.prefers(x, y) == order.prefers(x, y)


# -- allocation sums pin rows down (zeta inversion) ----------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distinct_rows_have_distinct_ucs_sums(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    m = data.draw(st.integers(2, 5))
    order = spaces.random_partial_order(rng, m)
    num = data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    den = sum(num)
    if den == 0:
        return
    row_a = tuple(Fraction(v, den) for v in num)
    num_b = data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    den_b = sum(num_b)
    if den_b == 0:
        return
    row_b = tuple(Fraction(v, den_b) for v in num_b)
    from mtra.axioms import ucs_sums

    if row_a != row_b:
        assert ucs_sums(order, row_a) != ucs_sums(order, row_b)


def test_partial_order_rejects_cycles():
    with pytest.raises(InconsistentOrder):
        prefs.PartialOrder.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
