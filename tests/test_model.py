import random
import time
from fractions import Fraction

import pytest

from mtra import fixtures, spaces
from mtra import preferences as prefs
from mtra.errors import (
    DimensionMismatch,
    DuplicateItemName,
    InstanceTooLargeToDecide,
    MissingPreference,
    ParseError,
    TypeSizeMismatch,
)
from mtra.model import (
    BUNDLE_PAIR_LIMIT,
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    Lottery,
    TypeDef,
    all_discrete_assignments,
    from_discrete,
    parse_fraction,
    type_tables,
    validate_assignment,
)
from mtra.axioms import check_ex_post_efficiency, check_strategyproofness
from mtra.io import build_instance, parse_assignment, serialize_assignment
from mtra.mechanisms import MrpExact, mgd, mgd_decompose, mps, mrp, mrp_decompose, resolve_sorts


def test_build_mixed_pair(mixed_pair):
    assert mixed_pair.n == 2 and mixed_pair.p == 2 and mixed_pair.m == 4
    assert mixed_pair.bundle_names == ("1F1B", "1F2B", "2F1B", "2F2B")
    assert mixed_pair.item_names == ("1F", "2F", "1B", "2B")


def test_build_singleton():
    inst = fixtures.solo()
    assert inst.n == 1 and inst.m == 1
    assert inst.bundle_names == ("1F",)


def test_type_size_mismatch():
    with pytest.raises(TypeSizeMismatch):
        build_instance(
            {
                "agents": 2,
                "types": [{"name": "F", "items": ["1F", "2F", "3F"]}],
                "preferences": [{"kind": "partial", "edges": []}] * 2,
            }
        )


def test_duplicate_item_name():
    with pytest.raises(DuplicateItemName):
        build_instance(
            {
                "agents": 2,
                "types": [
                    {"name": "F", "items": ["1F", "2F"]},
                    {"name": "B", "items": ["1F", "2B"]},
                ],
                "preferences": [{"kind": "partial", "edges": []}] * 2,
            }
        )


def test_bundle_names_must_be_distinct():
    # a + bc and ab + c would both be named "abc"
    with pytest.raises(DuplicateItemName, match="'abc'"):
        build_instance(
            {
                "agents": 2,
                "types": [
                    {"name": "F", "items": ["a", "ab"]},
                    {"name": "B", "items": ["c", "bc"]},
                ],
                "preferences": [{"kind": "partial", "edges": []}] * 2,
            }
        )


def _prefix_cpnet(types, parents, rows):
    """Two agents sharing one CP-net in which type B depends on
    ``parents``; every other type prefers its first item."""
    cpt = {t["name"]: {"": t["items"]} for t in types if t["name"] != "B"}
    cpt["B"] = rows
    net = {"kind": "cpnet", "dependency": [[q, "B"] for q in parents], "cpt": cpt}
    return {"agents": 2, "types": types, "preferences": [net, net]}


def test_cpt_key_with_a_prefixed_item_name():
    # "a" prefixes "ab": the key "ab" must still be read as the item ab
    types = [{"name": "F", "items": ["a", "ab"]}, {"name": "B", "items": ["c", "d"]}]
    inst = build_instance(_prefix_cpnet(types, ["F"], {"a": ["c", "d"], "ab": ["d", "c"]}))
    net = inst.preferences[0]
    rows = dict(net.tables[1])
    assert rows[(0,)] == (0, 1) and rows[(1,)] == (1, 0)
    # two parents, names in either order: "bca" is bc + a, "cab" is
    # c + ab and "abbc" is ab + bc
    types = [
        {"name": "F", "items": ["a", "ab"]},
        {"name": "B", "items": ["x", "y"]},
        {"name": "D", "items": ["c", "bc"]},
    ]
    rows = {"ac": ["x", "y"], "bca": ["y", "x"], "cab": ["x", "y"], "abbc": ["y", "x"]}
    net = build_instance(_prefix_cpnet(types, ["F", "D"], rows)).preferences[0]
    rows = dict(net.tables[1])
    assert [rows[key] for key in ((0, 0), (0, 1), (1, 0), (1, 1))] == [(0, 1), (1, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize(
    "items, top, rows, message",
    [
        (["1", "2"], [2, 1], {"1": ["x", "y"], "2": ["y", "x"]}, "unknown item name 2"),
        (["True", "False"], [True, "False"], {"True": ["x", "y"], "False": ["y", "x"]}, "unknown item name True"),
        (["1", "2"], ["1", "2"], {1: ["x", "y"], "2": ["y", "x"]}, "cannot resolve CPT key 1"),
        (["True", "False"], ["True", "False"], {True: ["x", "y"], "False": ["y", "x"]},
         "cannot resolve CPT key True"),
    ],
    ids=["entry-number", "entry-bool", "key-number", "key-bool"],
)
def test_cpt_names_must_be_strings(items, top, rows, message):
    # each refused value would name an item of F if it were read as a string
    types = [{"name": "F", "items": items}, {"name": "B", "items": ["x", "y"]}]
    doc = _prefix_cpnet(types, ["F"], rows)
    doc["preferences"][0]["cpt"]["F"] = {"": top}
    with pytest.raises(ParseError, match=f"^{message}$"):
        build_instance(doc)


def test_ambiguous_cpt_key_names_both_readings():
    # "abc" is a + bc and ab + c
    types = [
        {"name": "F", "items": ["a", "ab"]},
        {"name": "B", "items": ["x", "y"]},
        {"name": "D", "items": ["c", "bc"]},
    ]
    rows = {"ac": ["x", "y"], "abc": ["y", "x"], "abbc": ["y", "x"]}
    with pytest.raises(ParseError, match=r"'abc' is ambiguous: a\+bc or ab\+c"):
        build_instance(_prefix_cpnet(types, ["F", "D"], rows))


def test_instance_needs_a_type():
    with pytest.raises(ParseError):
        build_instance(
            {"agents": 2, "types": [], "preferences": [{"kind": "partial", "edges": []}] * 2}
        )


def test_missing_preference():
    with pytest.raises(MissingPreference):
        build_instance(
            {
                "agents": 2,
                "types": [{"name": "F", "items": ["1F", "2F"]}],
                "preferences": [{"kind": "partial", "edges": []}],
            }
        )


def test_enumerate_bundles_orders(mixed_pair):
    assert [mixed_pair.bundle_names[i] for i in range(4)] == ["1F1B", "1F2B", "2F1B", "2F2B"]
    # flat item ids: 1F, 2F are 0, 1 and 1B, 2B are 2, 3
    assert mixed_pair.bundle_items == ((0, 2), (0, 3), (1, 2), (1, 3))
    three = build_instance(
        {
            "agents": 3,
            "types": [{"name": "F", "items": ["1F", "2F", "3F"]}],
            "preferences": [{"kind": "partial", "edges": []}] * 3,
        }
    )
    assert three.bundle_names == ("1F", "2F", "3F")
    nine = spaces.random_profile(random.Random(0), 3, 2, "general")
    assert nine.m == 9
    assert nine.bundle_names[0] == "1F1B" and nine.bundle_names[-1] == "3F3B"


def test_validate_assignment(mixed_pair):
    assert validate_assignment(fixtures.assignment_2(), mixed_pair) is None
    assert validate_assignment(fixtures.assignment_3(), mixed_pair) is None
    zero = FractionalAssignment.from_rows([[0] * 4] * 2)
    violation = validate_assignment(zero, mixed_pair)
    assert violation.kind == "row-sum" and violation.subject == "agent 0"
    assert violation.actual == 0
    # item marginal breakage: both agents fully on the same bundle
    doubled = FractionalAssignment.from_rows([[1, 0, 0, 0], [1, 0, 0, 0]])
    violation = validate_assignment(doubled, mixed_pair)
    assert violation.kind == "item-marginal"
    # items 1F and 2F both break; the first is named, with its total
    for rows, total in [([["1/2", 0, 0, "1/2"], ["1/2", "1/2", 0, 0]], Fraction(3, 2)), ([[0, 0, 0, 1]] * 2, 0)]:
        violation = validate_assignment(FractionalAssignment.from_rows(rows), mixed_pair)
        assert (violation.kind, violation.subject, violation.actual) == ("item-marginal", "1F", total)
    with pytest.raises(DimensionMismatch):
        validate_assignment(FractionalAssignment.from_rows([[1]]), mixed_pair)


def test_from_discrete(mixed_pair):
    bn = mixed_pair.bundle_by_name
    P = from_discrete(mixed_pair, DiscreteAssignment((bn["1F1B"], bn["2F2B"])))
    assert P.entry(0, bn["1F1B"]) == 1 and P.entry(1, bn["2F2B"]) == 1
    assert sum(P.row(0)) == 1

    single = fixtures.solo()
    assert from_discrete(single, DiscreteAssignment((0,))).rows == ((Fraction(1),),)

    rem3 = fixtures.three_chains()
    serial = DiscreteAssignment(
        (rem3.bundle_by_name["1F"], rem3.bundle_by_name["3F"], rem3.bundle_by_name["2F"])
    )
    P3 = from_discrete(rem3, serial)
    assert P3 == FractionalAssignment.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_validate_assignment_entry_range(mixed_pair):
    out_of_range = FractionalAssignment.from_rows(
        [["3/2", "-1/2", 0, 0], [0, 0, "1/2", "1/2"]]
    )
    violation = validate_assignment(out_of_range, mixed_pair)
    assert violation.kind == "entry-range"


def test_lottery_invariants(mixed_pair):
    bn = mixed_pair.bundle_by_name
    disc = DiscreteAssignment((bn["1F1B"], bn["2F2B"]))
    with pytest.raises(DimensionMismatch):
        Lottery(((Fraction(1, 2), disc),))  # probabilities must sum to one
    with pytest.raises(DimensionMismatch):
        Lottery(((Fraction(0), disc), (Fraction(1), disc)))


@pytest.mark.parametrize("bundles", [(0,), (0, 3, 1)])
def test_lottery_expectation_refuses_entries_of_another_instance(mixed_pair, bundles):
    # one bundle too few would leave agent 1's row empty, one too many
    # would index past the agents
    with pytest.raises(DimensionMismatch):
        Lottery(((1, DiscreteAssignment(bundles)),)).expectation(mixed_pair)


def test_equal_matrices_are_one_value():
    """An assignment reached by different routes is one value: equal,
    hash-equal, with the same integer form and the same Fraction rows."""
    rng = random.Random(59)
    for n, p in [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2)]:
        for kind in ("general", "cpnet"):
            inst = spaces.random_profile(rng, n, p, kind)
            P = mps(inst)[0]
            for a, b in [
                (P, parse_assignment(serialize_assignment(inst, P), inst)),
                (P, FractionalAssignment.from_rows(P.rows)),
                (mgd(inst), mgd_decompose(inst).expectation(inst)),
                (mrp(inst, MrpExact()).assignment, mrp_decompose(inst).expectation(inst)),
            ]:
                assert a == b and hash(a) == hash(b)
                assert (a.nums, a.den) == (b.nums, b.den) and a.rows == b.rows


def test_integer_form_is_reduced_and_checked():
    half = FractionalAssignment(((2, 2),), 4)
    assert half.nums == ((1, 1),) and half.den == 2
    assert half.rows == ((Fraction(1, 2), Fraction(1, 2)),)
    for den in (0, -2):
        with pytest.raises(ValueError):
            FractionalAssignment(((1,),), den)
    # Fractions belong in from_rows; as numerators they would be misread
    with pytest.raises(TypeError):
        FractionalAssignment(((Fraction(1, 2), Fraction(1, 2)),))


@pytest.mark.parametrize("share", ["1/0", "1e9999999", "x", "1e-4300", "0." + "9" * 4300])
def test_from_rows_refuses_bad_strings_quickly(share):
    # the guards of the file formats hold for the library too
    start = time.perf_counter()
    with pytest.raises(ParseError):
        FractionalAssignment.from_rows([[share, "0"], ["0", "1"]])
    assert time.perf_counter() - start < 1


def test_from_rows_bounds_the_common_denominator():
    # each denominator is within the digit limit, but their lcm is not:
    # refused as a document is, before the lcm grows further
    dens = [10**4299 + 2 * k + 1 for k in range(16)]
    rows = [[Fraction(1, d) for d in dens[:8]], [Fraction(1, d) for d in dens[8:]]]
    start = time.perf_counter()
    with pytest.raises(ParseError, match="the shares' common denominator has more than 4300 digits"):
        FractionalAssignment.from_rows(rows)
    assert time.perf_counter() - start < 0.1
    # one such denominator is fine
    assert FractionalAssignment.from_rows([[Fraction(1, dens[0])]]).den == dens[0]


def test_parse_fraction_digit_limit():
    # 10**4299 has 4300 digits, the most a numerator or denominator may have
    assert parse_fraction("1e-4299") == Fraction(1, 10**4299)
    assert parse_fraction("9" * 4300) == 10**4300 - 1
    for text in ("1e-4300", "1" + "0" * 4300, "1e4300"):
        with pytest.raises(ParseError):
            parse_fraction(text)


def test_from_rows_keeps_its_types():
    # a float is refused, also next to the int or the string it equals
    for row in ([1, 1.0], ["1", 1.0], [None]):
        with pytest.raises(ParseError):
            FractionalAssignment.from_rows([row])
    got = FractionalAssignment.from_rows([[True, Fraction(1, 2), "1/2"], [0, "2/4", Fraction(3, 6)]])
    assert (got.nums, got.den) == (((2, 1, 1), (0, 1, 1)), 2)
    rng = random.Random(29)
    for n, p in [(5, 3), (7, 2)]:
        for kind in ("general", "cpnet"):
            inst = spaces.random_profile(rng, n, p, kind)
            for P in (mps(inst)[0], mgd(inst)):
                for got in (FractionalAssignment.from_rows(P.rows), parse_assignment(serialize_assignment(inst, P), inst)):
                    assert (got.nums, got.den) == (P.nums, P.den)


def test_from_discrete_rejects_item_reuse(mixed_pair):
    bn = mixed_pair.bundle_by_name
    with pytest.raises(DimensionMismatch):
        from_discrete(mixed_pair, DiscreteAssignment((bn["1F1B"], bn["1F2B"])))


@pytest.mark.parametrize("bundles", [(-1, 0), (4, 0)], ids=["-1", "m"])
def test_from_discrete_rejects_bundles_outside_the_instance(mixed_pair, bundles):
    # -1 would wrap round to the last bundle, 4 is past the end
    with pytest.raises(DimensionMismatch, match=r"bundle -?\d is not one of the 4 bundles"):
        from_discrete(mixed_pair, DiscreteAssignment(bundles))


def test_discrete_assignments_always_validate():
    rng = random.Random(1)
    for _ in range(25):
        inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), "general")
        for disc in all_discrete_assignments(inst):
            assert validate_assignment(from_discrete(inst, disc), inst) is None


def test_with_preference_replaces_one_agent(mixed_pair):
    swapped = mixed_pair.with_preference(0, mixed_pair.preferences[1])
    assert swapped.preferences[0] == mixed_pair.preferences[1]
    assert swapped.preferences[1] == mixed_pair.preferences[1]
    assert mixed_pair.preferences[0] != mixed_pair.preferences[1]


STRUCTURE = ("sizes", "m", "item_names", "bundle_items", "item_bundles", "bundle_names", "bundle_by_name")


def test_item_bundles_lists_the_bundles_of_each_item():
    rng = random.Random(31)
    for n, p in [(1, 1), (3, 1), (2, 2), (3, 2), (2, 3)]:
        inst = spaces.random_profile(rng, n, p, "general")
        for o, mask in enumerate(inst.item_bundles):
            assert mask == sum(1 << x for x, items in enumerate(inst.bundle_items) if o in items)


def _carry_over_tiebreaks(rng, inst):
    shared = rng.sample(range(inst.m), inst.m)
    per_agent = [rng.sample(range(inst.m), inst.m) for _ in range(inst.n)]
    return (*spaces.sweep_tiebreaks(inst.m), shared, per_agent)


def test_with_preference_matches_a_fresh_instance():
    rng = random.Random(37)
    for n, p in [(2, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3)]:
        for kind in ("general", "cpnet", "independent"):
            source = spaces.random_profile(rng, n, p, kind)
            other = spaces.random_profile(rng, n, p, kind)
            tiebreaks = _carry_over_tiebreaks(rng, source)
            for warm in (True, False):
                src = Instance(source.types, source.preferences)
                if warm:
                    for name in STRUCTURE:
                        getattr(src, name)
                    for tb in tiebreaks:
                        resolve_sorts(src, tb)
                # ex-post efficiency on the small sizes only: (4,2) takes
                # seconds, and (2,3) is past its p <= 2 guard
                decidable = p <= 2 and n**p < 16
                if warm and decidable:
                    check_ex_post_efficiency(src, mps(src)[0])
                before = {name: src.__dict__.get(name) for name in ("orders", *STRUCTURE)}
                j = rng.randrange(n)
                derived = src.with_preference(j, other.preferences[j])
                new_prefs = list(source.preferences)
                new_prefs[j] = other.preferences[j]
                fresh = Instance(source.types, tuple(new_prefs))
                assert derived == fresh
                assert derived.orders == fresh.orders
                for name in STRUCTURE:
                    assert getattr(derived, name) == getattr(fresh, name), name
                # the last tie-break is one the source has never sorted under
                for tb in (*tiebreaks, rng.sample(range(n**p), n**p)):
                    assert resolve_sorts(derived, tb) == resolve_sorts(fresh, tb)
                # the source's caches are neither replaced nor extended
                assert {name: src.__dict__.get(name) for name in ("orders", *STRUCTURE)} == before
                if decidable:
                    P = mps(fresh)[0]
                    assert check_ex_post_efficiency(derived, P) == check_ex_post_efficiency(fresh, P)


def test_with_preference_shares_the_other_agents_orders():
    # the copy is built from scratch, yet a CP-net's order comes from the
    # induce_order cache, so the other agents keep their order objects and
    # the sorts made on them
    rng = random.Random(53)
    for kind in ("cpnet", "independent", "general"):
        src = spaces.random_profile(rng, 3, 2, kind)
        other = spaces.random_profile(rng, 3, 2, kind)
        for j in range(src.n):
            derived = src.with_preference(j, other.preferences[j])
            assert derived.orders[j] == prefs.as_order(other.preferences[j])
            for k in range(src.n):
                if k != j:
                    assert derived.orders[k] is src.orders[k]


def test_instances_over_equal_types_share_one_set_of_tables():
    rng = random.Random(61)
    for kind in ("general", "cpnet"):
        a = spaces.random_profile(rng, 3, 2, kind)
        b = spaces.random_profile(rng, 3, 2, kind)
        # equal type lists, built apart
        types = tuple(TypeDef(t.name, tuple(t.items)) for t in a.types)
        assert types == a.types and types[0] is not a.types[0]
        c = Instance(types, b.preferences)
        for name in STRUCTURE:
            assert getattr(c, name) is getattr(a, name), name
        assert type_tables(types, 3) is type_tables(a.types, 3)


def _refusals():
    collision = (TypeDef("F", ("a", "ab")), TypeDef("B", ("bc", "c")))  # "a"+"bc" == "ab"+"c"
    three = (TypeDef("F", ("1F", "2F", "3F")),)
    n = 32  # 32**3 bundles make more pairs than BUNDLE_PAIR_LIMIT
    big = tuple(TypeDef(f"T{t}", tuple(f"{i}T{t}" for i in range(n))) for t in range(3))
    assert (n**3) ** 2 > BUNDLE_PAIR_LIMIT
    return [
        (collision, 2, DuplicateItemName, "bundle name 'abc' names two bundles"),
        (three, 2, TypeSizeMismatch, "type 'F' has 3 items for 2 agents"),
        (big, n, InstanceTooLargeToDecide, "32768 bundles make"),
    ]


@pytest.mark.parametrize("types, n, error, message", _refusals(), ids=["collision", "item-count", "pair-limit"])
def test_refused_types_are_refused_again_alike(types, n, error, message):
    seen = set()
    for _ in range(3):
        for build in (lambda: Instance(types, (prefs.PartialOrder.from_pairs(1, ()),) * n), lambda: type_tables(types, n)):
            with pytest.raises(error, match=message) as info:
                build()
            seen.add((type(info.value), str(info.value)))
    assert len(seen) == 1


def test_every_types_value_is_accepted(mixed_pair):
    # a list of types, and items given as a list, read the tables of the
    # equal tuple of types
    ref = Instance(mixed_pair.types, mixed_pair.preferences)
    listed = [TypeDef(t.name, list(t.items)) for t in mixed_pair.types]
    for types in (list(mixed_pair.types), listed, tuple(listed)):
        inst = Instance(types, mixed_pair.preferences)
        for name in STRUCTURE:
            assert getattr(inst, name) is getattr(ref, name), name
            assert getattr(inst, name) == getattr(mixed_pair, name), name
        swapped = inst.with_preference(0, mixed_pair.preferences[1])
        assert swapped.types is types and swapped.bundle_items is ref.bundle_items
        assert mps(inst)[0] == mps(mixed_pair)[0]


def test_sorts_are_made_once_per_order_and_tiebreak(monkeypatch):
    calls = []
    real = prefs.topological_sort

    def counting(order, tiebreak):
        calls.append(tiebreak)
        return real(order, tiebreak)

    monkeypatch.setattr(prefs, "topological_sort", counting)
    cp = spaces.random_profile(random.Random(41), 3, 2, "cpnet")
    # fresh order objects, so no sort made elsewhere in the process counts
    inst = Instance(cp.types, tuple(prefs.PartialOrder(o.m, o.above) for o in cp.orders))
    for tb in spaces.sweep_tiebreaks(inst.m) * 2:
        resolve_sorts(inst, tb)
    assert len(calls) == 2 * inst.n
    # agent 1 takes agent 0's order, which is already sorted
    derived = inst.with_preference(1, inst.preferences[0])
    for tb in spaces.sweep_tiebreaks(inst.m) * 2:
        resolve_sorts(derived, tb)
    assert len(calls) == 2 * inst.n
    # the CP-net misreports are the same orders for every (3,2) profile,
    # so a second check sorts at most its own agents' orders
    misreports = spaces.CpNetMisreports("all")
    check_strategyproofness("mrp", cp, misreports, tiebreaks=[None])
    other = spaces.random_profile(random.Random(43), 3, 2, "cpnet")
    before = len(calls)
    check_strategyproofness("mrp", other, misreports, tiebreaks=[None])
    assert len(calls) - before <= other.n


def test_order_sorts_are_kept_per_tiebreak():
    rng = random.Random(47)
    inst = spaces.random_profile(rng, 3, 2, "general")
    canonical = tuple(range(inst.m))
    for source in (prefs.PartialOrder.from_pairs(inst.m, ()), *inst.orders):
        order = prefs.PartialOrder(source.m, source.above)
        for tb in (canonical, canonical[::-1], tuple(rng.sample(canonical, inst.m)), canonical[::-1]):
            assert order.sort(tb) == prefs.topological_sort(order, tb)


def test_with_preference_rejects_bad_agent(mixed_pair):
    for agent in (-1, mixed_pair.n):
        with pytest.raises(DimensionMismatch):
            mixed_pair.with_preference(agent, mixed_pair.preferences[0])


def test_instance_requires_matching_preference_universe(mixed_pair):
    from mtra.preferences import PartialOrder

    with pytest.raises(ParseError):
        Instance(mixed_pair.types, (PartialOrder.from_pairs(3, ()), PartialOrder.from_pairs(3, ())))
