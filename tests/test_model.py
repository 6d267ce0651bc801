import random
from fractions import Fraction

import pytest

from mtra import fixtures, spaces
from mtra.errors import (
    DimensionMismatch,
    DuplicateItemName,
    MissingPreference,
    TypeSizeMismatch,
)
from mtra.model import (
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    Lottery,
    all_discrete_assignments,
    build_instance,
    enumerate_bundles,
    from_discrete,
    validate_assignment,
)


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
    assert enumerate_bundles(mixed_pair) == ((0, 0), (0, 1), (1, 0), (1, 1))
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


def test_from_discrete_rejects_item_reuse(mixed_pair):
    bn = mixed_pair.bundle_by_name
    with pytest.raises(DimensionMismatch):
        from_discrete(mixed_pair, DiscreteAssignment((bn["1F1B"], bn["1F2B"])))


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


def test_instance_requires_matching_preference_universe(mixed_pair):
    from mtra.errors import ParseError
    from mtra.preferences import PartialOrder

    with pytest.raises(ParseError):
        Instance(mixed_pair.types, (PartialOrder.empty(3), PartialOrder.empty(3)))
