"""Instances, bundles, and fractional/discrete assignments.

An instance is square: ``n`` agents, ``p`` item types with exactly ``n``
items each, one unit of supply per item.  Every agent receives one item
of each type, so the allocation objects live over the ``n**p`` bundles
enumerated by :attr:`Instance.bundle_items` (:func:`type_tables`).

All shares are exact: integer numerators over one common denominator
(:class:`FractionalAssignment`); no routine in this package ever rounds.
Documents are read and written by :mod:`mtra.io`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from . import preferences as prefs
from .errors import (
    DimensionMismatch,
    DuplicateItemName,
    InstanceTooLargeToDecide,
    MissingPreference,
    ParseError,
    TypeSizeMismatch,
)

Preference = Union[prefs.PartialOrder, prefs.CPNet]

ZERO = Fraction(0)

# Bundle pairs (m**2) an instance may have.  Each preference relation and
# ``Instance.conflicts`` hold m rows of m bits: 125 MB apiece at the budget.
BUNDLE_PAIR_LIMIT = 10**9


@dataclass(frozen=True)
class TypeDef:
    """One item type: a name and its ordered item names."""

    name: str
    items: tuple[str, ...]


def check_types(types: Sequence[TypeDef], n: int) -> None:
    """The checks on an instance's types for ``n`` agents, made before
    anything is built per bundle: names unique, ``n`` items per type, and
    the bundle pairs within :data:`BUNDLE_PAIR_LIMIT`."""
    if not types:
        raise ParseError("an instance needs at least one type")
    names: set[str] = set()
    for t in types:
        if t.name in names:
            raise DuplicateItemName(f"type name {t.name!r} reused")
        names.add(t.name)
    item_names: set[str] = set()
    for t in types:
        if len(t.items) != n:
            raise TypeSizeMismatch(f"type {t.name!r} has {len(t.items)} items for {n} agents")
        for it in t.items:
            if it in item_names:
                raise DuplicateItemName(f"item name {it!r} reused")
            item_names.add(it)
    m = math.prod(len(t.items) for t in types)
    if m**2 > BUNDLE_PAIR_LIMIT:
        raise InstanceTooLargeToDecide(f"{m} bundles make {m**2} bundle pairs, past the {BUNDLE_PAIR_LIMIT} budget")


def type_tables(types: Sequence[TypeDef], n: int) -> Mapping[str, object]:
    """The tables an instance over ``types`` for ``n`` agents reads off
    its types, made once per type list and shared, read-only, by the
    instances over equal ones.  On every call the types pass
    :func:`check_types`, and no two bundles may share a name.

    ``sizes`` (items per type) and ``m`` (bundles); ``item_names`` per
    flat item id, type-major; ``bundle_items``, each bundle's flat item
    ids, the bundles in canonical order (lexicographic by type, then by
    item declaration), the global tie-break reference; ``bundle_names``
    and ``bundle_by_name``, each bundle's item names run together, and
    back; ``item_bundles``, per item the bitmask of its bundles.
    """
    return _type_tables(tuple((t.name, tuple(t.items)) for t in types), n)


# An instance, its ``with_preference`` copies and the instances a checker
# or a workload builds over one shape all read one entry, and a process
# works over a handful of type lists at a time; an entry holds O(m) tuples
# and names (about 2 MB at m = 10 000) that outlive the instances reading
# them, so only a few are kept.
@lru_cache(maxsize=8)
def _type_tables(key: tuple[tuple[str, tuple[str, ...]], ...], n: int) -> Mapping[str, object]:
    """:func:`type_tables` of the types ``key`` spells as (name, items) pairs."""
    types = [TypeDef(name, items) for name, items in key]
    check_types(types, n)
    sizes = tuple(len(t.items) for t in types)
    starts = itertools.accumulate(sizes[:-1], initial=0)
    bundle_items = tuple(itertools.product(*(range(o, o + s) for o, s in zip(starts, sizes))))
    item_bundles = [0] * sum(sizes)
    for x, items in enumerate(bundle_items):
        for o in items:
            item_bundles[o] |= 1 << x
    bundle_names = tuple(map("".join, itertools.product(*(t.items for t in types))))
    bundle_by_name = {name: x for x, name in enumerate(bundle_names)}
    if len(bundle_by_name) != len(bundle_names):
        name = next(b for x, b in enumerate(bundle_names) if bundle_by_name[b] != x)
        raise DuplicateItemName(f"bundle name {name!r} names two bundles")
    return MappingProxyType({
        "sizes": sizes,
        "m": len(bundle_items),
        "item_names": tuple(it for t in types for it in t.items),
        "bundle_names": bundle_names,
        "bundle_by_name": bundle_by_name,
        "bundle_items": bundle_items,
        "item_bundles": tuple(item_bundles),
    })


@dataclass(frozen=True)
class Instance:
    """A validated allocation instance.

    ``preferences[j]`` is either a :class:`~mtra.preferences.PartialOrder`
    over the bundle universe or an acyclic :class:`~mtra.preferences.CPNet`
    over the type structure.  A ``partial`` one, closed from its edges,
    keeps its canonical sort as a CP-net's order does.

    The constructor reads the tables over the types off
    :func:`type_tables`, as plain attributes shared by the instances
    over equal types, and checks each preference against them;
    :meth:`with_preference` copies an instance with its tables.
    """

    types: tuple[TypeDef, ...]
    preferences: tuple[Preference, ...]

    def __post_init__(self) -> None:
        if not self.preferences:
            raise MissingPreference("an instance needs at least one agent")
        vars(self).update(type_tables(self.types, self.n))
        for j, pref in enumerate(self.preferences):
            self._check_preference(j, pref)

    def _check_preference(self, j: int, pref: Preference) -> None:
        if not 0 <= j < self.n:
            raise DimensionMismatch(f"agent {j} is not one of the {self.n} agents")
        if isinstance(pref, prefs.PartialOrder):
            if pref.m != self.m:
                raise ParseError(
                    f"agent {j} order ranges over {pref.m} bundles, expected {self.m}"
                )
        elif isinstance(pref, prefs.CPNet):
            if pref.sizes != self.sizes:
                raise ParseError(f"agent {j} CP-net does not match the type sizes")
        else:
            raise ParseError(f"agent {j} preference has unsupported type")

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.preferences)

    @property
    def p(self) -> int:
        return len(self.types)

    @cached_property
    def conflicts(self) -> tuple[int, ...]:
        """Per bundle, the bitmask of the bundles that share an item with
        it, itself included: what picking it takes off the table."""
        out = []
        for items in self.bundle_items:
            mask = 0
            for o in items:
                mask |= self.item_bundles[o]
            out.append(mask)
        return tuple(out)

    @cached_property
    def orders(self) -> tuple[prefs.PartialOrder, ...]:
        """Per-agent partial order (a CP-net's is the one it keeps)."""
        return tuple(prefs.as_order(p) for p in self.preferences)

    @property
    def _discrete_assignments(self) -> tuple["DiscreteAssignment", ...]:
        """:func:`all_discrete_assignments`, built once per shape (n, p)
        and shared by every instance of that shape."""
        return _discrete_table(self.n, self.p)[0]

    @property
    def _assignment_masks(self) -> tuple[tuple[int, ...], ...]:
        """Per agent j and bundle x, the bitmask over
        :attr:`_discrete_assignments` of those that give j bundle x."""
        return _discrete_table(self.n, self.p)[1]

    def cpnet(self, agent: int) -> prefs.CPNet | None:
        p = self.preferences[agent]
        return p if isinstance(p, prefs.CPNet) else None

    @property
    def is_cp_profile(self) -> bool:
        return all(isinstance(p, prefs.CPNet) for p in self.preferences)

    def with_preference(self, agent: int, preference: Preference) -> "Instance":
        """Copy of the instance with one agent's preference replaced, built
        and checked like any instance.

        The other agents keep their preference objects, so their orders,
        and the sorts made on them, are shared with this instance: a
        partial order is its own order, and a CP-net keeps its own
        (:attr:`~mtra.preferences.CPNet.order`).  The copy takes this
        instance's tables over the types and :attr:`conflicts` as they
        are, and checks the one preference it replaces.
        """
        self._check_preference(agent, preference)  # the copy's tables are this instance's
        new_prefs = list(self.preferences)
        new_prefs[agent] = preference
        copy = object.__new__(Instance)
        vars(copy).update(vars(self), preferences=tuple(new_prefs))
        vars(copy).pop("orders", None)  # the one attribute made from the preferences
        return copy

    def tiebreaks(self, tiebreak: object) -> tuple[tuple[int, ...], ...]:
        """Per agent, the ranking of the bundles that ``tiebreak`` gives
        it: the canonical order for None, else one sequence of bundle
        indices shared by every agent, or one such sequence per agent.
        ``DimensionMismatch`` unless there is one ranking per agent and
        each ranks every bundle exactly once."""
        if tiebreak is None:
            return (tuple(range(self.m)),) * self.n
        identity = list(range(self.m))

        def ranked(order: object) -> tuple[int, ...]:
            try:
                if sorted(out := tuple(order)) == identity:  # type: ignore[arg-type]
                    return out
            except TypeError:  # not a sequence of bundle indices
                pass
            raise DimensionMismatch("tiebreak must rank every bundle exactly once")

        if isinstance(tiebreak, Sequence) and (not tiebreak or isinstance(tiebreak[0], int)):
            return (ranked(tiebreak),) * self.n
        if not isinstance(tiebreak, Sequence) or len(tiebreak) != self.n:
            raise DimensionMismatch("tiebreak must list one bundle order per agent")
        return tuple(map(ranked, tiebreak))


# -- assignments ---------------------------------------------------------


# Python's int-string limit in digits.  A share with a longer numerator
# or denominator could not be written out exactly, and a larger decimal
# exponent spells a number no literal can: 10**e for a huge e takes
# minutes.
MAX_DIGITS = 4300
DIGIT_BOUND = 10**MAX_DIGITS


def parse_fraction(text: object) -> Fraction:
    """The exact rational that ``str(text)`` spells ("num/den", an integer
    or a decimal), with numerator and denominator of at most
    ``MAX_DIGITS`` digits; :class:`~mtra.errors.ParseError` otherwise."""
    s = str(text)
    _, e, exponent = s.lower().partition("e")
    try:
        if e and abs(int(exponent)) > MAX_DIGITS:
            raise ValueError(f"exponent past {MAX_DIGITS}")
        v = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc
    if abs(v.numerator) >= DIGIT_BOUND or v.denominator >= DIGIT_BOUND:
        raise ParseError(f"a rational has more than {MAX_DIGITS} digits in its numerator or denominator")
    return v


def _share_pair(value: object) -> tuple[int, int]:
    """A Fraction or an int by its attributes, a string by
    :func:`parse_fraction`, as a (numerator, denominator) pair in lowest
    terms."""
    if isinstance(value, str):
        value = parse_fraction(value)
    elif not isinstance(value, (Fraction, int)):
        raise ParseError(f"share {value!r} is not an exact rational")
    return value.numerator, value.denominator


@dataclass(frozen=True)
class FractionalAssignment:
    """An agents x bundles matrix of exact shares: agent j's share of
    bundle x is ``nums[j][x] / den``, kept in lowest terms, so equal
    matrices are equal values.  Other shares go through :meth:`from_rows`.
    Every row has the same width."""

    nums: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self) -> None:
        width = len(self.nums[0]) if self.nums else 0
        g = self.den
        for row in self.nums:
            if len(row) != width:
                raise DimensionMismatch("the rows of an assignment matrix differ in width")
            # math.gcd takes integers only, so a Fraction entry raises here
            g = math.gcd(g, *row)
        if self.den < 1:
            raise ValueError(f"denominator {self.den} is not positive")
        if g > 1:
            object.__setattr__(self, "nums", tuple(tuple(v // g for v in row) for row in self.nums))
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "FractionalAssignment":
        """Fractions, ints or strings (:func:`parse_fraction`), scaled by
        their lcm denominator as in :meth:`from_pairs`."""
        return cls.from_pairs([[_share_pair(v) for v in row] for row in rows])

    @classmethod
    def from_pairs(cls, rows: Sequence[Sequence[tuple[int, int]]]) -> "FractionalAssignment":
        """(numerator, denominator) pairs, scaled by their lcm denominator,
        built one denominator at a time and refused past ``MAX_DIGITS`` digits."""
        den = 1
        for b in {b for row in rows for _, b in row}:
            den = math.lcm(den, b)
            if den >= DIGIT_BOUND:
                raise ParseError(f"the shares' common denominator has more than {MAX_DIGITS} digits")
        return cls(tuple(tuple(a * (den // b) for a, b in row) for row in rows), den)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The shares as Fractions, one object per distinct numerator."""
        share = {v: Fraction(v, self.den) for v in {v for row in self.nums for v in row}}
        return tuple(tuple(share[v] for v in row) for row in self.nums)

    @property
    def n(self) -> int:
        return len(self.nums)

    @property
    def m(self) -> int:
        return len(self.nums[0]) if self.nums else 0

    def row(self, agent: int) -> tuple[Fraction, ...]:
        return self.rows[agent]

    def entry(self, agent: int, bundle: int) -> Fraction:
        return self.rows[agent][bundle]


@dataclass(frozen=True)
class AssignmentViolation:
    """First structural constraint an assignment matrix breaks."""

    kind: str  # "entry-range" | "row-sum" | "item-marginal"
    subject: str
    actual: Fraction


def require_shape(P: FractionalAssignment, instance: Instance) -> None:
    """Raise :class:`~mtra.errors.DimensionMismatch` unless P is n x m."""
    if P.n != instance.n or P.m != instance.m:
        raise DimensionMismatch(
            f"matrix is {P.n}x{P.m}, instance needs {instance.n}x{instance.m}"
        )


def validate_assignment(
    P: FractionalAssignment, instance: Instance
) -> AssignmentViolation | None:
    """None iff row sums and per-item marginals are all exactly one."""
    require_shape(P, instance)
    for j, row in enumerate(P.nums):
        if min(row) < 0 or max(row) > P.den:
            x, v = next((x, v) for x, v in enumerate(row) if v < 0 or v > P.den)
            return AssignmentViolation(
                "entry-range", f"agent {j} bundle {instance.bundle_names[x]}", Fraction(v, P.den)
            )
    for j, row in enumerate(P.nums):
        if sum(row) != P.den:
            return AssignmentViolation("row-sum", f"agent {j}", Fraction(sum(row), P.den))
    column = [sum(c) for c in zip(*P.nums)]
    for item, holders in zip(instance.item_names, instance.item_bundles):
        total = sum(column[x] for x in prefs._bits(holders))
        if total != P.den:
            return AssignmentViolation("item-marginal", item, Fraction(total, P.den))
    return None


@dataclass(frozen=True)
class DiscreteAssignment:
    """One bundle per agent, no item used twice."""

    bundles: tuple[int, ...]

    def validate(self, instance: Instance) -> None:
        if len(self.bundles) != instance.n:
            raise DimensionMismatch("one bundle per agent required")
        used: set[int] = set()
        for x in self.bundles:
            if not 0 <= x < instance.m:
                raise DimensionMismatch(f"bundle {x} is not one of the {instance.m} bundles")
            for o in instance.bundle_items[x]:
                if o in used:
                    raise DimensionMismatch(
                        f"item {instance.item_names[o]} assigned twice"
                    )
                used.add(o)


def from_discrete(instance: Instance, assignment: DiscreteAssignment) -> FractionalAssignment:
    """0/1 matrix embedding of a discrete assignment."""
    assignment.validate(instance)
    return outcome_matrix(instance, [(assignment.bundles, 1)], 1)


def outcome_matrix(instance: Instance, outcomes: Iterable, den: int) -> FractionalAssignment:
    """Each agent's bundle in each (bundles, integer weight) outcome, weighted by weight / ``den``."""
    nums = [[0] * instance.m for _ in range(instance.n)]
    for bundles, weight in outcomes:
        for j, x in enumerate(bundles):
            nums[j][x] += weight
    return FractionalAssignment(tuple(map(tuple, nums)), den)


@dataclass(frozen=True)
class Lottery:
    """Probability-weighted discrete assignments (a decomposition witness)."""

    entries: tuple[tuple[Fraction, DiscreteAssignment], ...]

    def __post_init__(self) -> None:
        if any(prob <= 0 for prob, _ in self.entries):
            raise DimensionMismatch("lottery probabilities must be positive")
        if sum((prob for prob, _ in self.entries), ZERO) != 1:
            raise DimensionMismatch("lottery probabilities must sum to one")

    def expectation(self, instance: Instance) -> FractionalAssignment:
        """The weighted sum of the entries, each a discrete assignment of ``instance``."""
        for _, disc in self.entries:
            disc.validate(instance)
        den = math.lcm(*(prob.denominator for prob, _ in self.entries))
        weights = ((disc.bundles, prob.numerator * (den // prob.denominator)) for prob, disc in self.entries)
        return outcome_matrix(instance, weights, den)


def all_discrete_assignments(instance: Instance) -> list[DiscreteAssignment]:
    """Every discrete assignment: one permutation of items per type."""
    return list(instance._discrete_assignments)


# (n, p) shapes whose (n!)^p assignments the axioms enumerate: n <= 4, p <= 2
@lru_cache(maxsize=8)
def _discrete_table(n: int, p: int) -> tuple[tuple[DiscreteAssignment, ...], tuple[tuple[int, ...], ...]]:
    """The discrete assignments of n agents over p types of n items, one
    permutation per type in :func:`itertools.product` order, and per
    agent and bundle the bitmask of the assignments giving that agent
    that bundle."""
    sizes = (n,) * p
    assignments = []
    masks = [[0] * n**p for _ in range(n)]
    for k, combo in enumerate(itertools.product(itertools.permutations(range(n)), repeat=p)):
        bundles = tuple(prefs.bundle_index([perm[j] for perm in combo], sizes) for j in range(n))
        assignments.append(DiscreteAssignment(bundles))
        for j, x in enumerate(bundles):
            masks[j][x] |= 1 << k
    return tuple(assignments), tuple(map(tuple, masks))
