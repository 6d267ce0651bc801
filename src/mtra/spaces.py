"""Preference spaces: enumerations, misreport spaces, transform sources,
and random profile generation for property sweeps.

Exhaustive spaces carry explicit size guards; anything bigger must be
probed through a sampled misreport space or an explicit transform list,
and every space exposes a ``describe()`` string so property reports can
record what was actually checked.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from . import preferences as prefs
from .errors import MisreportSpaceTooLarge, MtraError
from .model import FractionalAssignment, Instance, Preference, TypeDef

ENUMERATION_LIMIT = 200_000
LINEAR_ORDER_LIMIT = 4
DELETION_LIMIT = 2

Sort = tuple[int, ...]


def first_of_each_sort(
    instance: Instance, agent: int, tiebreak: Sort, reports: Iterable[Preference]
) -> Iterator[tuple[Sort, Preference]]:
    """Each report shape-checked against ``agent`` of ``instance`` and
    sorted under ``tiebreak``; the first report of each sort, with its
    sort, in report order.  The reports are read one at a time, as the
    caller asks for them."""
    seen: set[Sort] = set()
    for report in reports:
        instance._check_preference(agent, report)
        sort = prefs.as_order(report).sort(tiebreak)
        if sort not in seen:
            seen.add(sort)
            yield sort, report


class Family(tuple):
    """A finite misreport family, a tuple made once per process by a cached
    builder (:func:`all_linear_orders`, :func:`enumerate_cpnets`,
    :func:`all_cpnets`, the CPT search's nets), which keeps its judging
    tables.

    The table for one tie-break is :func:`first_of_each_sort` of the
    whole family, made by :meth:`table` once per (type sizes, tie-break),
    since a report's shape check reads the instance's sizes: every report
    is shape-checked and sorted then, and never again.  The family keeps
    its tables itself, so no report is hashed to find one.
    """

    def __init__(self, reports: Iterable[Preference]) -> None:
        self._tables: dict[tuple[tuple[int, ...], Sort], tuple[tuple[Sort, ...], tuple[Preference, ...]]] = {}

    def table(
        self, instance: Instance, agent: int, tiebreak: Sort
    ) -> tuple[tuple[Sort, ...], tuple[Preference, ...]]:
        """The (sort, first report of that sort) pairs of the family under
        ``tiebreak``, in report order, kept as a tuple of the sorts and one
        of the reports, which take less memory than a tuple of pairs."""
        key = (instance.sizes, tiebreak)
        table = self._tables.get(key)
        if table is None:
            pairs = list(first_of_each_sort(instance, agent, tiebreak, self))
            table = self._tables[key] = (tuple(s for s, _ in pairs), tuple(r for _, r in pairs))
        return table


@lru_cache(maxsize=64)
def all_linear_orders(m: int) -> Family:
    return Family(prefs.PartialOrder.from_chain(perm) for perm in itertools.permutations(range(m)))


@lru_cache(maxsize=64)
def acyclic_dependency_graphs(p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All acyclic parent assignments over p types (p <= 3)."""
    if p > 3:
        raise MisreportSpaceTooLarge(f"cannot enumerate dependency graphs on {p} types")
    edges = [(a, b) for a in range(p) for b in range(p) if a != b]
    out = []
    for mask in range(1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        parents = tuple(
            tuple(sorted(a for a, b in chosen if b == t)) for t in range(p)
        )
        if prefs.dependency_order(parents) is not None:
            out.append(parents)
    return tuple(out)


def count_cpnets(sizes: Sequence[int], parents: Sequence[Sequence[int]]) -> int:
    """How many CP-nets the graph has: one order of each type's items per
    assignment to its parents."""
    return math.prod(
        math.factorial(size) ** math.prod(sizes[q] for q in parents[i]) for i, size in enumerate(sizes)
    )


@lru_cache(maxsize=32)
def enumerate_cpnets(sizes: tuple[int, ...], parents: tuple[tuple[int, ...], ...]) -> Family:
    """All CP-nets over a fixed dependency graph, built once per sizes and
    graph.  Each type's table runs over the item orders of its rows,
    the last row fastest, and the nets over the tables, the last type
    fastest.  More than ``ENUMERATION_LIMIT`` nets raise
    :class:`~mtra.errors.MisreportSpaceTooLarge` before any is built."""
    count = count_cpnets(sizes, parents)
    if count > ENUMERATION_LIMIT:
        raise MisreportSpaceTooLarge(f"{count} CP-nets over graph {parents}")
    per_type: list[list[tuple]] = []
    for i, size in enumerate(sizes):
        keys = list(itertools.product(*(range(sizes[q]) for q in parents[i])))
        orders = list(itertools.permutations(range(size)))
        rows = [
            tuple(zip(keys, combo))
            for combo in itertools.product(orders, repeat=len(keys))
        ]
        per_type.append(rows)
    return Family(prefs.CPNet(sizes, parents, combo) for combo in itertools.product(*per_type))


@lru_cache(maxsize=32)
def all_cpnets(sizes: tuple[int, ...]) -> Family:
    """All CP-nets over all acyclic dependency graphs."""
    graphs = acyclic_dependency_graphs(len(sizes))
    return Family(net for parents in graphs for net in enumerate_cpnets(sizes, parents))


@lru_cache(maxsize=32)
def cpnet_order_representatives(
    sizes: tuple[int, ...],
) -> tuple[tuple[prefs.PartialOrder, prefs.CPNet], ...]:
    """One representative CP-net per distinct induced order."""
    by_order: dict[prefs.PartialOrder, prefs.CPNet] = {}
    for net in all_cpnets(sizes):
        order = prefs.induce_order(net)
        by_order.setdefault(order, net)
    return tuple(by_order.items())


def _pack(order: prefs.PartialOrder) -> int:
    """The order's rows in one int: ``above[y]`` in lane y, bits ``m*y``
    to ``m*y + m - 1``."""
    m, packed = order.m, 0
    for row in reversed(order.above):
        packed = (packed << m) | row
    return packed


@lru_cache(maxsize=4096)
def _lanes(u: int, m: int) -> int:
    """The mask ``u`` copied into lane y for each bundle y in u, and
    nothing in the other lanes, read once per mask."""
    lanes = 0
    for y in prefs._bits(u):
        lanes |= u << (m * y)
    return lanes


def _relation_key(packed: int, u: int, m: int) -> int:
    """A :func:`_pack`-ed relation restricted to the bundle mask ``u``:
    u in the low ``m`` bits, then ``above[y] & u`` in lane y for each y
    in u.  Two orders share a key for u exactly when they agree on every
    pair inside u, as :func:`~mtra.preferences.is_uit` asks."""
    return ((packed & _lanes(u, m)) << m) | u


@lru_cache(maxsize=32)
def cpnet_transform_index(
    sizes: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], dict[int, tuple[int, ...]]], ...]:
    """Per pivot x, the representatives of
    :func:`cpnet_order_representatives` by upper contour set and relation.

    Entry x is ``(masks, by_key)``: the distinct upper contour sets u the
    representatives have at x, and a map from
    ``_relation_key(_pack(order), u, m)`` to the indices (ascending) of
    the representatives with upper contour set u at x and that relation
    on u.  Each representative is packed once, not once per pivot.
    """
    reps = cpnet_order_representatives(sizes)
    ids = list(range(len(reps)))  # one int object per index, shared by all pivots
    packed = [_pack(order) for order, _ in reps]
    m = reps[0][0].m
    index = []
    for pivot in range(m):
        masks: dict[int, None] = {}
        by_key: dict[int, list[int]] = {}
        for i, (order, _), bits in zip(ids, reps, packed):
            u = order.ucs_mask(pivot)
            masks[u] = None
            by_key.setdefault(_relation_key(bits, u, m), []).append(i)
        index.append((tuple(masks), {k: tuple(v) for k, v in by_key.items()}))
    return tuple(index)


# -- misreport spaces ------------------------------------------------------


class MisreportSpace:
    """Iterable of alternative reports for one agent."""

    def for_agent(self, instance: Instance, agent: int) -> Iterable[Preference]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class LinearOrderMisreports(MisreportSpace):
    """Every linear order over the bundles, for at most ``LINEAR_ORDER_LIMIT``
    bundles."""

    def for_agent(self, instance: Instance, agent: int) -> Iterable[Preference]:
        if instance.m > LINEAR_ORDER_LIMIT:
            raise MisreportSpaceTooLarge(
                f"{instance.m}! linear orders exceed the exhaustive guard"
            )
        return all_linear_orders(instance.m)

    def describe(self) -> str:
        return "all linear orders over bundles"


@dataclass(frozen=True)
class CpNetMisreports(MisreportSpace):
    """All CP-nets over the agent's own dependency graph (``graph`` "own")
    or over every acyclic graph ("all"); any other ``graph`` is refused
    with ``ValueError``.  The nets are :func:`enumerate_cpnets`', built
    once per type sizes and graph.
    """

    graph: str = "own"

    def __post_init__(self) -> None:
        if self.graph not in ("own", "all"):
            raise ValueError(f"CP-net misreport graph must be 'own' or 'all', got {self.graph!r}")

    def for_agent(self, instance: Instance, agent: int) -> Iterable[Preference]:
        if self.graph == "all":
            return all_cpnets(instance.sizes)
        net = instance.cpnet(agent)
        if net is None:
            raise MtraError(f"agent {agent} has no CP-net to take a dependency graph from")
        return enumerate_cpnets(instance.sizes, net.parents)

    def describe(self) -> str:
        return f"CP-nets over dependency graph {self.graph!r}"


@dataclass(frozen=True)
class IndependentCpNetMisreports(MisreportSpace):
    def for_agent(self, instance: Instance, agent: int) -> Iterable[Preference]:
        return enumerate_cpnets(instance.sizes, ((),) * instance.p)

    def describe(self) -> str:
        return "all independent CP-nets"


@dataclass(frozen=True)
class SampledLinearOrderMisreports(MisreportSpace):
    """Seed-deterministic sample of linear orders over the bundles.

    The orders are drawn one at a time as the checker asks for them, so a
    large ``samples`` costs nothing up front and a check that fails early
    draws no more.  ``samples`` runs from 1 to ``ENUMERATION_LIMIT``."""

    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise MtraError(f"a sampled misreport space needs at least one sample, got {self.samples}")
        if self.samples > ENUMERATION_LIMIT:
            raise MisreportSpaceTooLarge(f"{self.samples} sampled misreports exceed the {ENUMERATION_LIMIT} guard")

    def for_agent(self, instance: Instance, agent: int) -> Iterator[Preference]:
        rng = random.Random(f"{self.seed}:{instance.m}:{agent}")
        for _ in range(self.samples):
            perm = list(range(instance.m))
            rng.shuffle(perm)
            yield prefs.PartialOrder.from_chain(perm)

    def describe(self) -> str:
        return f"{self.samples} sampled linear orders (seed {self.seed})"


# -- upper-invariance transform sources ------------------------------------


class TransformSource:
    """Yields candidate (agent, preference, pivot) transformations.

    Candidates are never trusted.  Whether a source yields only valid
    ones (``CpNetTransforms``) or may yield any (``ExplicitTransforms``),
    the invariance checker validates each against the formal definition
    (:func:`preferences.is_uit`) before using it.
    """

    def candidates(
        self, instance: Instance, assignment: FractionalAssignment
    ) -> Iterator[tuple[int, Preference, int]]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitTransforms(TransformSource):
    items: tuple[tuple[int, Preference, int], ...]

    def candidates(self, instance, assignment):
        yield from self.items

    def describe(self) -> str:
        return f"explicit list of {len(self.items)} transformations"


@dataclass(frozen=True)
class DeletionTransforms(TransformSource):
    """Delete up to ``DELETION_LIMIT`` zero-share bundles from the relation.

    Dropping every pair that involves a removed bundle restricts the
    relation, which stays transitive, so the construction never invents
    relations the original order did not have.
    """

    def candidates(self, instance, assignment):
        for j in range(instance.n):
            order = instance.orders[j]
            row = assignment.nums[j]
            zero = [y for y in range(instance.m) if row[y] == 0]
            for size in range(1, DELETION_LIMIT + 1):
                for z in itertools.combinations(zero, size):
                    new = order.without_bundles(z)
                    if new == order:
                        continue
                    for pivot in range(instance.m):
                        if pivot in z:
                            continue
                        yield j, new, pivot

    def describe(self) -> str:
        return f"deletion transforms, at most {DELETION_LIMIT} bundles removed"


@dataclass(frozen=True)
class CpNetTransforms(TransformSource):
    """The valid upper invariant transformations into CP-net reports over
    every acyclic dependency graph, one representative per distinct
    induced order.

    For agent j at pivot x, a representative with upper contour set u
    at x is valid exactly when u is a subset of the truth's upper
    contour set ``ucs_old``, every bundle of ``ucs_old`` outside u has
    zero share in ``assignment.nums[j]``, and the two relations agree on
    u.  :func:`cpnet_transform_index` turns that into one dict lookup per
    admissible u, keyed by :func:`_relation_key` on the truth, which is
    :func:`_pack`-ed once per agent.  The hits come sorted by
    (representative index, pivot) and skip the truth's own order, the
    order a scan over every pair would meet them in; the checker still
    re-validates each one.
    """

    def candidates(self, instance, assignment):
        reps = cpnet_order_representatives(instance.sizes)
        index = cpnet_transform_index(instance.sizes)
        m = instance.m
        for j in range(instance.n):
            truth = instance.orders[j]
            packed = _pack(truth)
            positive = sum(1 << y for y, v in enumerate(assignment.nums[j]) if v)
            hits = []
            for pivot, (masks, by_key) in enumerate(index):
                u_old = truth.ucs_mask(pivot)
                keep = u_old & positive  # no positive-share bundle may go
                for u in masks:
                    if u & ~u_old or keep & ~u:
                        continue
                    key = _relation_key(packed, u, m)
                    hits.extend((i, pivot) for i in by_key.get(key, ()))
            hits.sort()
            for i, pivot in hits:
                order, net = reps[i]
                if order != truth:
                    yield j, net, pivot

    def describe(self) -> str:
        return "CP-net transformations over all acyclic dependency graphs"


# -- random profiles -------------------------------------------------------

_TYPE_LETTERS = "FBCDE"


def square_types(n: int, p: int) -> tuple[TypeDef, ...]:
    """Default naming scheme: items 1F..nF of type F, 1B..nB of type B, .."""
    return tuple(
        TypeDef(_TYPE_LETTERS[t], tuple(f"{i + 1}{_TYPE_LETTERS[t]}" for i in range(n)))
        for t in range(p)
    )


def random_partial_order(rng: random.Random, m: int) -> prefs.PartialOrder:
    """Random subrelation of a random linear order, transitively closed."""
    perm = list(range(m))
    rng.shuffle(perm)
    density = rng.random()
    pairs = []
    for a in range(m):
        for b in range(a + 1, m):
            if rng.random() < density:
                pairs.append((perm[a], perm[b]))
    return prefs.PartialOrder.from_pairs(m, pairs)


def random_cpnet(
    rng: random.Random, sizes: Sequence[int], independent: bool = False
) -> prefs.CPNet:
    p = len(sizes)
    if independent:
        parents: tuple[tuple[int, ...], ...] = tuple(() for _ in range(p))
    else:
        parents = rng.choice(acyclic_dependency_graphs(p))
    tables = []
    for i in range(p):
        keys = itertools.product(*(range(sizes[q]) for q in parents[i]))
        rows = []
        for key in keys:
            order = list(range(sizes[i]))
            rng.shuffle(order)
            rows.append((key, tuple(order)))
        tables.append(tuple(sorted(rows)))
    return prefs.CPNet(tuple(sizes), parents, tuple(tables))


def random_profile(
    rng: random.Random, n: int, p: int, kind: str
) -> Instance:
    """kind: "general" | "cpnet" | "independent"."""
    types = square_types(n, p)
    m = n**p
    preferences: list[Preference] = []
    for _ in range(n):
        if kind == "general":
            preferences.append(random_partial_order(rng, m))
        elif kind == "cpnet":
            preferences.append(random_cpnet(rng, (n,) * p))
        elif kind == "independent":
            preferences.append(random_cpnet(rng, (n,) * p, independent=True))
        else:
            raise ValueError(f"unknown profile kind {kind!r}")
    # occasionally force a duplicated preference so equal-treatment bites
    if n >= 2 and rng.random() < 0.3:
        j = rng.randrange(n - 1)
        preferences[j + 1] = preferences[j]
    return Instance(types, tuple(preferences))


def sweep_tiebreaks(m: int) -> tuple[object, ...]:
    """Default tie-break set: canonical order plus its reverse."""
    return (None, tuple(reversed(range(m))))
