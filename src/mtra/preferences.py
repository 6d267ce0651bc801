"""Strict partial orders, preference graphs, and acyclic CP-nets.

Everything in this module works over an abstract universe of ``m`` bundles
identified by the integers ``0..m-1``; binding bundle indices to named items
is the job of :mod:`mtra.model`.  A bundle over ``p`` item types is encoded
in mixed radix: the bundle ``(x_1, .., x_p)`` (one item index per type) has
index ``((x_1 * n + x_2) * n + ...) + x_p``, so the canonical enumeration
order is lexicographic by (type position, item position).

Relations are stored as bitmask rows: ``above[x]`` has bit ``y`` set iff
``y`` is strictly preferred to ``x``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import (
    CyclicDependency,
    IncompleteCPT,
    InconsistentOrder,
    NothingAvailable,
    SoundnessError,
    UniverseMismatch,
)


def bundle_index(bundle: Sequence[int], sizes: Sequence[int]) -> int:
    """Mixed-radix index of a bundle given per-type item counts."""
    idx = 0
    for coord, size in zip(bundle, sizes):
        idx = idx * size + coord
    return idx


def _closure(above: list[int], m: int) -> list[int] | None:
    """Transitive closure of the relation, or None if it has a cycle.

    One depth-first pass (Purdom): a bundle's closed row is its own row
    OR'd with the closed rows of the bundles above it.  A bundle above
    one on the current path closes a cycle."""
    closed = list(above)
    done = path = 0  # bundles with a final row; bundles on the path
    for root in range(m):
        stack = [root]
        while stack:
            x = stack[-1]
            bit = 1 << x
            if done & bit:
                stack.pop()
            elif path & bit:  # everything above x is done
                stack.pop()
                path ^= bit
                done |= bit
                rest = above[x]
                while rest:
                    y = (rest & -rest).bit_length() - 1
                    closed[x] |= closed[y]
                    rest &= ~closed[y] & (rest - 1)  # inside closed[y] already
            else:
                path |= bit
                if above[x] & path:
                    return None
                stack.extend(_bits(above[x] & ~done))
    return closed


@dataclass(frozen=True)
class PartialOrder:
    """A strict partial order over ``m`` bundles.

    ``above[x]`` is the bitmask of bundles strictly preferred to ``x``.
    Construction checks that the relation is irreflexive and transitively
    closed, without computing a closure.  Anti-symmetry follows: if x and
    y were each above the other, closedness would put x above itself.
    """

    m: int
    above: tuple[int, ...]

    def __post_init__(self) -> None:
        m, above = self.m, self.above
        if len(above) != m:
            raise InconsistentOrder("relation size does not match universe")
        for x in range(m):
            if above[x] >> m:
                raise InconsistentOrder("relation mentions bundles outside universe")
            if above[x] & (1 << x):
                raise InconsistentOrder("relation is not irreflexive")
        # What is above a y whose row fits in x's is skipped.  A skipped z
        # that breaks closedness at x breaks it at y too, and such a chain
        # of ever smaller rows cannot repeat a bundle, so some row meets it.
        for x in range(m):
            row = rest = above[x]
            while rest:
                y = (rest & -rest).bit_length() - 1
                if above[y] & ~row:
                    raise InconsistentOrder("relation is not transitively closed")
                rest &= ~above[y] & (rest - 1)

    @classmethod
    def from_pairs(cls, m: int, pairs: Iterable[tuple[int, int]]) -> "PartialOrder":
        """Build the order generated by ``better > worse`` pairs.

        The pairs are transitively closed; a cyclic pair set is rejected.
        """
        above = [0] * m
        for better, worse in pairs:
            if not (0 <= better < m and 0 <= worse < m):
                raise InconsistentOrder(f"edge ({better},{worse}) outside universe")
            above[worse] |= 1 << better
        closed = _closure(above, m)
        if closed is None:
            raise InconsistentOrder("edge list induces a cycle")
        return cls(m, tuple(closed))

    @classmethod
    def empty(cls, m: int) -> "PartialOrder":
        return cls(m, (0,) * m)

    @classmethod
    def from_chain(cls, chain: Sequence[int]) -> "PartialOrder":
        """Linear order: ``chain[0]`` is the best bundle."""
        m = len(chain)
        above = [0] * m
        mask = 0
        for x in chain:
            above[x] = mask
            mask |= 1 << x
        return cls(m, tuple(above))

    # -- queries ---------------------------------------------------------

    def prefers(self, x: int, y: int) -> bool:
        """True iff x is strictly preferred to y."""
        return bool(self.above[y] & (1 << x))

    def ucs_mask(self, x: int) -> int:
        """Bitmask of the upper contour set of ``x`` (always contains x)."""
        return self.above[x] | (1 << x)

    def upper_contour_set(self, x: int) -> frozenset[int]:
        return frozenset(_bits(self.ucs_mask(x)))

    @cached_property
    def _sorts(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """The topological sorts made so far, keyed by tie-break."""
        return {}

    def sort(self, tiebreak: Sequence[int]) -> tuple[int, ...]:
        """:func:`topological_sort` of this order under ``tiebreak``, made
        at most once per order and tie-break."""
        key = tuple(tiebreak)
        out = self._sorts.get(key)
        if out is None:
            out = self._sorts[key] = topological_sort(self, key)
        return out

    def downset_size(self, y: int) -> int:
        """Number of bundles whose upper contour set contains ``y``."""
        bit = 1 << y
        return sum(1 for x in range(self.m) if self.above[x] & bit) + 1

    def without_bundles(self, removed: Iterable[int]) -> "PartialOrder":
        """Drop every relation involving the given bundles (kept in universe).

        The result is the restriction of the relation to the remaining
        bundles, which is again transitive, so no re-closure can resurrect
        deleted pairs.
        """
        drop = 0
        for z in removed:
            drop |= 1 << z
        keep = ~drop
        above = tuple(
            0 if (1 << x) & drop else self.above[x] & keep for x in range(self.m)
        )
        return PartialOrder(self.m, above)


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def preference_graph(order: PartialOrder) -> tuple[tuple[int, int], ...]:
    """The covering (Hasse) edges of ``order``, sorted: (x, y) with x > y
    and nothing strictly between.  ``PartialOrder.from_pairs(order.m, ..)``
    closes them back into ``order``."""
    above = order.above
    edges = []
    for y in range(order.m):
        # x is above some z above y exactly when x is in above[z]
        between = 0
        for z in _bits(above[y]):
            between |= above[z]
        edges.extend((x, y) for x in _bits(above[y] & ~between))
    return tuple(sorted(edges))


def topological_sort(order: PartialOrder, tiebreak: Sequence[int]) -> tuple[int, ...]:
    """Deterministic linear extension of ``order``.

    Repeatedly emits the tiebreak-least source among the bundles whose
    remaining strictly-better set is empty.  ``tiebreak`` must be a
    permutation of the universe.

    One pass over a mask of tie-break ranks, lowest first: a bundle
    with nothing better left is emitted, one with something better left
    is parked on one of those better bundles (of the lowest- and the
    highest-numbered, the one with more bundles above it, so usually the
    later to go) and comes back to the mask when that bundle is emitted.
    No emitted bundle is looked at again.
    """
    m = order.m
    if sorted(tiebreak) != list(range(m)):
        raise InconsistentOrder("tiebreak is not a permutation of the universe")
    above = order.above
    pending = (1 << m) - 1  # tie-break ranks, neither emitted nor parked
    parked = [0] * m  # per bundle, the ranks waiting for it
    emitted = 0
    result = []
    while pending:
        low = pending & -pending
        pending ^= low
        x = tiebreak[low.bit_length() - 1]
        rest = above[x] & ~emitted
        if rest:
            hi = rest.bit_length() - 1
            lo = (rest & -rest).bit_length() - 1
            parked[hi if above[hi].bit_count() >= above[lo].bit_count() else lo] |= low
        else:
            result.append(x)
            emitted |= 1 << x
            pending |= parked[x]
    return tuple(result)


def ext(linear: Sequence[int], available: int) -> int:
    """First bundle in ``linear`` whose bit is set in ``available``, the
    bitmask of the bundles whose items all still have supply."""
    for x in linear:
        if available >> x & 1:
            return x
    raise NothingAvailable("no bundle in the order is fully available")


def is_uit(
    old: PartialOrder,
    new: PartialOrder,
    pivot: int,
    row: Sequence,
) -> tuple[bool, frozenset[int] | str]:
    """Is ``new`` an upper invariant transformation of ``old`` at ``pivot``?

    ``row`` is the agent's allocation row under the assignment the
    transformation is taken at; only its zero entries matter.  Returns
    ``(True, Z)`` with the removed set, or ``(False, reason)``.

    Only the upper contour set of the pivot is constrained: the removed
    bundles must carry zero share, and the two relations must agree on
    what remains.  The relation outside the new upper contour set is
    deliberately left unchecked.
    """
    if old.m != new.m:
        raise UniverseMismatch("orders range over different universes")
    u_old = old.ucs_mask(pivot)
    u_new = new.ucs_mask(pivot)
    if u_new & ~u_old:
        return False, "upper contour set of the pivot gained bundles"
    z_mask = u_old & ~u_new
    for z in _bits(z_mask):
        if row[z] != 0:
            return False, f"removed bundle {z} has positive share"
    if any((old.above[x] ^ new.above[x]) & u_new for x in _bits(u_new)):
        return False, "relations disagree on the surviving upper contour set"
    return True, frozenset(_bits(z_mask))


# -- CP-nets -------------------------------------------------------------


def dependency_order(parents: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """Nodes ``0..len(parents)-1`` with each one after all of its
    ``parents[i]``, or None if the graph is cyclic or names a node outside
    it.

    Acyclicity is :func:`_closure`'s, over rows that are the parent
    bitmasks; the nodes then come by ancestor count, ties by index.  An
    ancestor of a node has fewer ancestors than the node."""
    p = len(parents)
    rows = [0] * p
    for i, ps in enumerate(parents):
        for q in ps:
            if not 0 <= q < p:
                return None
            rows[i] |= 1 << q
    closed = _closure(rows, p)
    if closed is None:
        return None
    return tuple(sorted(range(p), key=lambda i: closed[i].bit_count()))


@dataclass(frozen=True)
class CPNet:
    """An acyclic CP-net over ``p`` item types.

    ``sizes[i]`` is the number of items of type ``i``; ``parents[i]`` the
    sorted tuple of types type ``i`` depends on; ``tables[i]`` maps each
    assignment to the parents (a tuple of item indices, ordered like
    ``parents[i]``) to a strict order over type ``i``'s items, stored as
    a sorted tuple of (parent assignment, item order) pairs so the whole
    net is hashable.  The net keeps the order it induces as
    :attr:`order`, shared by all equal nets.
    """

    sizes: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    tables: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]

    def __post_init__(self) -> None:
        p = len(self.sizes)
        if len(self.parents) != p or len(self.tables) != p:
            raise IncompleteCPT("per-type parent or table list has wrong length")
        keys = _table_keys(self.sizes, self.parents)
        if keys is None:
            raise CyclicDependency("CP-net dependency graph is cyclic")
        for i, expected in enumerate(keys):
            seen = set()
            for key, row in self.tables[i]:
                if key in seen:
                    raise IncompleteCPT(f"duplicate row for type {i} at {key}")
                seen.add(key)
                if sorted(row) != list(range(self.sizes[i])):
                    raise IncompleteCPT(f"row for type {i} at {key} is not a total order")
            if seen != expected:
                raise IncompleteCPT(f"table for type {i} does not cover the parent product")

    @cached_property
    def order(self) -> PartialOrder:
        """The partial order this net induces (:func:`induce_order`), kept
        on the net.  It comes from a cache keyed by the net's value, so
        equal nets hold one order object, and share its sorts; the net's
        tables are hashed only the first time a net is asked."""
        return induce_order(self)

    @classmethod
    def from_tables(
        cls,
        sizes: Sequence[int],
        parents: Mapping[int, Sequence[int]],
        tables: Mapping[int, Mapping[tuple[int, ...], Sequence[int]]],
    ) -> "CPNet":
        p = len(sizes)
        parent_tuple = tuple(tuple(sorted(parents.get(i, ()))) for i in range(p))
        table_tuple = tuple(
            tuple(sorted((tuple(k), tuple(v)) for k, v in tables.get(i, {}).items()))
            for i in range(p)
        )
        return cls(tuple(sizes), parent_tuple, table_tuple)


@lru_cache(maxsize=256)
def _table_keys(
    sizes: tuple[int, ...], parents: tuple[tuple[int, ...], ...]
) -> tuple[frozenset[tuple[int, ...]], ...] | None:
    """Per type, the assignments to its parents that its table must
    cover; None if the dependency graph is cyclic.  Worked out once per
    (sizes, parents), not once per net."""
    if dependency_order(parents) is None:
        return None
    return tuple(frozenset(itertools.product(*(range(sizes[q]) for q in ps))) for ps in parents)


@lru_cache(maxsize=65536)
def induce_order(cpnet: CPNet) -> PartialOrder:
    """Partial order induced by a CP-net: closure of sanctioned flips.

    A flip fixes the parents of one type and swaps that type's item for a
    CPT-better one, with every other type held fixed at an arbitrary value.
    Only the flips between adjacent entries of each CPT row are generated,
    each OR'd into the ``above`` row of its worse bundle; the others follow
    by transitivity, through :func:`_closure`.  The cache is keyed by the
    net's value, so equal nets share one order and its sorts.
    """
    sizes = cpnet.sizes
    p = len(sizes)
    m = math.prod(sizes)
    strides = [math.prod(sizes[q + 1 :]) for q in range(p)]  # mixed-radix place values
    above = [0] * m
    for i, parents in enumerate(cpnet.parents):
        offsets = [0]  # index offsets of every assignment to the types outside i's row key
        for q in range(p):
            if q != i and q not in parents:
                offsets = [o + v * strides[q] for o in offsets for v in range(sizes[q])]
        for key, row in cpnet.tables[i]:
            base = sum(v * strides[q] for q, v in zip(parents, key))
            cells = [base + item * strides[i] for item in row]
            for better, worse in zip(cells, cells[1:]):
                bit = 1 << better
                for o in offsets:
                    above[worse + o] |= bit << o
    closed = _closure(above, m)
    if closed is None:
        raise SoundnessError("an acyclic CP-net induces an acyclic order")
    return PartialOrder(m, tuple(closed))


def as_order(preference: PartialOrder | CPNet) -> PartialOrder:
    """The partial order a preference stands for: itself, or the order a
    CP-net induces, read off :attr:`CPNet.order`."""
    return preference if isinstance(preference, PartialOrder) else preference.order
