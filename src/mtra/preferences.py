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
from typing import Iterable, Sequence

from .errors import (
    CyclicDependency,
    DimensionMismatch,
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


def _linear_extension(above: Sequence[int], m: int, tiebreak: Sequence[int]) -> tuple[int, ...]:
    """The bundles, each the tiebreak-least one with nothing above it
    left (``tiebreak[r]`` is the bundle of rank r); fewer than ``m`` of
    them exactly when the relation has a cycle.

    Kahn's ready set, as one pass over a mask of tie-break ranks, lowest
    first: a bundle with nothing better left is emitted, one with
    something better left is parked on one of those better bundles (of
    the lowest- and the highest-numbered, the one with more bundles
    above it, so usually the later to go) and comes back to the mask
    when that bundle is emitted.  No emitted bundle is looked at again;
    a bundle on or below a cycle is never emitted.
    """
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


def _close(above: Sequence[int], extension: Sequence[int]) -> list[int]:
    """Transitive closure of an acyclic relation, along a linear
    extension of it: a bundle's closed row is its own row OR'd with the
    closed rows of the bundles above it, which come earlier.  What is
    above one of them already is skipped."""
    closed = list(above)
    for x in extension:
        rest = above[x]
        while rest:
            y = (rest & -rest).bit_length() - 1
            closed[x] |= closed[y]
            rest &= ~closed[y] & (rest - 1)  # inside closed[y] already
    return closed


@dataclass(frozen=True)
class PartialOrder:
    """A strict partial order over ``m`` bundles.

    ``above[x]`` is the bitmask of bundles strictly preferred to ``x``.
    An order handed in whole, or by :meth:`without_bundles`, is checked
    to be irreflexive and transitively closed, without computing a
    closure; anti-symmetry follows, as x above y above x would put x
    above itself.  Every order the package closes is closed along a
    :func:`_linear_extension` instead, checked against its generators,
    and keeps that extension as its sort (:meth:`_generated`).
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
        The order keeps its sort under the identity tie-break.
        """
        above = [0] * m
        for better, worse in pairs:
            if not (0 <= better < m and 0 <= worse < m):
                raise InconsistentOrder(f"edge ({better},{worse}) outside universe")
            above[worse] |= 1 << better
        identity = tuple(range(m))
        extension = _linear_extension(above, m, identity)
        if len(extension) < m:
            raise InconsistentOrder("edge list induces a cycle")
        return cls._generated(above, extension, identity)

    @classmethod
    def _generated(cls, generators: Sequence[int], extension: tuple[int, ...], tiebreak: tuple) -> "PartialOrder":
        """The closure of ``generators``, a relation over ``m`` bundles,
        along ``extension``, their :func:`_linear_extension` under
        ``tiebreak`` (:func:`_close`), checked against the generators in
        place of the construction check: no bundle is above itself, and
        each closed row is its generators' row OR'd with their closed
        rows.  That is a proof: the closed relation contains the
        generators' closure, so the generators are acyclic, and then the
        two relations agree by induction along any linear extension.  It
        costs one OR per generator pair, where the construction check
        makes an m-bit AND-NOT per row it visits.  ``SoundnessError``
        otherwise.

        The order keeps ``extension`` as its sort under ``tiebreak``: the
        bundles emitted are always an up-set of the closure, so one whose
        generator-betters are emitted has nothing better left, and the
        extension is the closed order's :func:`topological_sort`.  Orders
        are closed only here: by :meth:`from_pairs` (so :meth:`from_chain`)
        and :func:`induce_order`."""
        m = len(generators)
        closed = _close(generators, extension)
        if len(closed) != m:
            raise SoundnessError("a closure has one row per bundle")
        for x in range(m):
            row = closed[x]
            if row >> x & 1:
                raise SoundnessError("a closure of acyclic generators is irreflexive")
            want = rest = generators[x]
            while rest:
                low = rest & -rest
                want |= closed[low.bit_length() - 1]
                rest ^= low
            if row != want:
                raise SoundnessError("a closed row is its generators' row OR'd with their closed rows")
        order = cls.__new__(cls)
        object.__setattr__(order, "m", m)
        object.__setattr__(order, "above", tuple(closed))
        order._sorts[tiebreak] = extension
        return order

    @classmethod
    def from_chain(cls, chain: Sequence[int]) -> "PartialOrder":
        """Linear order: ``chain[0]`` is the best bundle; :meth:`from_pairs`
        of its consecutive pairs, so a non-permutation is refused."""
        return cls.from_pairs(len(chain), zip(chain, chain[1:]))

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
        at most once per order and tie-break.  An order closed from
        generators keeps the canonical one it was closed along
        (:meth:`_generated`), so that one is never made here."""
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
    """Deterministic linear extension of ``order``: repeatedly the
    tiebreak-least bundle whose remaining strictly-better set is empty,
    by :func:`_linear_extension`.  ``tiebreak`` must be a permutation of
    the universe."""
    m = order.m
    if sorted(tiebreak) != list(range(m)):
        raise InconsistentOrder("tiebreak is not a permutation of the universe")
    return _linear_extension(order.above, m, tiebreak)


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

    Orders over different universes, or a row not over their ``m``
    bundles, raise ``UniverseMismatch``, and a pivot that is not one of
    those bundles ``DimensionMismatch``.
    """
    if old.m != new.m:
        raise UniverseMismatch("orders range over different universes")
    if len(row) != old.m:
        raise UniverseMismatch("allocation rows do not match the bundle universe")
    if not 0 <= pivot < old.m:
        raise DimensionMismatch(f"pivot {pivot} is not one of the {old.m} bundles")
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

    It is the :func:`_linear_extension` of the rows that are the parent
    bitmasks under the identity tie-break, which comes up short exactly
    on a cycle; no closure is built."""
    p = len(parents)
    rows = [0] * p
    for i, ps in enumerate(parents):
        for q in ps:
            if not 0 <= q < p:
                return None
            rows[i] |= 1 << q
    order = _linear_extension(rows, p, range(p))
    return order if len(order) == p else None


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
        shape = _net_shape(self.sizes, self.parents)
        if shape is None:
            raise CyclicDependency("CP-net dependency graph is cyclic")
        for i, expected in enumerate(shape[0]):
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


@lru_cache(maxsize=256)
def _net_shape(
    sizes: tuple[int, ...], parents: tuple[tuple[int, ...], ...]
) -> tuple[
    tuple[frozenset[tuple[int, ...]], ...], tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]
] | None:
    """Per type, the assignments to its parents that its table must
    cover; the mixed-radix place values; per type, the index offsets of
    every assignment to the types outside its row key, at which
    :func:`induce_order` ORs each of that type's flips; and the canonical
    tie-break ``0..m-1``, shared by the canonical sorts of all nets of
    this shape.  None if the dependency graph is cyclic, and
    ``IncompleteCPT`` if a type's parents name one type twice.  Worked
    out once per (sizes, parents), not once per net: O(m) ints per
    shape, where an order holds m² bits.  Construction reads only the
    first entry and builds no relation."""
    for i, ps in enumerate(parents):
        if len(set(ps)) < len(ps):
            raise IncompleteCPT(f"parents of type {i} name one type twice")
    if dependency_order(parents) is None:
        return None
    keys = tuple(frozenset(itertools.product(*(range(sizes[q]) for q in ps))) for ps in parents)
    strides = tuple(math.prod(sizes[q + 1 :]) for q in range(len(sizes)))
    offsets = []
    for i, ps in enumerate(parents):
        shifts = [0]
        for q in range(len(sizes)):
            if q != i and q not in ps:
                shifts = [o + v * strides[q] for o in shifts for v in range(sizes[q])]
        offsets.append(tuple(shifts))
    return keys, strides, tuple(offsets), tuple(range(math.prod(sizes)))


@lru_cache(maxsize=65536)
def induce_order(cpnet: CPNet) -> PartialOrder:
    """Partial order induced by a CP-net: closure of sanctioned flips.

    A flip fixes the parents of one type and swaps that type's item for a
    CPT-better one, with every other type held fixed at an arbitrary value.
    Only the flips between adjacent entries of each CPT row are generated,
    each OR'd into the ``above`` row of its worse bundle, at every value
    of the types outside the row's key (``_net_shape``'s offsets); no
    flip row outlives the net's order.  Their :func:`_linear_extension`
    under the canonical tie-break must hold all m bundles, or
    ``SoundnessError``; the other flips follow by transitivity, closed
    along it and checked against the adjacent flips
    (:meth:`PartialOrder._generated`), at most p ORs per bundle, and it
    is kept as the order's canonical sort.  The cache is keyed by the
    net's value, so equal nets share one order and its sorts.
    """
    _, strides, offsets, canonical = _net_shape(cpnet.sizes, cpnet.parents)
    m = len(canonical)
    above = [0] * m
    for i, table in enumerate(cpnet.tables):
        stride, shifts = strides[i], offsets[i]
        for key, row in table:
            base = 0
            for q, v in zip(cpnet.parents[i], key):
                base += v * strides[q]
            bit = 0  # the bundle of the item before, none at the row's first
            for item in row:
                worse = base + item * stride
                if bit:
                    for o in shifts:
                        above[worse + o] |= bit << o
                bit = 1 << worse
    extension = _linear_extension(above, m, canonical)
    if len(extension) < m:
        raise SoundnessError("an acyclic CP-net induces an acyclic order")
    return PartialOrder._generated(above, extension, canonical)


def as_order(preference: PartialOrder | CPNet) -> PartialOrder:
    """The partial order a preference stands for: itself, or the order a
    CP-net induces, read off :attr:`CPNet.order`."""
    return preference if isinstance(preference, PartialOrder) else preference.order
