"""The three allocation mechanisms and their shared machinery.

All three operate on deterministic topological sorts of the agents'
partial orders, so every result is a pure function of
(instance, tiebreak[, seed]).  Tie-breaks matter: different sorts of the
same partial order can change the output, so each entry point accepts
``tiebreak`` as None (canonical bundle order), a single bundle sequence
shared by all agents, or one sequence per agent.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Hashable, Sequence

from . import preferences as prefs
from . import spaces
from .errors import DimensionMismatch, GuardViolation, InstanceTooLargeToDecide, MtraError, SoundnessError
from .errors import TooManyAgentsForExact
from .model import ZERO, DiscreteAssignment, FractionalAssignment, Instance, Lottery, Preference, outcome_matrix

# Exact MRP refuses an instance whose pass over states of order prefixes
# would take more than this many turns, a turn being one state with one
# unserved agent picking next.  Both passes, the turn tables of
# ``_turns`` and the lottery of ``mrp_decompose``, spend time and
# memory per turn and check it with ``_spend``.  Computing
# random-priority shares is #P-hard in general, so this is a fixed
# budget, not a setting.
EXACT_TURN_LIMIT = 1_000_000

Tiebreak = Sequence[int] | Sequence[Sequence[int]] | None
Sorts = tuple[tuple[int, ...], ...]
Tables = tuple[dict[int, int], ...]  # per agent, bundles available -> priority orders


def resolve_sorts(instance: Instance, tiebreak: Tiebreak = None) -> Sorts:
    """Per-agent linear orders used by every mechanism.

    Each comes from :meth:`~mtra.preferences.PartialOrder.sort`, so an
    order is sorted under a given tie-break once.  An instance made by
    :meth:`Instance.with_preference` holds the other agents' order
    objects, a partial order being its own order and a CP-net keeping
    its own (:attr:`~mtra.preferences.CPNet.order`), and so shares their
    sorts.
    """
    return _sorts(instance, tiebreak)[1]


def _sorts(instance: Instance, tiebreak: Tiebreak) -> tuple[Sorts, Sorts]:
    """The per-agent tie-breaks ``tiebreak`` stands for
    (:meth:`Instance.tiebreaks`, ``DimensionMismatch`` before any sort),
    and each agent's order sorted under its own."""
    breaks = instance.tiebreaks(tiebreak)
    return breaks, tuple(order.sort(tb) for order, tb in zip(instance.orders, breaks))


@dataclass(frozen=True, eq=False)
class _Reruns:
    """A mechanism's truthful run under one tie-break, kept for re-runs in
    which one agent alone picks by another sort: a misreport's order
    sorted under the agent's entry of ``tiebreaks``, say.  ``tiebreak``
    is the tie-break as given, ``truth`` the truthful output and ``sorts``
    the agents' truthful sorts.  No re-run builds an instance, only
    :meth:`fresh` does.  Only :func:`reruns` makes one."""

    mechanism: ClassVar[str]
    instance: Instance
    truth: FractionalAssignment
    tiebreak: Tiebreak
    tiebreaks: Sorts
    sorts: Sorts

    @cached_property
    def _outputs(self) -> dict[Hashable, FractionalAssignment]:
        """The re-run outputs made so far, keyed by :meth:`_key`."""
        return {}

    def rerun(self, agent: int, sort: Sequence[int]) -> FractionalAssignment:
        """The whole output when ``agent`` picks by ``sort`` and the others
        by their truthful sorts, made by :meth:`_run` once per :meth:`_key`."""
        key = self._key(agent, sort)
        out = self._outputs.get(key)
        if out is None:
            out = self._outputs[key] = self._run(agent, sort)
        return out

    def _key(self, agent: int, sort: Sequence[int]) -> Hashable:
        raise NotImplementedError

    def _run(self, agent: int, sort: Sequence[int]) -> FractionalAssignment:
        raise NotImplementedError

    def row(self, agent: int, sort: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """The agent's row of :meth:`rerun`, as integer numerators and a
        denominator."""
        lied = self.rerun(agent, sort)
        return lied.nums[agent], lied.den

    def fresh(self, agent: int, report: Preference) -> FractionalAssignment:
        """The witness run: ``agent`` reports ``report`` on a copy, under ``tiebreak``."""
        return reruns(self.mechanism, self.instance.with_preference(agent, report), self.tiebreak).truth

    def _swapped(self, agent: int, sort: Sequence[int]) -> list[Sequence[int]]:
        sorts: list[Sequence[int]] = list(self.sorts)
        sorts[agent] = sort
        return sorts


def reruns(mechanism: str, instance: Instance, tiebreak: Tiebreak = None) -> MpsReruns | MgdReruns | MrpTurns:
    """The exact truthful run of ``mechanism`` ("mps", "mgd" or "mrp")
    under ``tiebreak``, kept for one-agent re-runs: the only maker of an
    :class:`MrpTurns`, :class:`MgdReruns` or :class:`MpsReruns`, whose
    truthful eating is agent 0's :func:`_walk` by its own sort."""
    if mechanism not in ("mps", "mgd", "mrp"):
        raise ValueError(f"unknown mechanism {mechanism!r}")
    breaks, sorts = _sorts(instance, tiebreak)
    if mechanism == "mrp":
        truth, tables = _turns(instance, sorts)
        return MrpTurns(instance, truth, tiebreak, breaks, sorts, math.factorial(instance.n), tables)
    if mechanism == "mgd":
        truth, picks, groups = _share(instance, sorts)
        return MgdReruns(instance, truth, tiebreak, breaks, sorts, picks, groups)
    root = _Node((1 << instance.m) - 1, (1,) * (instance.n * instance.p), 1, 0, ())
    leaf = _walk(instance, sorts, root, 0, sorts[0])
    return MpsReruns(instance, leaf.out, tiebreak, breaks, sorts, root, leaf)


def serial_dictatorship(
    instance: Instance,
    sorts: Sequence[Sequence[int]],
    priority: Sequence[int],
) -> DiscreteAssignment:
    """Agents pick their first available bundle in priority order, for
    :func:`mgd`; sampled :func:`mrp` runs the same loop
    (:func:`_dictate`) with a memo of picks.  Exact MRP picks in turn over
    states of order prefixes instead (:func:`_turns`,
    :func:`mrp_decompose`).  ``priority`` must be an order of the n
    agents."""
    n = instance.n
    if sorted(priority) != list(range(n)):
        raise DimensionMismatch(f"priority {priority!r} is not an order of the {n} agents")
    return DiscreteAssignment(_dictate(instance, sorts, priority))


def _dictate(
    instance: Instance,
    sorts: Sequence[Sequence[int]],
    priority: Sequence[int],
    picks: list[dict[int, int]] | None = None,
) -> tuple[int, ...]:
    """The bundles of :func:`serial_dictatorship` under ``priority``,
    unchecked.  Given ``picks``, ``picks[j]`` maps the bundles available
    at agent j's turn to its pick there, and is read before
    :func:`~mtra.preferences.ext` is run and filled in after, so a caller
    that dictates many times works each pick out once."""
    ext, conflicts = prefs.ext, instance.conflicts
    available = (1 << instance.m) - 1
    chosen = [0] * instance.n
    for j in priority:
        if picks is None:
            x = ext(sorts[j], available)
        else:
            memo = picks[j]
            x = memo.get(available)
            if x is None:
                x = memo[available] = ext(sorts[j], available)
        chosen[j] = x
        available &= ~conflicts[x]
    return tuple(chosen)


def _lottery(outcomes: dict[tuple[int, ...], int], total: int) -> Lottery:
    """Each counted outcome with its share of the ``total`` priorities."""
    return Lottery(tuple((Fraction(w, total), DiscreteAssignment(b)) for b, w in outcomes.items()))


# -- MRP -----------------------------------------------------------------


@dataclass(frozen=True)
class MrpExact:
    """Average over all n! priority orders, counted by one pass over
    (agents served, bundles available) states (:func:`_turns`).  Its
    lottery, from :func:`mrp_decompose`, takes a pass over finer states.
    Either pass is refused past ``EXACT_TURN_LIMIT`` turns."""


@dataclass(frozen=True)
class MrpMonteCarlo:
    """Empirical average over 1 to ``spaces.ENUMERATION_LIMIT`` sampled priority orders."""

    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise MtraError(f"monte-carlo mode needs at least one sample, got {self.samples}")
        if self.samples > spaces.ENUMERATION_LIMIT:
            raise GuardViolation(f"{self.samples} monte-carlo samples exceed the {spaces.ENUMERATION_LIMIT} guard")


MrpMode = MrpExact | MrpMonteCarlo


@dataclass(frozen=True)
class MrpResult:
    """An MRP assignment and the mode that produced it.  The exact mode's
    lottery over serial-dictatorship outcomes comes from
    :func:`mrp_decompose`."""

    assignment: FractionalAssignment
    mode: MrpMode


def mrp(instance: Instance, mode: MrpMode = MrpExact(), tiebreak: Tiebreak = None) -> MrpResult:
    """Random priority over topological sorts.

    Monte-Carlo mode counts how many of its sampled priority orders
    produce each serial-dictatorship outcome and averages them; an
    agent's pick depends only on the bundles left at its turn, so the
    samples share one memo of picks per (agent, bundles available),
    kept for the call (:func:`_dictate`).  Exact
    mode takes the truthful output of ``reruns("mrp", ...)``, the rows its
    :func:`_turns` pass counts over all n! orders without running them;
    no mode builds a lottery.  One fixed priority order is
    :func:`serial_dictatorship`.
    """
    if isinstance(mode, MrpExact):
        return MrpResult(reruns("mrp", instance, tiebreak).truth, mode)
    if not isinstance(mode, MrpMonteCarlo):
        raise TypeError(f"unknown MRP mode {mode!r}")
    sorts = resolve_sorts(instance, tiebreak)
    rng = random.Random(mode.seed)
    picks: list[dict[int, int]] = [{} for _ in range(instance.n)]
    outcomes: Counter[tuple[int, ...]] = Counter()
    for _ in range(mode.samples):
        priority = list(range(instance.n))
        rng.shuffle(priority)
        outcomes[_dictate(instance, sorts, priority, picks)] += 1
    return MrpResult(outcome_matrix(instance, outcomes.items(), mode.samples), mode)


@dataclass(frozen=True, eq=False)
class MrpTurns(_Reruns):
    """Where each agent's turn falls over the n! priority orders.

    ``tables[j]`` maps the bitmask of the bundles still available when
    agent j picks to the number of priority orders that leave exactly
    those bundles to j.  Only the agents before j pick, so the table
    depends on the other agents' sorts alone, and :meth:`row` reads j's
    row off it for any sort of j's own, as numerators over ``total`` =
    n!.  For the same reason j's picks at those states fix the whole
    output, so :meth:`rerun` makes a new pass once per (j, those picks).
    """

    mechanism: ClassVar[str] = "mrp"
    total: int
    tables: Tables

    def most(self, agent: int, masks: Sequence[int]) -> list[int]:
        """Per bundle set U in ``masks``, the most of U that any report of
        ``agent`` can win, as a numerator over ``total``: the orders whose
        turn leaves the agent some bundle of U.

        The table does not depend on the agent's own report, and at each
        turn the agent gets one of the bundles left, so a bundle of U only
        where one is left: no report wins more.  A report that ranks U's
        bundles first picks inside U at every such turn, so every linear
        order listing U first wins exactly this, under any tie-break.
        """
        turns = self.tables[agent].items()
        return [sum(orders for available, orders in turns if available & mask) for mask in masks]

    def row(self, agent: int, sort: Sequence[int]) -> tuple[tuple[int, ...], int]:
        row = [0] * self.instance.m
        for available, orders in self.tables[agent].items():
            row[prefs.ext(sort, available)] += orders
        return tuple(row), self.total

    def _key(self, agent: int, sort: Sequence[int]) -> Hashable:
        return agent, tuple(prefs.ext(sort, available) for available in self.tables[agent])

    def _run(self, agent: int, sort: Sequence[int]) -> FractionalAssignment:
        return _turns(self.instance, self._swapped(agent, sort))[0]


def _turns(instance: Instance, sorts: Sequence[Sequence[int]]) -> tuple[FractionalAssignment, Tables]:
    """The output and turn tables of exact MRP when agent j picks by ``sorts[j]``.

    Layer k of the pass holds the states (agents served, bundles
    available) that k-agent prefixes of priority orders reach, each with
    the number of prefixes reaching it.  An unserved agent j extends
    each of them by (n-k-1)! orders, all of which give j its turn at the
    state's available bundles; its pick there, worked out once per (j,
    available), leads to the next layer.  A layer of s states at depth
    k takes s * (n-k) turns; ``TooManyAgentsForExact`` is raised before
    the first layer that would take the pass past ``EXACT_TURN_LIMIT``
    turns.
    """
    n, m = instance.n, instance.m
    conflicts = instance.conflicts
    agents = (1 << n) - 1
    # per agent: available -> its pick there, and available -> the orders that give it its turn there
    picks: list[dict[int, int]] = [{} for _ in range(n)]
    tables: list[dict[int, int]] = [{} for _ in range(n)]
    layer = {((1 << m) - 1) << n: 1}  # available << n | served -> prefixes
    taken = 0
    weight = total = math.factorial(n)
    for k in range(n):
        taken = _spend(taken, len(layer), n, k, "(served, available)")
        weight //= n - k  # (n-k-1)! orders extend a prefix and its next agent
        last = k == n - 1
        nxt: dict[int, int] = {}
        for key, count in layer.items():
            available = key >> n
            served = key & agents
            added = count * weight  # the orders per next agent
            rest = agents & ~served
            while rest:
                bit = rest & -rest
                rest ^= bit
                j = bit.bit_length() - 1
                chosen = picks[j]
                pick = chosen.get(available)
                if pick is None:
                    pick = chosen[available] = prefs.ext(sorts[j], available)
                table = tables[j]
                table[available] = table.get(available, 0) + added
                if not last:
                    successor = ((available & ~conflicts[pick]) << n) | served | bit
                    nxt[successor] = nxt.get(successor, 0) + count
        layer = nxt
    rows = []
    for chosen, table in zip(picks, tables):
        row = [0] * m
        for available, orders in table.items():
            row[chosen[available]] += orders
        if sum(row) != total:
            raise SoundnessError("every agent takes one turn in each priority order")
        rows.append(tuple(row))
    return FractionalAssignment(tuple(rows), total), tuple(tables)


def _spend(taken: int, states: int, n: int, k: int, kind: str) -> int:
    """``taken`` turns of an exact-MRP pass plus those of its layer of
    ``states`` states at depth k; ``TooManyAgentsForExact`` is raised if
    that is past ``EXACT_TURN_LIMIT``, before the layer is taken."""
    taken += states * (n - k)
    if taken > EXACT_TURN_LIMIT:
        raise TooManyAgentsForExact(
            f"exact MRP would take {taken} turns over {kind}"
            f" states by depth {k}; the budget is {EXACT_TURN_LIMIT}"
        )
    return taken


def mrp_decompose(instance: Instance, tiebreak: Tiebreak = None) -> Lottery:
    """Lottery witness for exact MRP: each serial-dictatorship outcome with
    the share of the n! priority orders that produce it, in the order
    the lexicographic enumeration of the orders first meets them.

    A forward pass like :func:`_turns`, over the states (bundles
    available, bundle of each served agent) of order prefixes, each with
    the number of prefixes reaching it; the last layer's states are the
    outcomes.  Visiting each layer in insertion order and agents in
    index order inserts a state first from its lexicographically least
    prefix, hence the enumeration's order.
    """
    sorts = resolve_sorts(instance, tiebreak)
    n, conflicts = instance.n, instance.conflicts
    layer = {((1 << instance.m) - 1, (-1,) * n): 1}  # unserved agents hold -1
    taken = 0
    for k in range(n):
        taken = _spend(taken, len(layer), n, k, "(available, bundles)")
        nxt: dict[tuple[int, tuple[int, ...]], int] = {}
        for (available, chosen), count in layer.items():
            for j, x in enumerate(chosen):
                if x < 0:
                    x = prefs.ext(sorts[j], available)
                    successor = (available & ~conflicts[x], (*chosen[:j], x, *chosen[j + 1 :]))
                    nxt[successor] = nxt.get(successor, 0) + count
        layer = nxt
    return _lottery({chosen: count for (_, chosen), count in layer.items()}, math.factorial(n))


# -- MPS -----------------------------------------------------------------


@dataclass(frozen=True)
class MpsRound:
    start: Fraction
    end: Fraction
    eaten: tuple[int, ...]  # bundle per agent
    exhausted: tuple[int, ...]  # flat item ids


@dataclass(frozen=True)
class MpsTrace:
    rounds: tuple[MpsRound, ...]


# One round of the eating: the bundle each agent ate, the round's length
# over its denominator, that denominator, the clock after the round over
# it, and the items the round exhausted.
Round = tuple[tuple[int, ...], int, int, int, tuple[int, ...]]


@dataclass(eq=False, repr=False, slots=True)
class _Node:
    """A state of the eating at the start of a round, and a node of the
    eating tree of :class:`MpsReruns`.

    ``supply`` is per flat item, a numerator over ``den`` as the
    ``clock`` is; ``available`` is the bitmask of the bundles whose
    items all have supply left, and ``history`` holds the rounds eaten
    so far, whose bundles, weighted by the rounds' lengths,
    :func:`~mtra.model.outcome_matrix` adds up into the agents' shares.
    ``children`` maps (agent, pick) to the node after the round in which
    ``agent`` eats ``pick`` and every other agent the first available
    bundle of its truthful sort.  Once the eating is over, ``out`` holds
    its output and no bundle is available.
    """

    available: int
    supply: tuple[int, ...]
    den: int
    clock: int
    history: tuple[Round, ...]
    out: FractionalAssignment | None = None
    children: dict[tuple[int, int], _Node] = field(default_factory=dict)


def _walk(instance: Instance, sorts: Sorts, node: _Node, agent: int, sort: Sequence[int]) -> _Node:
    """The last state of the eating from ``node`` in which ``agent`` picks
    by ``sort`` and every other agent by its truthful sort in ``sorts``.

    The walk follows the child of ``agent``'s pick at each node, and
    eats a round (:func:`_round`, called from here alone) only where it
    is missing.  A round in which the agent picks truthfully is filed
    under every agent's truthful pick, so all truthful walks meet.
    """
    while node.out is None:
        pick = prefs.ext(sort, node.available)
        child = node.children.get((agent, pick))
        if child is None:
            eaten = [prefs.ext(truthful, node.available) for truthful in sorts]
            keys = tuple(enumerate(eaten)) if eaten[agent] == pick else ((agent, pick),)
            eaten[agent] = pick
            child = _round(instance, node, tuple(eaten))
            node.children.update(dict.fromkeys(keys, child))
        node = child
    return node


def _round(instance: Instance, node: _Node, eaten: tuple[int, ...]) -> _Node:
    """The node after the round of the eating from ``node`` in which agent
    j eats bundle ``eaten[j]``: the only place a round is eaten, so every
    soundness check of the eating is made here.  Supply is conserved per
    type, so the eating is over when no bundle is available."""
    n = len(eaten)
    supply = list(node.supply)
    den, clock, available = node.den, node.clock, node.available
    p = len(supply) // n
    bundle_items, item_bundles = instance.bundle_items, instance.item_bundles
    consumers = [0] * (n * p)
    for x in eaten:
        for o in bundle_items[x]:
            consumers[o] += 1
    eating = [o for o, c in enumerate(consumers) if c]
    if not eating:
        raise SoundnessError("every agent eats until the clock hits 1")
    s, c = supply[eating[0]], consumers[eating[0]]
    for o in eating[1:]:
        if supply[o] * c < s * consumers[o]:
            s, c = supply[o], consumers[o]
    if s % c:
        k = c // math.gcd(s, c)
        den, s, clock = den * k, s * k, clock * k
        supply = [v * k for v in supply]
    step = s // c
    if step <= 0:
        raise SoundnessError("every agent eats until the clock hits 1")
    exhausted = []
    for o in eating:
        supply[o] -= step * consumers[o]
        if supply[o] == 0:
            exhausted.append(o)
            available &= ~item_bundles[o]
    if not exhausted:
        raise SoundnessError("each round must exhaust at least one item")
    clock += step
    # conservation: per type, remaining supply equals n * (1 - clock)
    for t in range(p):
        if sum(supply[t * n : (t + 1) * n]) != n * (den - clock):
            raise SoundnessError(f"type {t} supply is not conserved")
    if not available and clock != den:
        raise SoundnessError("the eating clock must end at 1")
    history = (*node.history, (eaten, step, den, clock, tuple(exhausted)))
    # each round's length over the last round's denominator, which every earlier one divides
    weighted = ((x, length * (den // d)) for x, length, d, _, _ in history)
    out = None if available else outcome_matrix(instance, weighted, den)
    return _Node(available, tuple(supply), den, clock, history, out)


def mps(instance: Instance, tiebreak: Tiebreak = None) -> tuple[FractionalAssignment, MpsTrace]:
    """Simultaneous eating at unit rate.

    Every round each agent consumes the first available bundle of her
    sort; the round length is the smallest supply/consumers ratio among
    the items actually being consumed, and the whole argmin set is
    removed at once.  Items nobody is eating impose no bound.

    This is the truthful eating of ``reruns("mps", ...)``, made by
    :func:`_walk`: the output is its last state's, and the trace is read
    off that state's rounds.  The round times are the only Fractions
    built.
    """
    leaf = reruns("mps", instance, tiebreak).leaf
    ends = [Fraction(clock, den) for _, _, den, clock, _ in leaf.history]
    trace = MpsTrace(
        tuple(
            MpsRound(start, end, eaten, exhausted)
            for start, end, (eaten, _, _, _, exhausted) in zip((ZERO, *ends), ends, leaf.history)
        )
    )
    return leaf.out, trace


@dataclass(frozen=True, eq=False)
class MpsReruns(_Reruns):
    """The truthful eating, grown into a tree of eating rounds by the
    one-agent re-runs.

    The nodes from ``root`` are states at the start of a round; the
    truthful eating ends at ``leaf``, whose output is ``truth``.
    :meth:`rerun` is agent j's :func:`_walk` from ``root`` by its new
    sort, so the same eating returns the same output object: the truth
    itself if j never picks otherwise.  :meth:`row` reads j's row off
    the same walk.
    """

    mechanism: ClassVar[str] = "mps"
    root: _Node
    leaf: _Node

    def rerun(self, agent: int, sort: Sequence[int]) -> FractionalAssignment:
        return _walk(self.instance, self.sorts, self.root, agent, sort).out


# -- MGD -----------------------------------------------------------------


def _groups(sorts: Sequence[Sequence[int]]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Agents keyed by identical linear order (the literal Group(j, >'))."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for j, s in enumerate(sorts):
        groups.setdefault(tuple(s), []).append(j)
    return {k: tuple(v) for k, v in groups.items()}


def mgd(instance: Instance, tiebreak: Tiebreak = None) -> FractionalAssignment:
    """General dictatorship: each round agent j shares her first available
    bundle equally with everyone whose sort equals hers, then its items
    are removed.  The shares are numerators over the lcm of the group
    sizes."""
    return _share(instance, resolve_sorts(instance, tiebreak))[0]


@dataclass(frozen=True, eq=False)
class MgdReruns(_Reruns):
    """The truthful :func:`mgd` sorts, from which :meth:`rerun` shares out
    again with one agent's sort swapped, once per distinct one-agent run.

    The agents pick in index order, so what agents 0..j-1 leave agent j,
    ``available[j]``, comes from their truthful ``picks`` alone, and the
    picks after j's depend only on what is left.  The groups are the
    truthful ones with j moved to its mates: the other agents whose
    truthful sort is j's new one, found in ``groups``, kept as the
    truthful :func:`_share` made them.  So the output is fixed by (j,
    j's pick at ``available[j]``, mates), and :meth:`rerun` shares out
    once per key: the same key returns the same output object.
    """

    mechanism: ClassVar[str] = "mgd"
    picks: tuple[int, ...]
    groups: dict[tuple[int, ...], tuple[int, ...]]

    @cached_property
    def available(self) -> tuple[int, ...]:
        """Per agent, the bundles left at its turn of the truthful run:
        all of them less the conflicts of the earlier agents' picks."""
        conflicts = self.instance.conflicts
        left = [(1 << self.instance.m) - 1]
        for x in self.picks[:-1]:
            left.append(left[-1] & ~conflicts[x])
        return tuple(left)

    def _key(self, agent: int, sort: Sequence[int]) -> Hashable:
        sort = tuple(sort)
        mates = tuple(k for k in self.groups.get(sort, ()) if k != agent)
        return agent, prefs.ext(sort, self.available[agent]), mates

    def _run(self, agent: int, sort: Sequence[int]) -> FractionalAssignment:
        return _share(self.instance, self._swapped(agent, sort))[0]


def _share(
    instance: Instance, sorts: Sequence[Sequence[int]]
) -> tuple[FractionalAssignment, tuple[int, ...], dict[tuple[int, ...], tuple[int, ...]]]:
    """The :func:`mgd` output when agent j picks by ``sorts[j]``: each
    agent's pick in the serial dictatorship in index order, shared
    equally by its group; those picks; and the groups (:func:`_groups`)."""
    groups = _groups(sorts)
    den = math.lcm(*(len(g) for g in groups.values()))
    rows = [[0] * instance.m for _ in range(instance.n)]
    picks = serial_dictatorship(instance, sorts, range(instance.n)).bundles
    for j, top in enumerate(picks):
        group = groups[tuple(sorts[j])]
        for member in group:
            if rows[member][top] != 0:
                raise SoundnessError("a group never revisits a bundle")
            rows[member][top] = den // len(group)
    return FractionalAssignment(tuple(map(tuple, rows)), den), picks, groups


def mgd_decompose(instance: Instance, tiebreak: Tiebreak = None) -> Lottery:
    """Lottery witness for MGD: rotate members inside each equal-sort
    group through the group's priority positions, lcm-many times, and
    average the serial-dictatorship outcomes uniformly.

    The members of a group share a sort, so in each rotation slot i
    picks the bundle agent i picks in the one dictatorship in index
    order, whoever holds the slot: a rotation permutes those picks
    within each group.  A lottery of more than
    ``spaces.ENUMERATION_LIMIT`` rotations raises
    ``InstanceTooLargeToDecide`` before any is built.
    """
    sorts = resolve_sorts(instance, tiebreak)
    groups = _groups(sorts).values()
    k = math.lcm(*(len(g) for g in groups))
    if k > spaces.ENUMERATION_LIMIT:
        raise InstanceTooLargeToDecide(f"{k} mgd lottery rotations exceed the {spaces.ENUMERATION_LIMIT} guard")
    picks = serial_dictatorship(instance, sorts, range(instance.n)).bundles
    outcomes: Counter[tuple[int, ...]] = Counter()
    for u in range(k):
        chosen = [0] * instance.n
        for members in groups:
            for pos, agent in enumerate(members):
                # the slot originally held by `agent`, and so its pick,
                # goes to the member u places after it in the same group
                chosen[members[(pos + u) % len(members)]] = picks[agent]
        outcomes[tuple(chosen)] += 1
    return _lottery(outcomes, k)
