"""Search for CPT manipulations of the eating mechanism.

With three agents sharing the dependency graph F -> B, the eating
mechanism stops being truthful: an agent can misreport her conditional
B-tables and end up with a share vector that stochastically dominates
truth-telling.  The search below finds such profiles from scratch.

The search space is cut down by symmetry and structure before being
scanned exhaustively per candidate:

* agents 2 and 3 are identical twins (their CPTs coincide);
* item relabeling fixes the manipulator's F-order to 1F>2F>3F and her
  B-row under 1F to 1B>2B>3B (both without loss of generality, since the
  mechanism commutes with item relabeling on CP-net profiles);
* the twins' top F-item is 1F as well, so the early rounds are
  contested (manipulations need contested items to change exhaustion
  times);
* the manipulator misreports only her B-rows, keeping the F-order.

Candidate profiles are visited in a seed-fixed shuffled order.  On each,
the search is a weak sd-strategyproofness check of the eating mechanism
against the manipulator's B-row misreports: the truthful eating is kept
as the first path of a tree of eating rounds (:func:`mps_reruns`), and
:func:`~mtra.axioms.manipulations` judges each misreport against it,
each distinct row of the manipulator's once, and re-runs every
manipulation from scratch.  Every hit is checked once more with
:func:`sd_compare`.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import preferences as prefs
from .axioms import manipulations, sd_compare
from .errors import SoundnessError
from .mechanisms import mps_reruns
from .model import Instance
from .spaces import square_types

_ORDERS3 = tuple(itertools.permutations(range(3)))
_IDENT = (0, 1, 2)
_PARENTS = ((), (0,))


def shared_fb_net(f_order: Sequence[int], b_rows: Sequence[Sequence[int]]) -> prefs.CPNet:
    """A 3x3 CP-net with dependency F -> B."""
    return prefs.CPNet(
        (3, 3),
        _PARENTS,
        (
            (((), tuple(f_order)),),
            tuple(((k,), tuple(b_rows[k])) for k in range(3)),
        ),
    )


@dataclass(frozen=True)
class ManipulationHit:
    """A verified profitable CPT misreport under the eating mechanism."""

    instance: Instance
    misreport: prefs.CPNet
    agent: int
    truthful_row: tuple[Fraction, ...]
    manipulated_row: tuple[Fraction, ...]

    @property
    def truthful_shares(self) -> tuple[Fraction, ...]:
        return tuple(sorted((v for v in self.truthful_row if v > 0), reverse=True))

    @property
    def manipulated_shares(self) -> tuple[Fraction, ...]:
        return tuple(sorted((v for v in self.manipulated_row if v > 0), reverse=True))


def _candidate_profiles(seed: int) -> Iterator[tuple[tuple, tuple, tuple]]:
    """(b2, b3, twins) combos in a seed-fixed shuffled order."""
    twins_f = tuple(o for o in _ORDERS3 if o[0] == 0)
    combos = [
        (b2, b3, (f23, bb))
        for b2 in _ORDERS3
        for b3 in _ORDERS3
        for f23 in twins_f
        for bb in itertools.product(_ORDERS3, repeat=3)
    ]
    random.Random(seed).shuffle(combos)
    return iter(combos)


def search_cpt_manipulations(
    max_hits: int = 1,
    require_pattern: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None,
    seed: int = 2,
    time_budget: float | None = None,
    max_profiles: int | None = None,
) -> list[ManipulationHit]:
    """Scan shared-F->B twin profiles for strict weak-SP violations.

    Stops when ``max_hits`` hits are collected (all matching
    ``require_pattern`` if given: a pair of sorted positive share
    multisets for truth and lie), the time budget runs out, or the
    candidate space is exhausted.  A profile's misreports are judged by
    :func:`~mtra.axioms.manipulations` against the truthful eating tree,
    in the order of the B-rows; its first hit that matches the pattern
    is kept, after :func:`sd_compare` has confirmed it.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    nets = {rows: shared_fb_net(_IDENT, rows) for rows in itertools.product(_ORDERS3, repeat=3)}
    # the misreports, as induced orders, each mapped back to its net
    misreports = {prefs.as_order(net): net for net in nets.values()}
    hits: list[ManipulationHit] = []
    scanned = 0
    for b2, b3, (f23, bb) in _candidate_profiles(seed):
        if deadline is not None and time.monotonic() > deadline:
            break
        if max_profiles is not None and scanned >= max_profiles:
            break
        scanned += 1
        twins = shared_fb_net(f23, bb)
        instance = Instance(square_types(3, 2), (nets[_IDENT, b2, b3], twins, twins))
        for witness in manipulations("mps", mps_reruns(instance), None, 0, misreports, "weak"):
            truth, lie = witness.truthful.row(0), witness.manipulated.row(0)
            if not sd_compare(instance.orders[0], lie, truth).p_dominates_q:
                raise SoundnessError("sd_compare disagrees with the upper-contour sums")
            hit = ManipulationHit(instance, misreports[witness.misreport], 0, truth, lie)
            if require_pattern is not None:
                want_truth, want_lie = require_pattern
                if (
                    hit.truthful_shares != tuple(sorted(want_truth, reverse=True))
                    or hit.manipulated_shares != tuple(sorted(want_lie, reverse=True))
                ):
                    continue
            hits.append(hit)
            if len(hits) >= max_hits:
                return hits
            break
    return hits


KNOWN_SHARE_PATTERN = (
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 3), Fraction(1, 3), Fraction(2, 9), Fraction(1, 9)),
)
