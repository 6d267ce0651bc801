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
as the first path of a tree of eating rounds (``reruns("mps", ...)``), and
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
from functools import lru_cache
from typing import Iterator, Sequence

from . import preferences as prefs
from .axioms import manipulations, sd_compare
from .errors import SoundnessError
from .mechanisms import reruns
from .model import Instance
from .spaces import Family, square_types

_ORDERS3 = tuple(itertools.permutations(range(3)))
_IDENT = (0, 1, 2)
_TWINS_F = tuple(o for o in _ORDERS3 if o[0] == 0)
_B_ROWS = tuple(itertools.product(_ORDERS3, repeat=3))
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
    """(b2, b3, (f23, bb)) combos in a seed-fixed shuffled order.

    The combos are numbered as the nested loops over b2, b3, the twins'
    F-order f23 (1F first) and their B-rows bb, the last fastest, would
    list them: ``random.Random(seed)`` shuffles the numbers, and each is
    decoded when it is reached.  A shuffle's swaps depend on the length
    alone, so this is the order the shuffled list of combos would have,
    without building the 15,552 combos.
    """
    numbers = list(range(len(_ORDERS3) ** 2 * len(_TWINS_F) * len(_B_ROWS)))
    random.Random(seed).shuffle(numbers)
    for number in numbers:
        rest, bb = divmod(number, len(_B_ROWS))
        rest, f23 = divmod(rest, len(_TWINS_F))
        b2, b3 = divmod(rest, len(_ORDERS3))
        yield _ORDERS3[b2], _ORDERS3[b3], (_TWINS_F[f23], _B_ROWS[bb])


@lru_cache(maxsize=1)
def _misreport_nets() -> tuple[dict, Family]:
    """The manipulator's shared-F->B nets by B-rows, with F-order 1F>2F>3F,
    and the same nets as a misreport family, in the order of the B-rows:
    built once per process, and sorted and checked once per tie-break
    (:meth:`~mtra.spaces.Family.table`)."""
    nets = {rows: shared_fb_net(_IDENT, rows) for rows in _B_ROWS}
    return nets, Family(nets.values())


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
    nets, misreports = _misreport_nets()
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
        for witness in manipulations(reruns("mps", instance), 0, misreports, "weak"):
            truth, lie = witness.truthful.row(0), witness.manipulated.row(0)
            if not sd_compare(instance.orders[0], lie, truth).p_dominates_q:
                raise SoundnessError("sd_compare disagrees with the upper-contour sums")
            hit = ManipulationHit(instance, witness.misreport, 0, truth, lie)
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
