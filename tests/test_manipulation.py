import itertools
import random
from types import SimpleNamespace

import pytest

from mtra import manipulation
from mtra import preferences as prefs
from mtra.axioms import sd_compare
from mtra.errors import SoundnessError
from mtra.mechanisms import mps
from mtra.model import Instance
from mtra.spaces import square_types


def test_search_verifies_hits():
    hits = manipulation.search_cpt_manipulations(max_hits=1, seed=2, time_budget=60)
    assert hits
    hit = hits[0]
    assert hit.manipulated_row != hit.truthful_row
    assert sum(hit.truthful_row) == 1 and sum(hit.manipulated_row) == 1
    # the rows are what the public mechanism gives on the hit's profiles
    truth = mps(hit.instance)[0].row(hit.agent)
    lied = mps(hit.instance.with_preference(hit.agent, hit.misreport))[0].row(hit.agent)
    assert (truth, lied) == (hit.truthful_row, hit.manipulated_row)
    assert sd_compare(hit.instance.orders[hit.agent], lied, truth).p_dominates_q


def reference_search(seed, max_profiles, require_pattern=None):
    """Every hit of the search's first ``max_profiles`` profiles, found by
    running the public `mps` on every misreport and comparing rows with
    `sd_compare`: the reference for the search's eating tree and its one
    verdict per distinct row.  With ``require_pattern``, a manipulation
    whose sorted positive shares do not match it is skipped and the
    profile's later misreports are still tried."""
    ident = (0, 1, 2)
    all_rows = list(itertools.product(itertools.permutations(range(3)), repeat=3))
    hits = []
    profiles = itertools.islice(manipulation._candidate_profiles(seed), max_profiles)
    for b2, b3, (f23, bb) in profiles:
        truth_b = (ident, b2, b3)
        twins = manipulation.shared_fb_net(f23, bb)
        instance = Instance(square_types(3, 2), (manipulation.shared_fb_net(ident, truth_b), twins, twins))
        order = instance.orders[0]
        truth = mps(instance)[0].row(0)
        for rows in all_rows:
            if rows == truth_b:
                continue
            misreport = manipulation.shared_fb_net(ident, rows)
            lied = mps(instance.with_preference(0, misreport))[0].row(0)
            if lied != truth and sd_compare(order, lied, truth).p_dominates_q:
                hit = manipulation.ManipulationHit(instance, misreport, 0, truth, lied)
                if require_pattern is not None and (hit.truthful_shares, hit.manipulated_shares) != tuple(
                    tuple(sorted(shares, reverse=True)) for shares in require_pattern
                ):
                    continue
                hits.append(hit)
                break
    return hits


def test_search_matches_public_mps_reference():
    found = 0
    # two seeds whose first three profiles hold a hit each
    for seed in (3, 8):
        hits = manipulation.search_cpt_manipulations(max_hits=1 << 30, seed=seed, max_profiles=3)
        want = reference_search(seed, 3)
        assert [(h.instance.preferences, h.misreport, h.truthful_row, h.manipulated_row) for h in hits] == [
            (h.instance.preferences, h.misreport, h.truthful_row, h.manipulated_row) for h in want
        ]
        found += len(hits)
    assert found == 2


def test_pattern_search_matches_public_mps_reference():
    found = 0
    # two seeds whose first five profiles hold one hit of the known pattern each
    for seed in (3, 8):
        hits = manipulation.search_cpt_manipulations(
            max_hits=1 << 30, require_pattern=manipulation.KNOWN_SHARE_PATTERN, seed=seed, max_profiles=5
        )
        want = reference_search(seed, 5, manipulation.KNOWN_SHARE_PATTERN)
        assert [(h.instance.preferences, h.misreport, h.truthful_row, h.manipulated_row) for h in hits] == [
            (h.instance.preferences, h.misreport, h.truthful_row, h.manipulated_row) for h in want
        ]
        found += len(hits)
    assert found == 2


def built_and_shuffled(seed):
    """The former candidate order: every combo built, then the list shuffled."""
    orders = list(itertools.permutations(range(3)))
    twins_f = [o for o in orders if o[0] == 0]
    combos = [
        (b2, b3, (f23, bb))
        for b2 in orders
        for b3 in orders
        for f23 in twins_f
        for bb in itertools.product(orders, repeat=3)
    ]
    random.Random(seed).shuffle(combos)
    return combos


def test_candidate_order_matches_the_shuffled_combo_list():
    # the default seed, one of the tests above, and the first search seed
    # of the benchmark's seed-0 truthfulness round 0
    for seed in (2, 8, 591465043):
        want = built_and_shuffled(seed)
        assert len(want) == 15552
        assert list(manipulation._candidate_profiles(seed)) == want


def test_search_rechecks_each_hit_with_sd_compare(monkeypatch):
    # seed 3 finds a hit in its first profile; a comparison that
    # disagrees with the upper-contour sums is a fault
    assert manipulation.search_cpt_manipulations(max_hits=1, seed=3, max_profiles=1)
    monkeypatch.setattr(manipulation, "sd_compare", lambda order, p, q: SimpleNamespace(p_dominates_q=False))
    with pytest.raises(SoundnessError, match="sd_compare disagrees with the upper-contour sums"):
        manipulation.search_cpt_manipulations(max_hits=1, seed=3, max_profiles=1)


def test_search_builds_its_misreport_nets_once(monkeypatch):
    # a first search builds the nets, unless an earlier one did
    manipulation.search_cpt_manipulations(max_hits=1 << 30, seed=3, max_profiles=1)
    built = []
    real = manipulation.shared_fb_net

    def counted(f_order, b_rows):
        built.append((f_order, b_rows))
        return real(f_order, b_rows)

    monkeypatch.setattr(manipulation, "shared_fb_net", counted)
    manipulation.search_cpt_manipulations(max_hits=1 << 30, seed=3, max_profiles=2)
    # only the twins' net of each profile is built
    assert len(built) == 2
    nets, misreports = manipulation._misreport_nets()
    assert list(nets) == list(itertools.product(itertools.permutations(range(3)), repeat=3))
    assert list(misreports) == list(nets.values())
