"""Acceptance suite: the package's exit criteria, one test per criterion.

Every comparison is an exact rational equality; there are no numeric
tolerances anywhere.  Each test prints a verdict line, so running
``pytest -v tests/test_acceptance.py`` (or ``-s`` for the lines
themselves) reads as a criterion checklist.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from conftest import max_is
from mtra import fixtures, manipulation, spaces
from mtra.axioms import (
    _sd_efficiency_lp,
    check_decomposability,
    check_envy,
    check_ete,
    check_ex_post_efficiency,
    check_ordinal_fairness,
    check_sd_efficiency,
    check_strategyproofness,
    check_upper_invariance,
    find_generalized_cycle,
    sd_compare,
)
from mtra.lp import Constraint
from mtra.mechanisms import MrpExact, MrpMonteCarlo, mgd, mgd_decompose, mps, mrp
from mtra.model import from_discrete

F = Fraction
SWEEP_SEED = 108
SWEEP_SIZES = [(2, 1)] * 150 + [(3, 1)] * 150 + [(2, 2)] * 140 + [(3, 2)] * 60
KINDS = ("general", "cpnet", "independent")
CP_SWEEP_SIZES = [(2, 1)] * 84 + [(3, 1)] * 64 + [(2, 2)] * 40 + [(3, 2)] * 12


def note(criterion: str, detail: str = "") -> None:
    print(f"PASS {criterion}" + (f": {detail}" if detail else ""))


# -- criteria 1-8: the pinned reference instances -------------------------------
# The facts are stated once, in the `mtra replay-paper` checks; the criteria read
# their verdicts by name, so a misspelt name is a KeyError, never a vacuous pass.


@pytest.fixture(scope="session")
def replayed() -> dict[str, bool]:
    return {r.name: r.passed for r in fixtures.replay_all()}


def test_criterion_01_dominance_table(replayed):
    """Dominance verdicts among the three reference tables match the
    formal definition: (2) dominates (3); (2) does not dominate (1); the
    (1)-vs-(2) comparison is a strict dominance for the first agent and
    incomparable for the second, with the two witnessing contour sets."""
    assert replayed["dominance-table"]
    note("criterion-01", "dominance table reproduced under the formal definition")


def test_criterion_02_eating_two_sorts(replayed):
    assert replayed["eating-two-sorts"]
    note("criterion-02", "eating outputs match tables (1) and (2) entry-for-entry")


def test_criterion_03_priority_exact(replayed):
    assert replayed["priority-exact-average"]
    note("criterion-03", "priority average over both orders equals table (1)")


def test_criterion_04_group_sharing_two_sorts(replayed):
    assert replayed["group-sharing-two-sorts"]
    note("criterion-04", "group sharing splits the expected bundles under both sorts")


def test_criterion_05_dependent_pair_indecomposable(replayed):
    assert replayed["dependent-pair-eating"]
    assert replayed["dependent-pair-indecomposable"]
    note("criterion-05", "eating output equals table (4), provably not a lottery")


def test_criterion_06_envy_vs_efficiency(replayed):
    assert replayed["opposed-trio-envy-vs-efficiency"]
    inst = fixtures.opposed_trio()
    # the strong-envy-free polytope collapses to the uniform matrix:
    # every coordinate's max and min over the polytope both equal 1/3
    n, m = inst.n, inst.m
    nv = n * m
    cons = []
    for j in range(n):
        row = [0] * nv
        for x in range(m):
            row[j * m + x] = 1
        cons.append(Constraint(tuple(row), "=", 1))
    for o in range(m):
        row = [0] * nv
        for j in range(n):
            row[j * m + o] = 1
        cons.append(Constraint(tuple(row), "=", 1))
    for j in range(n):
        order = inst.orders[j]
        for k in range(n):
            if j == k:
                continue
            for x in range(m):
                row = [0] * nv
                for y in range(m):
                    if order.ucs_mask(x) >> y & 1:
                        row[j * m + y] += 1
                        row[k * m + y] -= 1
                cons.append(Constraint(tuple(row), ">=", 0))
    for var in range(nv):
        for sign in (1, -1):
            c = [0] * nv
            c[var] = sign
            assert max_is(nv, tuple(cons), c, F(sign, 3))
    note("criterion-06", "strong-envy-free polytope is the uniform matrix only")


def test_criterion_07_invariance_and_truthfulness(replayed):
    assert replayed["blank-vs-chain-priority"]
    assert replayed["blank-vs-chain-invariance-failures"]

    rng = random.Random(SWEEP_SEED + 7)
    checked = 0
    for n, p in CP_SWEEP_SIZES:
        cp = spaces.random_profile(rng, n, p, "cpnet")
        sp_cp = check_strategyproofness(
            "mrp", cp, spaces.CpNetMisreports("all"), "sd", tiebreaks=[None]
        )
        assert sp_cp.passed, (n, p, sp_cp)
        ui_cp = check_upper_invariance(
            "mrp", cp, spaces.CpNetTransforms(), tiebreaks=[None]
        )
        assert ui_cp.passed, (n, p, ui_cp)
        checked += 1
    assert checked == 200
    note(
        "criterion-07",
        "priority mechanism: manipulable on blanks, truthful and invariant on 200 conditional profiles",
    )


def test_criterion_08_three_chains_dictatorship(replayed):
    assert replayed["three-chains-dictatorship"]
    assert replayed["three-chains-manipulation"]
    note("criterion-08", "group dictatorship fails weak envy, ordinal fairness, weak truthfulness")


# -- criteria 9-11: the randomized sweep -----------------------------------------


@dataclass
class SweepResults:
    profiles: int = 0
    failures: list = field(default_factory=list)
    lottery_checks: int = 0
    cycle_free_efficient: int = 0
    cycle_seen: int = 0
    by_kind: dict = field(default_factory=dict)


@pytest.fixture(scope="session")
def sweep() -> SweepResults:
    rng = random.Random(SWEEP_SEED)
    results = SweepResults()
    se_cache: dict = {}

    def record(ok: bool, label, instance_no):
        if not ok:
            results.failures.append((instance_no, label))

    for idx, (n, p) in enumerate(SWEEP_SIZES):
        kind = KINDS[idx % 3]
        inst = spaces.random_profile(rng, n, p, kind)
        results.by_kind[kind] = results.by_kind.get(kind, 0) + 1
        tiebreaks = spaces.sweep_tiebreaks(inst.m)
        cp = inst.is_cp_profile
        independent = cp and all(not any(net.parents) for net in inst.preferences)
        seen_assignments = []
        for tb in tiebreaks:
            eating, _ = mps(inst, tb)
            sharing = mgd(inst, tb)
            priority = mrp(inst, MrpExact(), tb).assignment
            se_eating = check_sd_efficiency(inst, eating)
            record(se_eating.passed, "mps-sd-efficiency", idx)
            record(check_envy(inst, eating, "weak").passed, "mps-weak-envy", idx)
            record(check_ete(inst, eating).passed, "mps-ete", idx)
            if cp:
                record(check_envy(inst, eating, "strong").passed, "mps-strong-envy", idx)
                record(
                    check_ordinal_fairness(inst, eating).passed, "mps-ordinal-fairness", idx
                )
            se_sharing = check_sd_efficiency(inst, sharing)
            record(se_sharing.passed, "mgd-sd-efficiency", idx)
            record(check_ete(inst, sharing).passed, "mgd-ete", idx)
            record(check_decomposability(inst, sharing).passed, "mgd-decomposability", idx)
            record(
                check_ex_post_efficiency(inst, sharing).passed, "mgd-ex-post", idx
            )
            record(check_ex_post_efficiency(inst, priority).passed, "mrp-ex-post", idx)
            record(check_envy(inst, priority, "weak").passed, "mrp-weak-envy", idx)
            record(check_ete(inst, priority).passed, "mrp-ete", idx)
            misreports = (
                spaces.LinearOrderMisreports()
                if inst.m <= 4
                else spaces.SampledLinearOrderMisreports(8, SWEEP_SEED)
            )
            record(
                check_strategyproofness(
                    "mrp", inst, misreports, "weak", tiebreaks=[tb]
                ).passed,
                "mrp-weak-sp",
                idx,
            )
            # criterion 10: the sharing mechanism's lottery witness
            lottery = mgd_decompose(inst, tb)
            record(lottery.expectation(inst) == sharing, "mgd-lottery-expectation", idx)
            for _, disc in lottery.entries:
                key = (idx, disc.bundles)
                if key not in se_cache:
                    se_cache[key] = check_sd_efficiency(
                        inst, from_discrete(inst, disc)
                    ).passed
                record(se_cache[key], "mgd-lottery-outcome-efficiency", idx)
                results.lottery_checks += 1
            seen_assignments.extend([eating, sharing, priority])
        if cp:
            record(
                check_upper_invariance(
                    "mps", inst, spaces.CpNetTransforms(), tiebreaks=tiebreaks
                ).passed,
                "mps-upper-invariance",
                idx,
            )
        if independent:
            record(
                check_strategyproofness(
                    "mps",
                    inst,
                    spaces.IndependentCpNetMisreports(),
                    "weak",
                    tiebreaks=tiebreaks,
                ).passed,
                "mps-weak-sp-independent",
                idx,
            )
        # criterion 11: no generalized cycle implies the exact LP passes;
        # check_sd_efficiency itself answers such assignments by the lemma
        lp_verdicts: dict = {}
        for assignment in seen_assignments:
            cycle = find_generalized_cycle(inst, assignment)
            if cycle is None:
                if assignment not in lp_verdicts:
                    lp_verdicts[assignment] = _sd_efficiency_lp(inst, assignment).passed
                record(lp_verdicts[assignment], "cycle-free-but-inefficient", idx)
                results.cycle_free_efficient += 1
            else:
                results.cycle_seen += 1
        results.profiles += 1
    return results


def test_criterion_09_property_sweep(sweep: SweepResults, replayed):
    assert sweep.profiles == 500
    assert set(sweep.by_kind) == set(KINDS)
    assert sweep.failures == [], sweep.failures[:10]
    # the documented failures: every negative cell has a reproducing fixture
    for name in (
        "blank-vs-chain-invariance-failures",  # priority: not invariant, not sd-truthful
        "dependent-pair-indecomposable",  # eating: no lottery, not ex-post
        "worst-first-eating-unfair",  # eating: not ordinally fair, envy appears
        "three-chains-dictatorship",  # sharing: weak envy and ordinal fairness fail
        "three-chains-manipulation",  # sharing: weak truthfulness and invariance fail
        "opposed-trio-envy-vs-efficiency",  # no rule is both envy-free and efficient
    ):
        assert replayed[name], name
    note(
        "criterion-09",
        f"500 profiles x 2 sorts: all positive cells hold ({sweep.by_kind})",
    )


def test_criterion_10_lottery_witnesses(sweep: SweepResults):
    assert sweep.failures == []
    assert sweep.lottery_checks > 0
    note(
        "criterion-10",
        f"lottery expectation matches and {sweep.lottery_checks} outcomes are efficient",
    )


def test_criterion_11_cycle_certificate(sweep: SweepResults, replayed):
    assert sweep.failures == []
    assert sweep.cycle_free_efficient > 0 and sweep.cycle_seen > 0
    assert replayed["improvable-pairs-cycle"]
    note(
        "criterion-11",
        f"{sweep.cycle_free_efficient} cycle-free assignments all efficient; "
        "reference table yields a generalized cycle from an acyclic pair relation",
    )


# -- criterion 12: rediscovering the conditional-table manipulation ---------------


def test_criterion_12_cpt_manipulation_search():
    start = time.monotonic()
    hits = manipulation.search_cpt_manipulations(max_hits=1, seed=2, time_budget=85)
    pattern_hits = manipulation.search_cpt_manipulations(
        max_hits=1,
        require_pattern=manipulation.KNOWN_SHARE_PATTERN,
        seed=2,
        time_budget=85,
    )
    elapsed = time.monotonic() - start
    assert elapsed <= 180, f"search took {elapsed:.0f}s"
    assert hits, "no profitable conditional-table misreport found"
    hit = hits[0]
    verdict = sd_compare(
        hit.instance.orders[0], hit.manipulated_row, hit.truthful_row
    )
    assert verdict.p_dominates_q and hit.manipulated_row != hit.truthful_row
    assert pattern_hits, "share pattern (1/3,1/3,1/3) vs (1/3,1/3,2/9,1/9) not found"
    best = pattern_hits[0]
    assert best.truthful_shares == (F(1, 3), F(1, 3), F(1, 3))
    assert best.manipulated_shares == (F(1, 3), F(1, 3), F(2, 9), F(1, 9))
    note(
        "criterion-12",
        f"strict manipulation and the documented share pattern found in {elapsed:.1f}s",
    )


# -- criterion 13: runtime sanity ---------------------------------------------------


def test_criterion_13_runtime_growth():
    rng = random.Random(SWEEP_SEED + 13)
    timings = {}
    for p in (1, 2):
        for n in range(2, 7):
            inst = spaces.random_profile(rng, n, p, "cpnet")
            start = time.perf_counter()
            mps(inst)
            mgd(inst)
            mrp(inst, MrpMonteCarlo(1))
            elapsed = time.perf_counter() - start
            timings[(n, p)] = elapsed
            assert elapsed < 1.0, f"mechanisms at n={n}, p={p} took {elapsed:.2f}s"
    series = ", ".join(f"n={n},p={p}: {t * 1000:.0f}ms" for (n, p), t in sorted(timings.items()))
    note("criterion-13", series)
