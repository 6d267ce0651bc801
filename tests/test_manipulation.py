from mtra import manipulation
from mtra.axioms import sd_compare
from mtra.mechanisms import mps


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
