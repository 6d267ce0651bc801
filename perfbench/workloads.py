"""The benchmark's workloads: seeded op rounds, op bodies, output checks.

A run executes whole rounds.  Round ``r`` of a workload is generated
from ``random.Random(f"{workload}:{seed}:{r}")`` alone, so the op kinds
and sizes of a round never depend on the seed and the inputs always do.
Every op is checked after it is timed: witnesses are re-verified with
public functions, the facts the acceptance suite proves are asserted,
and at the default seed each op's digest is compared with the recorded
one.  Import this module only after ``mtra`` is importable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from mtra import axioms as A
from mtra import cli
from mtra import io as mio
from mtra import manipulation
from mtra import mechanisms as M
from mtra import model
from mtra import preferences as prefs
from mtra import spaces as S

WORKLOADS = ("audit", "truthfulness", "cli")
DEFAULT_SEED = 0
KINDS = ("general", "cpnet", "independent")

# Nominal wall seconds per round, op checks included.  A run of
# ``seconds`` executes round(seconds / ROUND_SECONDS) rounds, fixed work:
# on the 2-vCPU machine the benchmark was tuned on, --seconds 30 takes
# 25-40 s a workload, and a faster program does the same work sooner.
ROUND_SECONDS = {"audit": 8.0, "truthfulness": 15.0, "cli": 5.0}
MIN_OPS = 100  # p90 needs at least ten samples beyond it


def rounds_for(workload: str, seconds: float, ops_per_round: int) -> int:
    return max(math.ceil(MIN_OPS / ops_per_round), round(seconds / ROUND_SECONDS[workload]))


@dataclass
class Op:
    op_id: str
    kind: str
    n: int
    p: int
    args: dict = field(default_factory=dict)


class CheckFailed(Exception):
    """An op's output failed its check."""


def need(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def _matrix(P) -> tuple:
    return tuple(tuple(mio.frac_str(v) for v in row) for row in P.rows)


def _lottery(lottery) -> tuple:
    return tuple((mio.frac_str(prob), disc.bundles) for prob, disc in lottery.entries)


def order_of(preference) -> prefs.PartialOrder:
    if isinstance(preference, prefs.PartialOrder):
        return preference
    return prefs.induce_order(preference)


def warmup_instance(instance: model.Instance) -> model.Instance:
    """Same preferences under other type and item names.

    Caches keyed by instance never match a timed op's instance, so the
    warm-up cannot make a timed op free.
    """
    types = tuple(
        model.TypeDef("W" + t.name, tuple("w" + item for item in t.items)) for t in instance.types
    )
    return model.Instance(types, instance.preferences)


# -- witness checks shared by the workloads ---------------------------------


def check_envy_witness(instance, P, report, strength) -> None:
    if report.passed:
        return
    j, k = report.witness.agent, report.witness.other
    order = instance.orders[j]
    if strength == "strong":
        need(not A.sd_compare(order, P.row(j), P.row(k)).p_dominates_q, "strong envy witness")
    else:
        verdict = A.sd_compare(order, P.row(k), P.row(j))
        need(verdict.p_dominates_q and P.row(j) != P.row(k), "weak envy witness")


def check_ete_witness(instance, P, report) -> None:
    if report.passed:
        return
    j, k = report.witness.agent, report.witness.other
    need(instance.orders[j] == instance.orders[k] and P.row(j) != P.row(k), "ETE witness")


def check_ordinal_witness(instance, P, report) -> None:
    if report.passed:
        return
    w = report.witness
    mine = A.ucs_sums(instance.orders[w.agent], P.row(w.agent))[w.bundle]
    theirs = A.ucs_sums(instance.orders[w.other], P.row(w.other))[w.bundle]
    need(P.entry(w.agent, w.bundle) > 0 and mine > theirs, "ordinal fairness witness")


def check_efficiency_witness(instance, P, report) -> None:
    if report.passed:
        return
    Q = report.witness
    need(model.validate_assignment(Q, instance) is None and Q != P, "dominating assignment is valid")
    for j in range(instance.n):
        need(A.sd_compare(instance.orders[j], Q.row(j), P.row(j)).p_dominates_q, "dominating assignment dominates")


def check_cycle(instance, P, cycle, efficient: bool) -> None:
    if cycle is None:
        need(efficient, "cycle-free assignment is sd-efficient")
        return
    need(len(cycle) > 0, "generalized cycle is nonempty")
    right = {o for _, worse in cycle for o in instance.bundle_items[worse]}
    for better, worse in cycle:
        need(
            any(
                P.entry(j, worse) > 0 and instance.orders[j].prefers(better, worse)
                for j in range(instance.n)
            ),
            "cycle pair is improvable",
        )
        need(all(o in right for o in instance.bundle_items[better]), "cycle is closed")


def check_lottery_report(instance, P, report, efficient_outcome) -> None:
    if report.passed:
        lottery = report.witness
        need(lottery.expectation(instance) == P, f"{report.prop} lottery expectation")
        if efficient_outcome is not None:
            for _, disc in lottery.entries:
                need(efficient_outcome(disc), f"{report.prop} lottery outcome is sd-efficient")
        return
    columns = model.all_discrete_assignments(instance)
    if efficient_outcome is not None:
        columns = [disc for disc in columns if efficient_outcome(disc)]
    cert = report.witness.certificate
    n, m = instance.n, instance.m
    need(len(cert) == n * m + 1, "Farkas certificate length")
    for disc in columns:
        need(sum(cert[j * m + disc.bundles[j]] for j in range(n)) + cert[-1] <= 0, "Farkas column sign")
    total = sum(cert[j * m + x] * P.entry(j, x) for j in range(n) for x in range(m)) + cert[-1]
    need(total > 0, "Farkas certificate separates")


def run_mechanism(name, instance, tiebreak):
    if name == "mrp":
        return M.mrp(instance, M.MrpExact(), tiebreak).assignment
    if name == "mps":
        return M.mps(instance, tiebreak)[0]
    return M.mgd(instance, tiebreak)


def outcome_efficiency(instance):
    memo: dict = {}

    def efficient(disc) -> bool:
        if disc.bundles not in memo:
            memo[disc.bundles] = A.check_sd_efficiency(instance, model.from_discrete(instance, disc)).passed
        return memo[disc.bundles]

    return efficient


# -- audit --------------------------------------------------------------------

# The sweep's sizes plus larger ones.  The counts place the median inside
# the (3,1) block and the 90th percentile inside the (3,2) block, so
# neither statistic sits on the edge between two sizes of unlike cost.
AUDIT_SIZES = (
    ((2, 1),) * 7 + ((2, 2),) * 7 + ((3, 1),) * 18 + ((4, 1),) * 4 + ((5, 1),) * 6
    + ((3, 2),) * 6 + ((4, 2), (3, 3))
)


def audit_round(seed: int, r: int, rng=None) -> list[Op]:
    rng = rng or random.Random(f"audit:{seed}:{r}")
    ops = []
    for i, (n, p) in enumerate(AUDIT_SIZES):
        instance = S.random_profile(rng, n, p, KINDS[(i + r) % 3])
        tiebreak = S.sweep_tiebreaks(instance.m)[(i + r) % 2]
        ops.append(Op(f"r{r}.{i}", "audit", n, p, {"instance": instance, "tiebreak": tiebreak}))
    return ops


def audit_run(op: Op):
    inst, tb = op.args["instance"], op.args["tiebreak"]
    outputs = {
        "mps": M.mps(inst, tb)[0],
        "mgd": M.mgd(inst, tb),
        "mrp": M.mrp(inst, M.MrpExact(), tb).assignment,
    }
    reports = {}
    for label, P in outputs.items():
        reports[label] = {
            "se": A.check_sd_efficiency(inst, P),
            "envy": A.check_envy(inst, P, "strong"),
            "weak": A.check_envy(inst, P, "weak"),
            "ete": A.check_ete(inst, P),
            "of": A.check_ordinal_fairness(inst, P),
            "cycle": A.find_generalized_cycle(inst, P),
        }
    if inst.n <= A.DECOMPOSITION_AGENT_LIMIT and inst.p <= A.DECOMPOSITION_TYPE_LIMIT:
        reports["mgd"]["dec"] = A.check_decomposability(inst, outputs["mgd"])
        reports["mps"]["dec"] = A.check_decomposability(inst, outputs["mps"])
    if math.factorial(inst.n) ** inst.p <= 36:
        reports["mrp"]["xp"] = A.check_ex_post_efficiency(inst, outputs["mrp"])
    lottery = M.mgd_decompose(inst, tb)
    outcome_se = tuple(
        A.check_sd_efficiency(inst, model.from_discrete(inst, disc)).passed for _, disc in lottery.entries
    )
    return outputs, reports, lottery, outcome_se


def audit_check(op: Op, result) -> str:
    inst = op.args["instance"]
    outputs, reports, lottery, outcome_se = result
    efficient = outcome_efficiency(inst)
    for label, P in outputs.items():
        need(model.validate_assignment(P, inst) is None, f"{label} output is a valid assignment")
        rep = reports[label]
        check_efficiency_witness(inst, P, rep["se"])
        check_envy_witness(inst, P, rep["envy"], "strong")
        check_envy_witness(inst, P, rep["weak"], "weak")
        check_ete_witness(inst, P, rep["ete"])
        check_ordinal_witness(inst, P, rep["of"])
        check_cycle(inst, P, rep["cycle"], rep["se"].passed)
        if "dec" in rep:
            check_lottery_report(inst, P, rep["dec"], None)
        if "xp" in rep:
            check_lottery_report(inst, P, rep["xp"], efficient)
    # the facts of the acceptance sweep
    mps_r, mgd_r, mrp_r = reports["mps"], reports["mgd"], reports["mrp"]
    need(mps_r["se"].passed and mps_r["weak"].passed and mps_r["ete"].passed, "mps is sd-efficient, weak-envy-free, ETE")
    if inst.is_cp_profile:
        need(mps_r["envy"].passed and mps_r["of"].passed, "mps is envy-free and ordinally fair on CP-nets")
    need(mgd_r["se"].passed and mgd_r["ete"].passed, "mgd is sd-efficient and ETE")
    need("dec" not in mgd_r or mgd_r["dec"].passed, "mgd is decomposable")
    need(mrp_r["weak"].passed and mrp_r["ete"].passed, "mrp is weak-envy-free and ETE")
    need("xp" not in mrp_r or mrp_r["xp"].passed, "mrp is ex-post efficient")
    need(lottery.expectation(inst) == outputs["mgd"], "mgd lottery expectation")
    need(all(outcome_se), "mgd lottery outcomes are sd-efficient")
    return _digest(
        (
            {label: _matrix(P) for label, P in outputs.items()},
            {
                label: {
                    key: (value is None) if key == "cycle" else value.passed
                    for key, value in sorted(rep.items())
                }
                for label, rep in reports.items()
            },
            _lottery(lottery),
            outcome_se,
        )
    )


# -- truthfulness ---------------------------------------------------------------

CPT_PROFILES = 10
SP_MECHANISMS = (("mrp", "sd"), ("mps", "weak"), ("mgd", "weak"))


def truthfulness_round(seed: int, r: int, rng=None) -> list[Op]:
    """92 ops.  The seven slowest (the (3,2) CP-net strategyproofness
    checks, the (3,2) invariance checks and the search slices) are under
    a tenth of them, and the six (3,2) independent checks below them
    hold the 90th percentile."""
    rng = rng or random.Random(f"truthfulness:{seed}:{r}")
    ops: list[Op] = []

    def add(kind, n, p, **args):
        ops.append(Op(f"r{r}.{len(ops)}", kind, n, p, args))

    for n, p, copies in ((2, 2, 5), (3, 1, 5), (3, 2, 1)):
        for _ in range(copies):
            cp = S.random_profile(rng, n, p, "cpnet")
            for mech, strength in SP_MECHANISMS:
                add(f"sp-cpnet-{mech}", n, p, instance=cp, mechanism=mech, strength=strength)
    for n, p, copies in ((2, 2, 5), (3, 1, 5), (3, 2, 6)):
        for _ in range(copies):
            add("sp-independent-mps", n, p, instance=S.random_profile(rng, n, p, "independent"),
                mechanism="mps", strength="weak")
    for n, p, copies in ((2, 2, 5), (3, 1, 5), (3, 2, 3)):
        for _ in range(copies):
            add("sp-general-mrp", n, p, instance=S.random_profile(rng, n, p, "general"),
                mechanism="mrp", strength="weak", sample_seed=rng.randrange(1 << 30))
    for n, p, copies in ((2, 2, 4), (3, 1, 4), (3, 2, 1)):
        for _ in range(copies):
            cp = S.random_profile(rng, n, p, "cpnet")
            for mech in ("mrp", "mps"):
                add(f"ui-cpnet-{mech}", n, p, instance=cp, mechanism=mech)
    for n, p, copies in ((2, 2, 4), (3, 1, 4), (3, 2, 2)):
        for _ in range(copies):
            add("ui-deletion-mps", n, p, instance=S.random_profile(rng, n, p, "general"), mechanism="mps")
    for _ in range(2):
        add("cpt-search", 3, 2, search_seed=rng.randrange(1 << 30), profiles=CPT_PROFILES)
    return ops


def _misreports(op: Op):
    if op.kind.startswith("sp-cpnet"):
        return S.CpNetMisreports("all")
    if op.kind == "sp-independent-mps":
        return S.IndependentCpNetMisreports()
    if op.args["instance"].m <= 4:
        return S.LinearOrderMisreports()
    return S.SampledLinearOrderMisreports(8, op.args["sample_seed"])


def truthfulness_run(op: Op):
    if op.kind == "cpt-search":
        return manipulation.search_cpt_manipulations(
            max_hits=1 << 30, seed=op.args["search_seed"], time_budget=None, max_profiles=op.args["profiles"]
        )
    inst, mech = op.args["instance"], op.args["mechanism"]
    if op.kind.startswith("sp-"):
        return A.check_strategyproofness(mech, inst, _misreports(op), op.args["strength"], tiebreaks=[None])
    source = S.CpNetTransforms() if op.kind.startswith("ui-cpnet") else S.DeletionTransforms()
    return A.check_upper_invariance(mech, inst, source, tiebreaks=[None])


# Checker results the acceptance suite proves for these inputs.
TRUTHFUL_KINDS = {"sp-cpnet-mrp", "sp-independent-mps", "sp-general-mrp", "ui-cpnet-mrp", "ui-cpnet-mps"}


def truthfulness_check(op: Op, result) -> str:
    if op.kind == "cpt-search":
        for hit in result:
            truth = M.mps(hit.instance)[0].row(hit.agent)
            lied = M.mps(hit.instance.with_preference(hit.agent, hit.misreport))[0].row(hit.agent)
            need(truth == hit.truthful_row and lied == hit.manipulated_row, "CPT hit reproduces")
            verdict = A.sd_compare(hit.instance.orders[hit.agent], lied, truth)
            need(verdict.p_dominates_q and lied != truth, "CPT hit is a strict manipulation")
        return _digest(len(result))
    if op.kind in TRUTHFUL_KINDS:
        need(result.passed, f"{op.kind} holds")
    if not result.passed:
        inst, mech, w = op.args["instance"], op.args["mechanism"], result.witness
        truth = run_mechanism(mech, inst, w.tiebreak)
        lied = run_mechanism(mech, inst.with_preference(w.agent, w.misreport), w.tiebreak)
        need(truth == w.truthful and lied == w.manipulated, "witness reproduces")
        old, new = inst.orders[w.agent], order_of(w.misreport)
        if op.kind.startswith("sp-"):
            need(new != old, "misreport differs from the truth")
            if op.args["strength"] == "sd":
                ok = not A.sd_compare(old, truth.row(w.agent), lied.row(w.agent)).p_dominates_q
            else:
                ok = A.sd_compare(old, lied.row(w.agent), truth.row(w.agent)).p_dominates_q
                ok = ok and lied.row(w.agent) != truth.row(w.agent)
            need(ok, "manipulation witness")
        else:
            need(prefs.is_uit(old, new, w.pivot, truth.row(w.agent))[0], "transformation is upper invariant")
            need(
                any(lied.entry(k, w.pivot) != truth.entry(k, w.pivot) for k in range(inst.n)),
                "pivot column changes",
            )
    return _digest(result.passed)


# -- cli ------------------------------------------------------------------------

# 54 ops a round.  The four slowest kinds (fairness checks at (5,3) and
# (7,2), check-all at (3,2), exact mrp at (7,2)) are under a tenth of
# them, so the 90th percentile falls among the similar (4,3)/(6,2)
# fairness checks and the (5,3) compare below them.
CLI_RUN_SIZES = ((5, 2), (6, 2), (7, 2), (4, 3), (5, 3))
CLI_CHECK_ALL_SIZES = ((2, 1),) * 3 + ((3, 1),) * 3 + ((2, 2),) * 3 + ((3, 2),)
CLI_DECOMPOSE_SIZES = ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)) * 2
CLI_REPLAYS = 2
MC_SAMPLES = 200
FAIRNESS = "sd-envy-freeness,weak-sd-envy-freeness,equal-treatment-of-equals,ordinal-fairness"
VERDICT = re.compile(r"^(PASS|FAIL) (\S+)")


def cli_round(seed: int, r: int, work: Path, rng=None, warmup=False) -> list[Op]:
    """Writes the round's input files into ``work`` and returns its ops.

    The warm-up round has one op of each kind at the smallest size, on
    renamed types."""
    rng = rng or random.Random(f"cli:{seed}:{r}")
    run_sizes, check_all_sizes, decompose_sizes, replays = (
        (CLI_RUN_SIZES[:1], CLI_CHECK_ALL_SIZES[:1], CLI_DECOMPOSE_SIZES[:1], 1)
        if warmup
        else (CLI_RUN_SIZES, CLI_CHECK_ALL_SIZES, CLI_DECOMPOSE_SIZES, CLI_REPLAYS)
    )
    ops: list[Op] = []

    def add(kind, n, p, argv, **args):
        ops.append(Op(f"r{r}.{len(ops)}", kind, n, p, dict(args, argv=argv)))

    def write(name, text) -> str:
        path = work / f"r{r}-{name}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def instance(i, n, p):
        inst = S.random_profile(rng, n, p, KINDS[(i + r) % 3])
        if warmup:
            inst = warmup_instance(inst)
        return inst, write(f"{n}x{p}-{i}", mio.serialize_instance(inst))

    for i, (n, p) in enumerate(run_sizes):
        inst, path = instance(i, n, p)
        eat, share = M.mps(inst)[0], M.mgd(inst)
        a = write(f"{n}x{p}-{i}-mps", mio.serialize_assignment(inst, eat, {"mechanism": "mps"}))
        b = write(f"{n}x{p}-{i}-mgd", mio.serialize_assignment(inst, share, {"mechanism": "mgd"}))
        seed_flag = str(rng.randrange(1 << 30))
        for mech in ("mps", "mgd"):
            add(f"run-{mech}", n, p, ["run", path, "--mechanism", mech, "--seed", seed_flag], instance=inst)
        add("run-mrp-exact", n, p, ["run", path, "--mechanism", "mrp", "--mode", "exact", "--seed", seed_flag],
            instance=inst)
        add("run-mrp-mc", n, p,
            ["run", path, "--mechanism", "mrp", "--mode", f"mc:{MC_SAMPLES}", "--seed", seed_flag],
            instance=inst, seed=int(seed_flag))
        add("check-fairness", n, p, ["check", path, a, "--property", FAIRNESS, "--seed", seed_flag],
            instance=inst, assignment=eat)
        add("compare", n, p, ["compare", path, a, b], instance=inst, first=eat, second=share)
    for i, (n, p) in enumerate(check_all_sizes, start=len(run_sizes)):
        inst, path = instance(i, n, p)
        share = M.mgd(inst)
        b = write(f"{n}x{p}-{i}-mgd", mio.serialize_assignment(inst, share, {"mechanism": "mgd"}))
        add("check-all", n, p, ["check", path, b, "--property", "all", "--seed", str(rng.randrange(1 << 30))],
            instance=inst, assignment=share)
    for i, (n, p) in enumerate(decompose_sizes, start=len(run_sizes) + len(check_all_sizes)):
        inst, path = instance(i, n, p)
        add("decompose", n, p, ["decompose", path], instance=inst)
    for _ in range(replays):
        add("replay-paper", 0, 0, ["replay-paper"])
    return ops


def cli_run(op: Op):
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.args["argv"])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _verdicts(stdout: str) -> list[tuple[str, str]]:
    return [m.groups() for m in map(VERDICT.match, stdout.splitlines()) if m]


def _report_witnesses(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("report-json: "):
            return {r["property"]: r.get("witness") for r in json.loads(line[len("report-json: "):])}
    raise CheckFailed("check printed no report-json line")


def _witness_report(prop, witness):
    """Rebuild a report from its JSON witness; None if the shape is unknown."""
    if not isinstance(witness, dict):
        return None
    try:
        if prop == "ordinal-fairness":
            w = A.OrdinalFairnessWitness(int(witness["bundle"]), int(witness["agent"]), int(witness["other"]))
        else:
            w = A.EnvyWitness(int(witness["agent"]), int(witness["other"]))
    except (KeyError, TypeError, ValueError):
        return None
    return A.PropertyReport(prop, False, witness=w)


def _library_report(prop, inst, P):
    return {
        "sd-envy-freeness": lambda: A.check_envy(inst, P, "strong"),
        "weak-sd-envy-freeness": lambda: A.check_envy(inst, P, "weak"),
        "equal-treatment-of-equals": lambda: A.check_ete(inst, P),
        "ordinal-fairness": lambda: A.check_ordinal_fairness(inst, P),
        "sd-efficiency": lambda: A.check_sd_efficiency(inst, P),
        "ex-post-efficiency": lambda: A.check_ex_post_efficiency(inst, P),
        "decomposability": lambda: A.check_decomposability(inst, P),
    }[prop]()


def _check_verdicts(op: Op, code: int, stdout: str) -> list[tuple[str, str]]:
    inst, P = op.args["instance"], op.args["assignment"]
    verdicts = _verdicts(stdout)
    need(len(verdicts) > 0, "check printed verdicts")
    need(code == (0 if all(v == "PASS" for v, _ in verdicts) else 1), "check exit code matches its verdicts")
    passed = {prop: v == "PASS" for v, prop in verdicts}
    witnesses = _report_witnesses(stdout)
    for prop, ok in passed.items():
        if ok:
            continue
        report = _witness_report(prop, witnesses.get(prop)) if prop in FAIRNESS.split(",") else None
        if report is None:
            report = _library_report(prop, inst, P)
            need(not report.passed, f"{prop} verdict agrees with the library")
        if prop == "sd-envy-freeness":
            check_envy_witness(inst, P, report, "strong")
        elif prop == "weak-sd-envy-freeness":
            check_envy_witness(inst, P, report, "weak")
        elif prop == "equal-treatment-of-equals":
            check_ete_witness(inst, P, report)
        elif prop == "ordinal-fairness":
            check_ordinal_witness(inst, P, report)
        elif prop == "sd-efficiency":
            check_efficiency_witness(inst, P, report)
        else:
            check_lottery_report(inst, P, report, outcome_efficiency(inst) if prop == "ex-post-efficiency" else None)
    if op.kind == "check-fairness":
        need(passed["weak-sd-envy-freeness"] and passed["equal-treatment-of-equals"], "mps is weak-envy-free and ETE")
        if inst.is_cp_profile:
            need(passed["sd-envy-freeness"] and passed["ordinal-fairness"], "mps is envy-free and ordinally fair on CP-nets")
    else:
        for prop in ("sd-efficiency", "ex-post-efficiency", "decomposability", "equal-treatment-of-equals"):
            need(passed[prop], f"mgd output passes {prop}")
        for prop in ("ex-post-efficiency", "decomposability"):
            witness = witnesses.get(prop)
            try:
                lottery = model.Lottery(
                    tuple((mio.parse_frac(prob), model.DiscreteAssignment(tuple(d["bundles"])))
                          for prob, d in witness["entries"])
                )
            except (KeyError, TypeError, ValueError):
                lottery = _library_report(prop, inst, P).witness
            report = A.PropertyReport(prop, True, witness=lottery)
            check_lottery_report(inst, P, report, outcome_efficiency(inst) if prop == "ex-post-efficiency" else None)
    return verdicts


def cli_check(op: Op, result) -> str:
    code, stdout, stderr = result
    kind = op.kind
    if kind.startswith("run-"):
        need(code == 0, f"run exits 0 ({stderr.strip()})")
        inst = op.args["instance"]
        got = mio.parse_assignment(stdout, inst)
        if kind == "run-mrp-mc":
            want = M.mrp(inst, M.MrpMonteCarlo(MC_SAMPLES, op.args["seed"])).assignment
        elif kind == "run-mrp-exact":
            want = M.mrp(inst, M.MrpExact()).assignment
        else:
            want = run_mechanism(kind[len("run-"):], inst, None)
        need(got == want, "run prints the mechanism's output")
        return _digest((code, stdout))
    if kind.startswith("check-"):
        return _digest((code, _check_verdicts(op, code, stdout)))
    if kind == "compare":
        need(code == 0, f"compare exits 0 ({stderr.strip()})")
        inst, a, b = op.args["instance"], op.args["first"], op.args["second"]
        lines = stdout.splitlines()
        need(len(lines) == inst.n, "compare prints one line per agent")
        for j, line in enumerate(lines):
            v = A.sd_compare(inst.orders[j], a.row(j), b.row(j))
            word = ("mutually" if v.p_dominates_q and v.q_dominates_p else "A sd B" if v.p_dominates_q
                    else "B sd A" if v.q_dominates_p else "incomparable")
            need(line.startswith(f"agent {j}: ") and word in line, "compare verdict agrees with sd_compare")
        return _digest((code, stdout))
    if kind == "decompose":
        need(code == 0, f"decompose exits 0 ({stderr.strip()})")
        inst = op.args["instance"]
        lottery = mio.parse_lottery(stdout, inst)
        need(lottery.expectation(inst) == M.mgd(inst), "decompose lottery realizes the mgd output")
        return _digest((code, stdout))
    need(code == 0 and not any(v == "FAIL" for v, _ in _verdicts(stdout)), "replay-paper reproduces every fixture")
    need(re.search(r"^\d+ fixtures reproduced$", stdout, re.M) is not None, "replay-paper summary line")
    return _digest((code, _verdicts(stdout)))


# -- dispatch -------------------------------------------------------------------


def make_round(workload: str, seed: int, r: int, work: Path) -> list[Op]:
    if workload == "audit":
        return audit_round(seed, r)
    if workload == "truthfulness":
        return truthfulness_round(seed, r)
    return cli_round(seed, r, work)


def warmup_ops(workload: str, seed: int, work: Path) -> list[Op]:
    """One op of every kind at its smallest size, on inputs disjoint from
    every timed op: another random stream and renamed types."""
    rng = random.Random(f"warmup:{workload}:{seed}")
    if workload == "cli":
        return cli_round(seed, -1, work, rng=rng, warmup=True)
    ops = (audit_round if workload == "audit" else truthfulness_round)(seed, -1, rng=rng)
    for op in ops:
        if "instance" in op.args:
            op.args["instance"] = warmup_instance(op.args["instance"])
        if op.kind == "cpt-search":
            op.args["profiles"] = 1
    smallest: dict[str, Op] = {}
    for op in ops:
        best = smallest.get(op.kind)
        if best is None or (op.n ** op.p, op.n) < (best.n ** best.p, best.n):
            smallest[op.kind] = op
    return list(smallest.values())


RUNNERS = {
    "audit": (audit_run, audit_check),
    "truthfulness": (truthfulness_run, truthfulness_check),
    "cli": (cli_run, cli_check),
}
