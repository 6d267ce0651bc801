"""Recorded CLI output: each mechanism's run, the MGD lottery, the
mechanism-level checks, the assignment-level checks of each mechanism's
output, the comparison of the MPS and MRP outputs, replay-paper, and
runs under tie-breaks read from files and from an instance document must
keep printing the same bytes with the same exit codes.

The recordings are in ``golden_cli.json``.  After an intended output
change, re-record them with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io as stdio
import json
import random
import sys
import tempfile
from pathlib import Path

from mtra import fixtures, io, spaces
from mtra.cli import main
from mtra.mechanisms import reruns

GOLDEN = Path(__file__).with_name("golden_cli.json")
FIXTURE_INSTANCES = (
    "mixed_pair",
    "partial_twins",
    "dependent_pair",
    "blank_vs_chain",
    "three_chains",
    "opposed_trio",
    "solo",
    "chain_twins",
)
# seeded CP-net profiles, so the CP-net transforms meet more than (2,2)
RANDOM_CPNET = ((2, 2, 1), (2, 2, 2), (3, 1, 3), (3, 2, 4))
PROPERTIES = "upper-invariance,sd-strategyproofness,weak-sd-strategyproofness"
LOTTERY_PROPERTIES = "ex-post-efficiency,decomposability"
ASSIGNMENT_PROPERTIES = (
    "sd-efficiency,sd-envy-freeness,weak-sd-envy-freeness,equal-treatment-of-equals,ordinal-fairness"
)


def _instances():
    for name in FIXTURE_INSTANCES:
        yield name, getattr(fixtures, name)()
    for n, p, seed in RANDOM_CPNET:
        yield f"cpnet-{n}x{p}-s{seed}", spaces.random_profile(random.Random(seed), n, p, "cpnet")


def write_inputs(directory: Path) -> list[list[str]]:
    """Write the instance and assignment files; return the commands, whose
    file arguments are names relative to ``directory``."""
    commands = []
    for name, inst in _instances():
        (directory / f"{name}.json").write_text(io.serialize_instance(inst))
        commands.append(["run", f"{name}.json", "--mechanism", "mrp", "--mode", "exact", "--seed", "0"])
        for mech in ("mrp", "mps", "mgd"):
            out = f"{name}-{mech}.json"
            (directory / out).write_text(io.serialize_assignment(inst, reruns(mech, inst).truth))
            for misreports in ("linear", "cpnet", "independent", "sampled:6"):
                commands.append(
                    ["check", f"{name}.json", out, "--property", PROPERTIES,
                     "--mechanism", mech, "--misreports", misreports, "--seed", "0"]
                )
            commands.append(["check", f"{name}.json", out, "--property", LOTTERY_PROPERTIES])
        for mech in ("mps", "mgd"):
            commands.append(["run", f"{name}.json", "--mechanism", mech, "--seed", "0"])
        commands.append(["run", f"{name}.json", "--mechanism", "mrp", "--mode", "mc:8", "--seed", "3"])
        commands.append(["run", f"{name}.json", "--mechanism", "mrp", "--mode", "sample", "--seed", "0"])
        commands.append(["decompose", f"{name}.json"])
        commands.append(["compare", f"{name}.json", f"{name}-mps.json", f"{name}-mrp.json"])
        for mech in ("mrp", "mps", "mgd"):
            commands.append(["check", f"{name}.json", f"{name}-{mech}.json", "--property", ASSIGNMENT_PROPERTIES])
    commands.append(["replay-paper"])
    # tie-breaks from a file shared by all agents, from a file with one
    # list per agent, and from an instance document that carries them
    inst = fixtures.partial_twins()
    shared = ["2F1B", "2F2B", "1F1B", "1F2B"]
    per_agent = [["2F2B", "2F1B", "1F1B", "1F2B"], ["1F1B", "2F1B", "2F2B", "1F2B"]]
    (directory / "tiebreak-shared.json").write_text(json.dumps(shared))
    (directory / "tiebreak-per-agent.json").write_text(json.dumps(per_agent))
    own = [[inst.bundle_by_name[x] for x in ranking] for ranking in reversed(per_agent)]
    (directory / "partial_twins-tiebreak.json").write_text(io.serialize_instance(inst, own))
    commands += [
        ["run", "partial_twins.json", "--mechanism", "mps", "--tiebreak", "tiebreak-shared.json"],
        ["run", "partial_twins.json", "--mechanism", "mgd", "--tiebreak", "tiebreak-per-agent.json"],
        ["run", "partial_twins-tiebreak.json", "--mechanism", "mps"],
        ["run", "partial_twins-tiebreak.json", "--mechanism", "mps", "--tiebreak", "default"],
        ["decompose", "partial_twins.json", "--tiebreak", "tiebreak-per-agent.json"],
        ["check", "partial_twins-tiebreak.json", "partial_twins-mps.json",
         "--property", "sd-strategyproofness", "--mechanism", "mps"],
    ]
    return commands


def run(directory: Path, argv: list[str]) -> dict:
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
        code = main([str(directory / a) if a.endswith(".json") else a for a in argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_cli_output_matches_recording(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    commands = write_inputs(tmp_path)
    assert [r["argv"] for r in recorded] == commands
    for want in recorded:
        assert run(tmp_path, want["argv"]) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        records = [run(directory, argv) for argv in write_inputs(directory)]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} commands", file=sys.stderr)
