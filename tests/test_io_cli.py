import itertools
import json
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mtra import cli, fixtures, io, model, spaces
from mtra import preferences as prefs
from mtra.cli import main
from mtra.errors import DimensionMismatch, DuplicateItemName, IncompleteCPT, ParseError, SoundnessError
from mtra.mechanisms import mgd, mps
from mtra.model import (
    FractionalAssignment,
    Instance,
    Lottery,
    TypeDef,
    all_discrete_assignments,
    from_discrete,
    validate_assignment,
)


def test_instance_round_trip_fixture(mixed_pair):
    text = io.serialize_instance(mixed_pair)
    parsed, tiebreak = io.parse_instance(text)
    assert parsed == mixed_pair and tiebreak is None


def test_instance_round_trip_random():
    rng = random.Random(14)
    for kind in ("general", "cpnet", "independent"):
        for _ in range(8):
            inst = spaces.random_profile(rng, rng.choice([2, 3]), rng.choice([1, 2]), kind)
            text = io.serialize_instance(inst)
            parsed, _ = io.parse_instance(text)
            assert parsed.types == inst.types
            assert parsed.orders == inst.orders
            if kind != "general":
                assert parsed.preferences == inst.preferences


def test_instance_tiebreak_round_trip(mixed_pair):
    tiebreak = [fixtures.sort_a(mixed_pair)] * mixed_pair.n
    text = io.serialize_instance(mixed_pair, tiebreak)
    parsed, got = io.parse_instance(text)
    assert got == tuple(map(tuple, tiebreak))


def test_instance_shared_tiebreak_round_trip():
    # one bundle sequence shared by every agent, as the mechanisms take
    # it, is written once per agent and reads back to equal outputs
    rng = random.Random(19)
    for kind in ("general", "cpnet", "independent"):
        inst = spaces.random_profile(rng, 3, 2, kind)
        shared = tuple(rng.sample(range(inst.m), inst.m))
        per_agent = [tuple(rng.sample(range(inst.m), inst.m)) for _ in range(inst.n)]
        for tiebreak in (shared, list(shared), per_agent):
            parsed, got = io.parse_instance(io.serialize_instance(inst, tiebreak))
            written = [shared] * inst.n if tiebreak is not per_agent else per_agent
            assert [tuple(tb) for tb in got] == written
            for mechanism in (lambda i, tb: mps(i, tb)[0], mgd):
                assert mechanism(parsed, got) == mechanism(inst, tiebreak)


@pytest.mark.parametrize(
    "tiebreak, message",
    [
        ((0, 1, 2), "tiebreak must rank every bundle exactly once"),
        ((0, 1, 2, 2), "tiebreak must rank every bundle exactly once"),
        ((), "tiebreak must rank every bundle exactly once"),
        ([(0, 1, 2, 3)], "tiebreak must list one bundle order per agent"),
        ([(0, 1, 2, 3), (0, 1, 2, 4)], "tiebreak must rank every bundle exactly once"),
        ([(0, 1, 2, 3), 5], "tiebreak must rank every bundle exactly once"),
    ],
    ids=["short", "repeated", "empty", "one-agent", "outside", "not-a-sequence"],
)
def test_serialize_instance_refuses_a_tiebreak_it_could_not_read_back(mixed_pair, tiebreak, message):
    with pytest.raises(DimensionMismatch) as caught:
        io.serialize_instance(mixed_pair, tiebreak)
    assert str(caught.value) == message


def _net_over(types, parents, rng):
    """An instance of two agents reporting one CP-net over ``types``, with
    the given parent lists and random tables."""
    sizes = tuple(len(t.items) for t in types)
    tables = []
    for i, ps in enumerate(parents):
        keys = itertools.product(*(range(sizes[q]) for q in ps))
        tables.append(tuple((key, tuple(rng.sample(range(sizes[i]), sizes[i]))) for key in keys))
    net = prefs.CPNet(sizes, parents, tuple(tables))
    return Instance(tuple(types), (net, net))


@pytest.mark.parametrize(
    "f_items, h_items, readings",
    [(("a", "ab"), ("c", "bc"), "a+bc or ab+c"), (("ab", "bc"), ("c", "a"), "ab+c or a+bc")],
    ids=["two-rows-one-key", "key-read-two-ways"],
)
def test_serialize_instance_refuses_a_cpt_key_it_could_not_read_back(f_items, h_items, readings):
    # I depends on F and H: (a, bc) and (ab, c) are both written "abc";
    # with F(ab, bc) and H(c, a), "abc" written for (ab, c) reads as a+bc too
    types = [TypeDef("F", f_items), TypeDef("G", ("x", "y")), TypeDef("H", h_items), TypeDef("I", ("1", "2"))]
    inst = _net_over(types, ((), (), (), (0, 2)), random.Random(0))
    with pytest.raises(DimensionMismatch) as caught:
        io.serialize_instance(inst)
    assert str(caught.value) == f"CPT of type 'I' would not read back: CPT key 'abc' is ambiguous: {readings}"


def test_cpnet_round_trip_over_short_item_names():
    # item names over {a, b}: a written key may read two ways, and then
    # the writer refuses the instance rather than write it
    rng = random.Random(45)
    outcomes = []
    while len(outcomes) < 300:
        p = rng.randint(2, 3)
        words = rng.sample(["".join(w) for k in (1, 2, 3) for w in itertools.product("ab", repeat=k)], 2 * p)
        types = [TypeDef(f"T{t}", tuple(words[2 * t : 2 * t + 2])) for t in range(p)]
        parents = tuple(tuple(sorted(rng.sample(range(t), rng.randint(0, t)))) for t in range(p))
        try:
            inst = _net_over(types, parents, rng)
        except DuplicateItemName:  # two bundles spelled alike
            continue
        try:
            text = io.serialize_instance(inst)
        except DimensionMismatch as exc:
            assert "would not read back: CPT key" in str(exc)
            outcomes.append("refused")
            continue
        parsed, _ = io.parse_instance(text)
        assert parsed.preferences == inst.preferences
        outcomes.append("read back")
    assert {"refused", "read back"} == set(outcomes)


def _dumped_assignment(instance, P, metadata):
    """The assignment document through `json.dumps`' indenting encoder."""
    doc = {
        "agents": instance.n,
        "bundles": list(instance.bundle_names),
        "matrix": [{name: io.frac_str(v) for name, v in zip(instance.bundle_names, row)} for row in P.rows],
        "metadata": dict(metadata or {}),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_assignment_writer_matches_the_json_encoder():
    # names that need escapes, and items listed against their sorted order
    odd = io.build_instance(
        {
            "agents": 3,
            "types": [
                {"name": "F", "items": ["z\"q", "b\\s", "a\nl"]},
                {"name": "B", "items": ["\u00e9", "\u2603", "A"]},
            ],
            "preferences": [{"kind": "partial", "edges": []}] * 3,
        }
    )
    assert list(odd.bundle_names) != sorted(odd.bundle_names)
    rng = random.Random(23)
    instances = [odd] + [
        spaces.random_profile(rng, n, p, kind)
        for n, p in ((2, 1), (3, 2), (4, 2), (5, 3))
        for kind in ("general", "cpnet", "independent")
    ]
    metadata = [
        None,
        {},
        {"mechanism": "mps", "seed": 7, "tiebreak": "canonical"},
        {"z": [1, {"b": None, "a": []}], "a": {"n\"\u00e9": {"x": True, "y": 1.5}}, "m": {}},
    ]
    for inst in instances:
        for P in (mps(inst)[0], mgd(inst)):
            for meta in metadata:
                assert io.serialize_assignment(inst, P, meta) == _dumped_assignment(inst, P, meta)
    # no rows at all, an empty list to the encoder
    empty = FractionalAssignment(())
    assert io.serialize_assignment(odd, empty) == _dumped_assignment(odd, empty, None)


def test_assignment_round_trip(mixed_pair):
    text = io.serialize_assignment(mixed_pair, fixtures.assignment_1(), {"mechanism": "mps"})
    parsed = io.parse_assignment(text, mixed_pair)
    assert parsed == fixtures.assignment_1()


def test_assignment_rejects_invalid(mixed_pair):
    bad = FractionalAssignment.from_rows([[1, 0, 0, 0], [1, 0, 0, 0]])
    text = io.serialize_assignment(mixed_pair, bad)
    from mtra.errors import ParseError

    with pytest.raises(ParseError):
        io.parse_assignment(text, mixed_pair)


def _matrix(*rows):
    return json.dumps({"matrix": list(rows)})


@pytest.mark.parametrize(
    "fixture, text, message",
    [
        # a share that is not a string is a JSON number, read exactly as
        # its literal spells it, or refused as it prints
        ("blank_vs_chain", '{"matrix": [{"1F": 0.30000000000000001, "2F": 0.69999999999999999}, '
         '{"1F": 0.7, "2F": 0.3}]}', "assignment violates item-marginal at 1F: 100000000000000001/100000000000000000"),
        ("blank_vs_chain", '{"matrix": [{"1F": 1e-400, "2F": 1}, {"1F": 1, "2F": 0}]}',
         f"assignment violates row-sum at agent 0: {1 + Fraction(1, 10**400)}"),
        ("blank_vs_chain", '{"matrix": [{"1F": 1e9999, "2F": 0}, {"1F": 0, "2F": 1}]}', "bad rational '1e9999'"),
        ("blank_vs_chain", _matrix({"1F": None, "2F": "1"}, {"1F": "1", "2F": "0"}), "bad rational None"),
        ("blank_vs_chain", _matrix({"1F": True, "2F": "0"}, {"1F": "0", "2F": "1"}), "bad rational True"),
        ("blank_vs_chain", _matrix({"1F": [1], "2F": 0}, {"1F": 0, "2F": 1}), "bad rational [1]"),
        # true is not read as the 1 before it, which it equals
        ("blank_vs_chain", _matrix({"1F": 1, "2F": True}, {"1F": "1", "2F": 0}), "bad rational True"),
        # errors come in the document's order, a share before its own bundle name
        ("blank_vs_chain", _matrix({"2F": "x", "1F": "y"}, {"1F": "0", "2F": "1"}), "bad rational 'x'"),
        ("blank_vs_chain", _matrix({"1F": "x", "ZZ": "1"}, {"1F": "0", "2F": "1"}), "bad rational 'x'"),
        ("blank_vs_chain", _matrix({"ZZ": "x"}, {"1F": "0", "2F": "1"}), "bad rational 'x'"),
        ("blank_vs_chain", _matrix({"ZZ": "1", "1F": "x"}, {"1F": "0", "2F": "1"}), "unknown bundle name 'ZZ'"),
        ("blank_vs_chain", _matrix({"1F": "1", "2F": "0"}, {"1F": "x", "ZZ": "1"}), "bad rational 'x'"),
        ("blank_vs_chain", _matrix({"ZZ": "1"}, {"1F": "x", "2F": "1"}), "unknown bundle name 'ZZ'"),
        ("blank_vs_chain", _matrix({"1F": "0/0", "2F": "1"}, {"1F": "1", "2F": "0"}), "bad rational '0/0'"),
        # then the common denominator, then the first broken constraint
        ("blank_vs_chain", _matrix({"1F": f"1/{10**2999 + 1}", "2F": "x/1"}, {"ZZ": "1"}), "bad rational 'x/1'"),
        ("blank_vs_chain", _matrix({"1F": f"1/{10**2999 + 1}", "2F": "3/2"}, {"1F": f"1/{10**2999 + 3}"}),
         "the shares' common denominator has more than 4300 digits"),
        ("blank_vs_chain", _matrix({"1F": "3/2", "2F": "-1/2"}, {"1F": "-1/2", "2F": "3/2"}),
         "assignment violates entry-range at agent 0 bundle 1F: 3/2"),
        ("blank_vs_chain", _matrix({"1F": "1/2", "2F": "1/3"}, {"1F": "1/2", "2F": "2/3"}),
         "assignment violates row-sum at agent 0: 5/6"),
        # a sum past the digit limit is shown by its size
        ("blank_vs_chain", _matrix({"1F": f"{10**4300 - 2}/{10**4300 - 1}", "2F": f"{10**4300 - 2}/{10**4300 - 1}"},
                                   {"1F": "0", "2F": "1"}),
         "assignment violates row-sum at agent 0: a 14286-bit numerator over a 14285-bit denominator"),
        ("mixed_pair", _matrix({"1F1B": "1/2", "2F2B": "1/2"}, {"1F1B": "1/2", "1F2B": "1/2"}),
         "assignment violates item-marginal at 1F: 3/2"),
        ("mixed_pair", _matrix({"1F1B": "1"}, {"1F1B": "1"}), "assignment violates item-marginal at 1F: 2"),
    ],
)
def test_assignment_parse_errors_keep_their_text_and_order(request, fixture, text, message):
    with pytest.raises(ParseError) as caught:
        io.parse_assignment(text, request.getfixturevalue(fixture))
    assert str(caught.value) == message


def test_json_numbers_are_read_exactly(blank_vs_chain, three_chains, tmp_path, capsys):
    half = '{"matrix": [{"1F": 0.5, "2F": 5e-1}, {"1F": 0.50, "2F": 0.5}]}'
    assert io.parse_assignment(half, blank_vs_chain).rows == ((Fraction(1, 2),) * 2,) * 2
    entries = '{"entries": [{"probability": %s, "assignment": ["1F", "2F", "3F"]}, ' \
        '{"probability": %s, "assignment": ["2F", "3F", "1F"]}]}'
    lottery = io.parse_lottery(entries % ("0.30000000000000001", "0.69999999999999999"), three_chains)
    assert [prob for prob, _ in lottery.entries] == [Fraction("0.30000000000000001"), Fraction("0.69999999999999999")]
    with pytest.raises(ParseError, match="lottery probabilities must sum to one"):
        io.parse_lottery(entries % ("0.30000000000000001", "0.7"), three_chains)
    inst, shares = tmp_path / "inst.json", tmp_path / "shares.json"
    inst.write_text(io.serialize_instance(blank_vs_chain))
    shares.write_text('{"matrix": [{"1F": 1e9999, "2F": 0}, {"1F": 0, "2F": 1}]}')
    assert main(["check", str(inst), str(shares)]) == 2
    assert capsys.readouterr().err == "input error: bad rational '1e9999'\n"


def test_lottery_round_trip(three_chains):
    from mtra.mechanisms import mgd_decompose

    lottery = mgd_decompose(three_chains)
    text = io.serialize_lottery(three_chains, lottery)
    assert io.parse_lottery(text, three_chains) == lottery


def test_lottery_parse_errors(three_chains):
    from mtra.errors import ParseError

    with pytest.raises(ParseError):
        io.parse_lottery('{"entries": [{"probability": "x", "assignment": ["1F","2F","3F"]}]}', three_chains)
    with pytest.raises(ParseError):
        # probabilities must sum to one
        io.parse_lottery(
            '{"entries": [{"probability": "1/2", "assignment": ["1F", "2F", "3F"]}]}',
            three_chains,
        )
    # malformed shapes: entries not a list, an entry not an object, no assignment
    for text in ('{"entries": 3}', '{"entries": [5]}', '{"entries": [{"probability": "1"}]}'):
        with pytest.raises(ParseError):
            io.parse_lottery(text, three_chains)


@pytest.mark.parametrize(
    "assignment, message",
    [
        (["1F", "2F"], "one bundle per agent required"),
        (["1F", "1F", "3F"], "item 1F assigned twice"),
    ],
    ids=["too-few-bundles", "item-twice"],
)
def test_lottery_with_a_misshapen_entry_is_a_parse_error(three_chains, assignment, message):
    # refused like any other malformed lottery, with the shape check's text
    text = json.dumps({"entries": [{"probability": "1", "assignment": assignment}]})
    with pytest.raises(ParseError) as caught:
        io.parse_lottery(text, three_chains)
    assert str(caught.value) == message


# -- CLI -----------------------------------------------------------------------


@pytest.fixture()
def workdir(tmp_path, mixed_pair, dependent_pair, opposed_trio):
    files = {
        "mixed_pair.json": io.serialize_instance(mixed_pair),
        "dependent_pair.json": io.serialize_instance(dependent_pair),
        "opposed_trio.json": io.serialize_instance(opposed_trio),
        "tbA.json": json.dumps(["2F1B", "1F1B", "2F2B", "1F2B"]),
        "tbB.json": json.dumps(["1F1B", "2F2B", "2F1B", "1F2B"]),
        "a1.json": io.serialize_assignment(mixed_pair, fixtures.assignment_1()),
        "a2.json": io.serialize_assignment(mixed_pair, fixtures.assignment_2()),
        "a3.json": io.serialize_assignment(mixed_pair, fixtures.assignment_3()),
        "a4.json": io.serialize_assignment(dependent_pair, fixtures.assignment_3()),
        "a5.json": io.serialize_assignment(opposed_trio, fixtures.assignment_5()),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def test_cli_run_reproduces_reference_assignment(workdir, capsys, mixed_pair):
    code = main(
        ["run", str(workdir / "mixed_pair.json"), "--mechanism", "mps", "--tiebreak", str(workdir / "tbA.json")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert io.parse_assignment(out, mixed_pair) == fixtures.assignment_1()


def test_cli_run_tiebreak_default_ignores_the_file_tiebreak(workdir, capsys, mixed_pair):
    doc = json.loads((workdir / "mixed_pair.json").read_text())
    doc["tiebreak"] = [json.loads((workdir / "tbA.json").read_text())] * 2
    (workdir / "with_tb.json").write_text(json.dumps(doc))

    def run(path, *flags):
        assert main(["run", str(workdir / path), "--mechanism", "mps", *flags]) == 0
        return capsys.readouterr().out

    canonical = run("mixed_pair.json")
    # the file's tiebreak gives another assignment
    assert io.parse_assignment(run("with_tb.json"), mixed_pair) == fixtures.assignment_1()
    assert io.parse_assignment(canonical, mixed_pair) != fixtures.assignment_1()
    assert run("with_tb.json", "--tiebreak", "default") == canonical


def test_cli_run_byte_identical(workdir, capsys):
    args = ["run", str(workdir / "mixed_pair.json"), "--mechanism", "mrp", "--mode", "exact",
            "--tiebreak", str(workdir / "tbA.json"), "--seed", "5"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_cli_run_mc_seed(workdir, capsys, mixed_pair):
    args = ["run", str(workdir / "mixed_pair.json"), "--mechanism", "mrp", "--mode", "mc:32", "--seed", "3"]
    assert main(args) == 0
    out = io.parse_assignment(capsys.readouterr().out, mixed_pair)
    assert sum(out.row(0)) == 1


def test_cli_env_seed(workdir, capsys, monkeypatch):
    # --seed is the only seed: without it the seed is 0, whatever MTRA_SEED says
    args = ["run", str(workdir / "mixed_pair.json"), "--mechanism", "mrp", "--mode", "sample"]
    assert main(args + ["--seed", "0"]) == 0
    want = capsys.readouterr().out
    for value in ("4", "x"):
        monkeypatch.setenv("MTRA_SEED", value)
        assert main(args) == 0
        assert capsys.readouterr().out == want


def test_cli_check_pass_and_fail(workdir, capsys):
    code = main(
        ["check", str(workdir / "dependent_pair.json"), str(workdir / "a4.json"), "--property", "decomposability"]
    )
    out = capsys.readouterr().out
    assert code == 1 and "FAIL decomposability" in out
    code = main(
        [
            "check",
            str(workdir / "opposed_trio.json"),
            str(workdir / "a5.json"),
            "--property", "sd-envy-freeness",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0 and "PASS sd-envy-freeness" in out
    assert "report-json:" in out


def test_cli_check_all(workdir, capsys, tmp_path):
    # assignment (1) on the two-preference instance: efficient and weakly
    # envy-free, but strong envy-freeness fails, so "all" exits 1
    code = main(["check", str(workdir / "mixed_pair.json"), str(workdir / "a1.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS sd-efficiency" in out and "FAIL sd-envy-freeness" in out
    # a symmetric uniform assignment on identical chains passes everything
    from mtra.io import build_instance

    inst = build_instance(
        {
            "agents": 2,
            "types": [{"name": "F", "items": ["1F", "2F"]}],
            "preferences": [{"kind": "partial", "edges": [["1F", "2F"]]}] * 2,
        }
    )
    uniform = FractionalAssignment.from_rows([["1/2", "1/2"]] * 2)
    (tmp_path / "sym.json").write_text(io.serialize_instance(inst))
    (tmp_path / "uni.json").write_text(io.serialize_assignment(inst, uniform))
    code = main(["check", str(tmp_path / "sym.json"), str(tmp_path / "uni.json")])
    out = capsys.readouterr().out
    assert code == 0 and out.count("PASS") == 7


def test_cli_compare(workdir, capsys):
    assert main(["compare", str(workdir / "mixed_pair.json"), str(workdir / "a2.json"), str(workdir / "a3.json")]) == 0
    out = capsys.readouterr().out
    assert "agent 0: A sd B, not conversely" in out
    main(["compare", str(workdir / "mixed_pair.json"), str(workdir / "a2.json"), str(workdir / "a1.json"), "--agent", "1"])
    out = capsys.readouterr().out
    assert out.strip() == "agent 1: incomparable"
    main(["compare", str(workdir / "mixed_pair.json"), str(workdir / "a1.json"), str(workdir / "a1.json")])
    out = capsys.readouterr().out
    assert "mutually dominate" in out


def test_cli_decompose(workdir, capsys, mixed_pair):
    assert main(["decompose", str(workdir / "mixed_pair.json")]) == 0
    io.parse_lottery(capsys.readouterr().out, mixed_pair)


def test_cli_decompose_checks_the_expectation(workdir, mixed_pair, monkeypatch):
    # a lottery whose expectation is not the mgd assignment is a fault
    truth = mgd(mixed_pair)
    other = next(a for a in all_discrete_assignments(mixed_pair) if from_discrete(mixed_pair, a) != truth)
    monkeypatch.setattr(cli, "mgd_decompose", lambda instance, tiebreak: Lottery(((Fraction(1), other),)))
    with pytest.raises(SoundnessError, match="the mgd lottery's expectation is not the mgd assignment"):
        main(["decompose", str(workdir / "mixed_pair.json")])


def test_cli_replay(capsys):
    assert main(["replay-paper", "--list"]) == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert "dominance-table" in listed
    assert main(["replay-paper"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(listed)


def test_cli_replay_stops_at_the_first_divergence(monkeypatch, capsys):
    (first, _, _), (second, _, detail), *_ = fixtures.REPLAY_CHECKS
    checks = ((first, lambda: True, ""), (second, lambda: False, detail), ("later", lambda: True, ""))
    monkeypatch.setattr(fixtures, "REPLAY_CHECKS", checks)
    assert main(["replay-paper"]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"PASS {first}\nFAIL {second}" + (f" ({detail})" if detail else "") + "\n"
    assert captured.err == f"first divergence: {second}\n"


def test_replay_names_are_unique():
    """A repeated name would let a passing check hide a failing one in the
    name -> verdict dict the acceptance criteria read."""
    names = fixtures.fixture_names()
    assert len(set(names)) == len(names)


def test_cli_check_mechanism_properties(workdir, capsys, tmp_path, three_chains):
    (tmp_path / "chains.json").write_text(io.serialize_instance(three_chains))
    from mtra.mechanisms import mgd

    (tmp_path / "out.json").write_text(io.serialize_assignment(three_chains, mgd(three_chains)))
    code = main(
        [
            "check",
            str(tmp_path / "chains.json"),
            str(tmp_path / "out.json"),
            "--property", "weak-sd-strategyproofness",
            "--mechanism", "mgd",
            "--misreports", "linear",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1 and "FAIL weak-sd-strategyproofness" in out
    code = main(
        [
            "check",
            str(tmp_path / "chains.json"),
            str(tmp_path / "out.json"),
            "--property", "upper-invariance",
            "--mechanism", "mgd",
            "--misreports", "sampled:4",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1 and "FAIL upper-invariance" in out
    # a mechanism property without --mechanism is an input error
    code = main(
        [
            "check",
            str(tmp_path / "chains.json"),
            str(tmp_path / "out.json"),
            "--property", "sd-strategyproofness",
        ]
    )
    assert code == 2


def test_cli_parse_error_exit2(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("nonsense")
    assert main(["check", str(workdir / "mixed_pair.json"), str(bad)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "{bad}", "--mechanism", "mps"],
        ["check", "{inst}", "{bad}", "--property", "sd-efficiency"],
        ["compare", "{inst}", "{a1}", "{bad}"],
        ["run", "{inst}", "--mechanism", "mps", "--tiebreak", "{bad}"],
        ["decompose", "{inst}", "--tiebreak", "{bad}"],
    ],
    ids=["instance", "assignment", "compare-second", "run-tiebreak", "decompose-tiebreak"],
)
def test_cli_file_that_is_not_utf8_exit2(workdir, capsys, argv):
    # a UTF-16 byte order mark before a valid document
    bad = workdir / "bad.json"
    bad.write_bytes(b"\xff\xfe" + (workdir / "tbA.json").read_bytes())
    paths = {"bad": str(bad), "inst": str(workdir / "mixed_pair.json"), "a1": str(workdir / "a1.json")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"input error: cannot read {bad}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


BLANK = [{"kind": "partial", "edges": []}] * 2
# a + bc and ab + c are both named "abc"
ABC = [{"name": "F", "items": ["a", "ab"]}, {"name": "B", "items": ["c", "bc"]}]


@pytest.mark.parametrize(
    "argv, patch",
    [
        (["run", "{inst}", "--mechanism", "mrp", "--mode", "mc:0"], None),
        (["run", "{inst}", "--mechanism", "mrp", "--mode", "mc:-3"], None),
        (["check", "{inst}", "{a1}", "--property", "sd-strategyproofness", "--mechanism", "mps",
          "--misreports", "sampled:abc"], None),
        (["check", "{inst}", "{a1}", "--property", "sd-strategyproofness", "--mechanism", "mps",
          "--misreports", "sampled:0"], None),
        (["run", "{inst}", "--mechanism", "mps"], lambda doc: doc["preferences"][0].update(cpt=[1, 2])),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc["preferences"][0]["cpt"].update(B=["1B", "2B"])),
        (["run", "{inst}", "--mechanism", "mps"], lambda doc: doc["preferences"][1].update(edges=5)),
        (["run", "{inst}", "--mechanism", "mps"], lambda doc: doc["preferences"][0].update(dependency=5)),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc["preferences"][0]["cpt"]["F"].update({"1F": 5})),
        (["run", "{inst}", "--mechanism", "mps"], lambda doc: doc.update(tiebreak=[5, 5])),
        (["run", "{inst}", "--mechanism", "mps", "--tiebreak", "{tb56}"], None),
        (["check", "{inst}", "{a1}", "--property", ""], None),
        (["check", "{inst}", "{a1}", "--property", ","], None),
        (["run", "{inst}", "--mechanism", "mps"], lambda doc: doc.update(types=[], preferences=BLANK)),
        (["run", "{inst}", "--mechanism", "mps"], lambda doc: doc.update(types=ABC, preferences=BLANK)),
        (["run", "{inst}", "--mechanism", "mps"], lambda doc: doc.update(agents=float("inf"))),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc["preferences"][0].update(dependency=[[["F"], "B"]])),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc["preferences"][0].update(dependency=[[{"x": 1}, "B"]])),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc.update(types=[{"name": "F", "items": "ab"}], preferences=BLANK)),
        (["run", "{inst}", "--mechanism", "mps"], lambda doc: doc.update(agents=2.9)),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc.update(agents=True, types=[{"name": "F", "items": ["1F"]}], preferences=BLANK[:1])),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc.update(types=[{"name": "F", "items": [["1F"], "2F"]}, doc["types"][1]], preferences=BLANK)),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc.update(types=[{"name": 5, "items": [1, 2.5]}], preferences=BLANK)),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc.update(types=[{"name": "F", "items": ["1", "2"]}],
                                preferences=[{"kind": "partial", "edges": [[1, 2]]}] * 2)),
        (["run", "{deep}", "--mechanism", "mps"], None),
        (["check", "{inst}", "{deep}", "--property", "sd-efficiency"], None),
        (["run", "{inst}", "--mechanism", "mps", "--tiebreak", "{deep}"], None),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc["preferences"][0]["cpt"].update(F={"1F": ["1F", "2F"]})),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc["preferences"][0]["cpt"].update(B={"": ["1B", "2B"]})),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc["preferences"][0]["cpt"].update(B={"1F": ["1B", "2B"], "3F": ["2B", "1B"]})),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc["preferences"][0]["cpt"].update(Z={"": ["1B", "2B"]})),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc["preferences"][0]["cpt"].update(F={"": ["1B", "2B"]})),
        (["run", "{inst}", "--mechanism", "mps"], lambda doc: doc.update(types=[5, 6])),
        (["run", "{inst}", "--mechanism", "mps"], lambda doc: doc.update(agents=0)),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc.update(types=[doc["types"][0], dict(doc["types"][1], name="F")])),
        (["run", "{inst}", "--mechanism", "mps"],
         lambda doc: doc.update(tiebreak=[["1F1B", "1F2B", "2F1B", "2F2B"]])),
        (["run", "{inst}", "--mechanism", "mrp", "--mode", "bogus"], None),
        (["run", "{inst}", "--mechanism", "mgd", "--mode", "bogus", "--seed", "7"], None),
        (["run", "{inst}", "--mechanism", "mps", "--mode", "mc:3"], None),
        (["check", "{inst}", "{a1}", "--property", "sd-strategyproofness", "--mechanism", "mps",
          "--misreports", "bogus"], None),
        (["compare", "{inst}", "{a1}", "{a1}", "--agent", "5"], None),
        (["compare", "{inst}", "{a1}", "{a1}", "--agent", "-1"], None),
        (["run", "{missing}", "--mechanism", "mps"], None),
    ],
    ids=[
        "mc-zero", "mc-negative", "sampled-not-int", "sampled-zero", "cpt-list", "cpt-rows-list",
        "edges-number", "dependency-number", "cpt-row-number", "tiebreak-entry-number",
        "tiebreak-file-entry-number", "property-empty", "property-comma", "no-types",
        "bundle-name-collision", "agents-overflow", "dependency-parent-list",
        "dependency-parent-object", "items-string", "agents-float", "agents-bool",
        "item-name-list", "type-name-number", "edge-name-number",
        "deep-instance", "deep-assignment", "deep-tiebreak",
        "cpt-parentless-key", "cpt-key-misses-parents", "cpt-key-unresolvable", "cpt-unknown-type",
        "cpt-item-wrong-type", "types-numbers", "agents-zero", "type-name-reused",
        "tiebreak-one-list-two-agents", "mode-bogus", "mode-bogus-mgd", "mode-mc-mps", "misreports-bogus", "compare-agent-out-of-range", "compare-agent-negative",
        "missing-file",
    ],
)
def test_cli_bad_input_exit2(workdir, capsys, argv, patch):
    doc = json.loads((workdir / "mixed_pair.json").read_text())
    if patch is not None:
        patch(doc)
    (workdir / "case.json").write_text(json.dumps(doc))
    (workdir / "tb56.json").write_text("[5, 6]")
    # nested past the JSON decoder's recursion limit
    (workdir / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    paths = {"inst": str(workdir / "case.json"), "a1": str(workdir / "a1.json"), "tb56": str(workdir / "tb56.json"),
             "deep": str(workdir / "deep.json"), "missing": str(workdir / "missing.json")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "patch",
    [
        lambda doc: doc.update(agents=2.5),
        lambda doc: doc["types"][0]["items"].__setitem__(1, 2.5),
        lambda doc: doc["types"][0].update(name=2.5),
        lambda doc: doc["preferences"][1]["edges"][0].__setitem__(1, 2.5),
        lambda doc: doc["preferences"][1].update(edges=2.5),
        lambda doc: doc["preferences"][1].update(kind=2.5),
        lambda doc: doc["preferences"][0]["cpt"]["F"][""].__setitem__(1, 2.5),
        lambda doc: doc["preferences"][0].update(dependency=[2.5]),
        lambda doc: doc.update(tiebreak=[["1F1B", "1F2B", "2F1B", 2.5]] * 2),
    ],
    ids=["agents", "item", "type", "edge-bundle", "edges", "kind", "cpt-item", "dependency-edge", "tiebreak-bundle"],
)
def test_refusals_show_json_numbers_as_written(workdir, capsys, patch):
    # a JSON number is read as an exact rational, yet a refusal shows
    # the literal from the document, not the rational's repr
    doc = json.loads((workdir / "mixed_pair.json").read_text())
    patch(doc)
    (workdir / "case.json").write_text(json.dumps(doc).replace("2.5", "25e-1"))
    assert main(["run", str(workdir / "case.json"), "--mechanism", "mps"]) == 2
    err = capsys.readouterr().err
    assert "25e-1" in err and "Fraction(" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "{inst}", "--mechanism", "mrp", "--mode", "mc:0"], "monte-carlo mode needs at least one sample, got 0"),
        (["run", "{inst}", "--mechanism", "mrp", "--mode", "mc:-3"], "monte-carlo mode needs at least one sample, got -3"),
        (["check", "{inst}", "{a1}", "--property", "sd-strategyproofness", "--mechanism", "mps",
          "--misreports", "sampled:0"], "a sampled misreport space needs at least one sample, got 0"),
        (["run", "{inst}", "--mechanism", "mrp", "--mode", "mc:x"],
         "bad monte-carlo mode 'mc:x': K must be an integer"),
        (["check", "{inst}", "{a1}", "--property", "sd-strategyproofness", "--mechanism", "mps",
          "--misreports", "sampled:abc"], "bad misreport space 'sampled:abc': K must be an integer"),
    ],
    ids=["mc-zero", "mc-negative", "sampled-zero", "mc-not-int", "sampled-not-int"],
)
def test_cli_sample_counts_are_checked_by_their_classes(workdir, capsys, argv, message):
    # _count only parses K; the lower bound is the sample classes' own
    paths = {"inst": str(workdir / "mixed_pair.json"), "a1": str(workdir / "a1.json")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_cli_cpnet_misreports_without_a_cpnet_exit2(workdir, capsys):
    # mixed_pair's agent 1 has no CP-net to take a dependency graph from
    argv = ["check", str(workdir / "mixed_pair.json"), str(workdir / "a1.json"),
            "--property", "sd-strategyproofness", "--mechanism", "mps", "--misreports", "cpnet"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "agent 1" in err


def test_cli_refuses_too_many_bundle_pairs(tmp_path, capsys):
    # 16 agents and 4 types make 65 536 bundles: past the budget before any
    # preference is closed, while 12 agents and 4 types still construct
    rng = random.Random(0)
    types = spaces.square_types(16, 4)
    nets = [spaces.random_cpnet(rng, (16,) * 4, independent=True) for _ in range(16)]
    doc = {
        "agents": 16,
        "types": [{"name": t.name, "items": list(t.items)} for t in types],
        "preferences": [
            {"kind": "cpnet", "dependency": [],
             "cpt": {t.name: {"": [t.items[v] for v in table[0][1]]} for t, table in zip(types, net.tables)}}
            for net in nets
        ],
    }
    path = tmp_path / "sixteen.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["run", str(path), "--mechanism", "mps"]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("guard violation: 65536 bundles make 4294967296 bundle pairs")
    assert spaces.random_profile(rng, 12, 4, "independent").m == 12**4


def test_cli_refuses_too_many_bundle_pairs_before_any_bundle_is_built(tmp_path, capsys, monkeypatch):
    # 24 two-item types make 2**24 bundles: the budget is checked on the
    # types alone, before the shell that resolves bundle names is built
    def refuse(*args):
        raise AssertionError("an m-sized relation was built")

    monkeypatch.setattr(prefs.PartialOrder, "from_pairs", refuse)
    doc = {
        "agents": 2,
        "types": [{"name": f"T{t}", "items": [f"a{t}", f"b{t}"]} for t in range(24)],
        "preferences": [{"kind": "partial", "edges": []}] * 2,
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["run", str(path), "--mechanism", "mps"]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("guard violation: 16777216 bundles make 281474976710656 bundle pairs")


def test_repeated_dependency_edge_is_read_once(dependent_pair):
    doc = json.loads(io.serialize_instance(dependent_pair))
    for pref in doc["preferences"]:
        pref["dependency"] *= 2
    parsed, _ = io.parse_instance(json.dumps(doc))
    assert parsed == dependent_pair


def test_cli_guard_exit3(tmp_path, capsys, own_items_first):
    path = tmp_path / "big.json"
    path.write_text(io.serialize_instance(own_items_first))
    assert main(["run", str(path), "--mechanism", "mrp", "--mode", "exact"]) == 3
    assert "would take 1676400 turns" in capsys.readouterr().err


def test_cli_out_of_memory_exits_3(tmp_path, capsys, mixed_pair, monkeypatch):
    # running out of memory is a guard hit, not a failed property: one
    # stderr line and exit 3, no traceback
    path = tmp_path / "pair.json"
    path.write_text(io.serialize_instance(mixed_pair))

    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(io, "parse_instance", exhausted)
    for argv in (["run", str(path), "--mechanism", "mps"], ["decompose", str(path)]):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "guard violation: out of memory\n"


def test_cli_independent_misreports_guard_exit3(tmp_path, capsys):
    # (5,3) has 120**3 independent CP-nets, past the enumeration guard
    inst = spaces.random_profile(random.Random(0), 5, 3, "independent")
    (tmp_path / "big.json").write_text(io.serialize_instance(inst))
    (tmp_path / "mps.json").write_text(io.serialize_assignment(inst, mps(inst)[0]))
    argv = ["check", str(tmp_path / "big.json"), str(tmp_path / "mps.json"), "--mechanism", "mps",
            "--property", "sd-strategyproofness", "--misreports", "independent"]
    assert main(argv) == 3
    assert "1728000 CP-nets" in capsys.readouterr().err

def test_cli_sampled_misreports_guard_exit3(workdir, capsys):
    # refused before any order is drawn, upper invariance alone included
    too_many = spaces.ENUMERATION_LIMIT + 1
    argv = ["check", str(workdir / "mixed_pair.json"), str(workdir / "a1.json"), "--mechanism", "mrp"]
    for prop in ("weak-sd-strategyproofness", "upper-invariance"):
        assert main([*argv, "--property", prop, "--misreports", f"sampled:{too_many}"]) == 3
        assert f"{too_many} sampled misreports" in capsys.readouterr().err
    limit = f"sampled:{spaces.ENUMERATION_LIMIT}"
    assert main([*argv, "--property", "upper-invariance", "--misreports", limit]) in (0, 1)


def test_cli_monte_carlo_guard_exit3(workdir, capsys):
    # refused before any sample is drawn, as sampled:K is
    too_many = spaces.ENUMERATION_LIMIT + 1
    argv = ["run", str(workdir / "mixed_pair.json"), "--mechanism", "mrp", "--mode"]
    assert main([*argv, f"mc:{too_many}"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and f"{too_many} monte-carlo samples" in err
    assert main([*argv, f"mc:{spaces.ENUMERATION_LIMIT}"]) == 0


def test_cli_decompose_guard_exit3(tmp_path, capsys):
    # equal-sort groups of 2, 3, 5, 7, 11, 13 and 17 agents: the mgd lottery
    # has 510 510 rotations, refused before any is built
    sizes = (2, 3, 5, 7, 11, 13, 17)
    items = [f"{i}F" for i in range(sum(sizes))]
    # group g puts item g above item 0, which makes its sort its own
    groups = [[[items[g], items[0]]] if g else [] for g, size in enumerate(sizes) for _ in range(size)]
    doc = {
        "agents": len(items),
        "types": [{"name": "F", "items": items}],
        "preferences": [{"kind": "partial", "edges": edges} for edges in groups],
    }
    path = tmp_path / "groups.json"
    path.write_text(json.dumps(doc))
    assert math.lcm(*sizes) > spaces.ENUMERATION_LIMIT
    start = time.perf_counter()
    assert main(["decompose", str(path)]) == 3
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and "510510 mgd lottery rotations" in err


def test_cli_exact_mrp_twelve_agents(tmp_path, capsys):
    # 100 485 (served, available) states, 414 275 turns
    inst = spaces.random_profile(random.Random(1), 12, 2, "cpnet")
    path = tmp_path / "twelve.json"
    path.write_text(io.serialize_instance(inst))
    assert main(["run", str(path), "--mechanism", "mrp", "--mode", "exact"]) == 0
    out = io.parse_assignment(capsys.readouterr().out, inst)
    assert validate_assignment(out, inst) is None
    # each share is a count of the 12! priority orders over 12!
    assert all(479001600 % v.denominator == 0 for row in out.rows for v in row)


def test_cli_cpt_keys_with_prefixed_item_names(tmp_path, capsys):
    def run(types, rows):
        cpt = {t["name"]: {"": t["items"]} for t in types if t["name"] != "B"}
        cpt["B"] = rows
        parents = [t["name"] for t in types if t["name"] != "B"]
        net = {"kind": "cpnet", "dependency": [[q, "B"] for q in parents], "cpt": cpt}
        path = tmp_path / "prefixed.json"
        path.write_text(json.dumps({"agents": 2, "types": types, "preferences": [net, net]}))
        return main(["run", str(path), "--mechanism", "mps"])

    # "a" prefixes "ab", and the key "ab" reads only as ab
    types = [{"name": "F", "items": ["a", "ab"]}, {"name": "B", "items": ["c", "d"]}]
    assert run(types, {"a": ["c", "d"], "ab": ["d", "c"]}) == 0
    capsys.readouterr()
    # "abc" reads as a + bc and as ab + c
    types = [
        {"name": "F", "items": ["a", "ab"]},
        {"name": "B", "items": ["x", "y"]},
        {"name": "D", "items": ["c", "bc"]},
    ]
    assert run(types, {"ac": ["x", "y"], "abc": ["y", "x"], "abbc": ["y", "x"]}) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "a+bc or ab+c" in err


def exhaustive_parent_key(key, parent_list, item_index):
    """The former CPT key reader, which explores a state once per order of
    reaching it: the reference for `io._parse_parent_key`.  The reading,
    or the message of the `ParseError` it raises."""
    if not isinstance(key, str):
        return f"cannot resolve CPT key {key!r}"
    if not parent_list:
        return f"parentless CPT row must use key '' (got {key!r})" if key else ()
    names = [(name, ti, ii) for name, (ti, ii) in item_index.items() if ti in parent_list]
    readings = {}
    short = False

    def split(rest, found, used):
        nonlocal short
        if not rest:
            if len(found) == len(parent_list):
                readings.setdefault(tuple(found[t] for t in sorted(parent_list)), "+".join(used))
            else:
                short = True
            return
        for name, ti, ii in names:
            if ti not in found and rest.startswith(name):
                split(rest[len(name):], {**found, ti: ii}, (*used, name))

    split(key, {}, ())
    if len(readings) > 1:  # named by the first two: a key may have exponentially many
        return f"CPT key {key!r} is ambiguous: {' or '.join(list(readings.values())[:2])}"
    if not readings:
        return f"CPT key {key!r} does not cover the parent types" if short else f"cannot resolve CPT key {key!r}"
    return next(iter(readings))


def _names(item_index):
    """What `io._parse_parent_key` reads of a document's `io._Names`: the
    item index and the memo of the key splits read so far, here empty.
    The items need not spell distinct bundles, as a document's must."""
    return SimpleNamespace(item_index=item_index, splits={})


def _parent_key(names, key, parent_list):
    try:
        return io._parse_parent_key(names, key, parent_list)
    except ParseError as exc:
        return str(exc)


KEY_REFUSALS = ("is ambiguous", "does not cover", "cannot resolve", "parentless")


def test_cpt_key_reading_matches_the_exhaustive_split():
    rng = random.Random(43)
    outcomes = set()
    for _ in range(1500):
        p = rng.randint(1, 5)
        item_index = {}
        for t in range(p):
            for i in range(rng.randint(1, 3)):
                name = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
                item_index.setdefault(name, (t, i))
        parent_list = tuple(sorted(rng.sample(range(p), rng.randint(0, p))))
        spelled = [rng.choice([n for n, (t, _) in item_index.items() if t == q] or ["c"]) for q in parent_list]
        rng.shuffle(spelled)
        keys = [
            "".join(spelled),
            "".join(spelled[1:]),
            "".join(spelled) + rng.choice("ab"),
            "".join(rng.choice("ab") for _ in range(rng.randint(0, 8))),
        ]
        key = rng.choice(keys)
        want = exhaustive_parent_key(key, parent_list, item_index)
        assert _parent_key(_names(item_index), key, parent_list) == want, (key, parent_list, item_index)
        outcomes.add(next((word for word in KEY_REFUSALS if word in want), None) if isinstance(want, str) else "read")
        # one memo per item set, as one document reads all its keys,
        # under this parent list and under all the types
        shared = _names(item_index)
        for parents in (parent_list, tuple(range(p))):
            for each in keys:
                assert _parent_key(shared, each, parents) == _parent_key(_names(item_index), each, parents)
    assert outcomes == {"read", *KEY_REFUSALS}
    # names that prefix one another, one per parent type: every order of
    # reading them reaches the same states; every length through one memo
    item_index = {"a" * (t + 1): (t, 0) for t in range(7)}
    shared = _names(item_index)
    for length in range(30):
        key = "a" * length
        want = exhaustive_parent_key(key, tuple(range(7)), item_index)
        assert _parent_key(_names(item_index), key, tuple(range(7))) == want
        assert _parent_key(shared, key, tuple(range(7))) == want


def test_cpt_key_of_twelve_parents_is_read_quickly():
    # the exhaustive split would explore each state once per order of
    # reaching it, about 12! times for the full key
    item_index = {"a" * (t + 1): (t, 0) for t in range(12)}
    parents = tuple(range(12))
    start = time.perf_counter()
    assert io._parse_parent_key(_names(item_index), "a" * 78, parents) == (0,) * 12
    with pytest.raises(ParseError, match="does not cover the parent types"):
        io._parse_parent_key(_names(item_index), "a" * 77, parents)
    assert time.perf_counter() - start < 1


def test_cpt_keys_of_two_prefixed_items_per_parent_share_one_memo():
    # type t holds the items a*(2t+1) and a*(2t+2): an all-a key has
    # readings under up to 3**10 sets of items read, but one memo holds
    # at most (text left, types left) states, 2**10 per suffix
    item_index = {"a" * (2 * t + k): (t, k - 1) for t in range(10) for k in (1, 2)}
    parents = tuple(range(10))
    names = _names(item_index)
    start = time.perf_counter()
    read = {length: _parent_key(names, "a" * length, parents) for length in range(112)}
    assert time.perf_counter() - start < 2
    assert len(names.splits) <= 112 * 2**10
    assert read[100] == (0,) * 10 and read[110] == (1,) * 10
    assert read[99] == f"CPT key {'a' * 99!r} does not cover the parent types"
    # ten readings, each with one type at its longer item: the first two
    # the split meets are named
    shorter = ["a" * (2 * t + 1) for t in range(10)]
    first = "+".join([*shorter[:9], "a" * 20])
    second = "+".join([*shorter[:8], "a" * 18, shorter[9]])
    assert read[101] == f"CPT key {'a' * 101!r} is ambiguous: {first} or {second}"
    assert read[111] == f"cannot resolve CPT key {'a' * 111!r}"


def test_cpt_key_readings_are_the_documents_own():
    # "xab" reads as the first items of F and G in one document and as
    # their second items in the other
    def document(f_items, g_items):
        types = [{"name": "F", "items": f_items}, {"name": "G", "items": g_items}, {"name": "B", "items": ["c", "d"]}]
        rows = {f + g: ["c", "d"] if f + g == "xab" else ["d", "c"] for f in f_items for g in g_items}
        net = {"kind": "cpnet", "dependency": [["F", "B"], ["G", "B"]],
               "cpt": {"F": {"": f_items}, "G": {"": g_items}, "B": rows}}
        return json.dumps({"agents": 2, "types": types, "preferences": [net, net]})

    for f_items, g_items, row in ((["x", "y"], ["ab", "z"], (0, 0)), (["y", "x"], ["z", "ab"], (1, 1))):
        inst, _ = io.parse_instance(document(f_items, g_items))
        table = dict(inst.preferences[0].tables[2])
        assert table == {key: (0, 1) if key == row else (1, 0) for key in table}


def test_cli_reads_a_cpt_key_of_1200_parent_types(tmp_path, capsys):
    # one bundle, and a key that steps through 1 199 (text, types) states
    # in a row: deeper than Python's recursion limit
    types = [{"name": f"T{i:04d}", "items": [f"t{i:04d}"]} for i in range(1200)]
    *parents, last = types
    net = {
        "kind": "cpnet",
        "dependency": [[t["name"], last["name"]] for t in parents],
        "cpt": {t["name"]: {"": t["items"]} for t in parents}
        | {last["name"]: {"".join(t["items"][0] for t in parents): last["items"]}},
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"agents": 1, "types": types, "preferences": [net]}))
    assert main(["run", str(path), "--mechanism", "mps"]) == 0
    out, err = capsys.readouterr()
    bundle = "".join(t["items"][0] for t in types)
    assert err == "" and json.loads(out)["matrix"] == [{bundle: "1/1"}]


def _types(*names):
    return [{"name": t, "items": [f"1{t}", f"2{t}"]} for t in names]


# D's table names the row (1F, 1B) twice, as "1F1B" and as "1B1F"
_D_TWICE = {
    "kind": "cpnet",
    "dependency": [["F", "D"], ["B", "D"]],
    "cpt": {
        "F": {"": ["1F", "2F"]},
        "B": {"": ["1B", "2B"]},
        "D": {"1F1B": ["1D", "2D"], "1F2B": ["1D", "2D"], "2F1B": ["2D", "1D"], "2F2B": ["2D", "1D"],
              "1B1F": ["2D", "1D"]},
    },
}


@pytest.mark.parametrize(
    "types, net, message",
    [
        (_types("F", "B", "D"), _D_TWICE, "duplicate row for type 2 at (0, 0)"),
        (_types("F"), {"kind": "cpnet", "cpt": {"F": {"": ["1F", "2F"], "-": ["2F", "1F"]}}},
         "parentless CPT row must use key '' (got '-')"),
        (_types("F"), {"kind": "cpnet", "cpt": {"F": {"-": ["2F", "1F"]}}},
         "parentless CPT row must use key '' (got '-')"),
    ],
    ids=["row-under-two-spellings", "parentless-row-twice", "parentless-dash"],
)
def test_cli_refuses_a_cpt_row_named_twice(tmp_path, capsys, types, net, message):
    # each parent assignment has one row; a later spelling of it must not win
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({"agents": 2, "types": types, "preferences": [net, net]}))
    assert main(["run", str(path), "--mechanism", "mps"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: {message}\n"


def _first_best(t):
    return {"": [f"1{t}", f"2{t}"]}


# Instance documents refused, each with its exception and message
_REFUSED = {
    # "a" + "bc" and "ab" + "c" both name the bundle "abc"
    "colliding-bundle-names": (
        {
            "agents": 2,
            "types": [{"name": "F", "items": ["a", "ab"]}, {"name": "B", "items": ["bc", "c"]}],
            "preferences": [{"kind": "partial", "edges": []}] * 2,
        },
        DuplicateItemName,
        "bundle name 'abc' names two bundles",
    ),
    # D's table names the row (1F, 1B) twice, as "1F1B" and as "1B1F"
    "row-under-two-spellings": (
        {"agents": 2, "types": _types("F", "B", "D"), "preferences": [_D_TWICE] * 2},
        IncompleteCPT,
        "duplicate row for type 2 at (0, 0)",
    ),
    # the key "1F" reads as 1F under agent 0's parents of D, and is short
    # under agent 1's: its reading is not carried from one to the other
    "key-under-two-parent-lists": (
        {
            "agents": 2,
            "types": _types("F", "B", "D"),
            "preferences": [
                {"kind": "cpnet", "dependency": [["F", "D"]],
                 "cpt": {"F": _first_best("F"), "B": _first_best("B"), "D": {"1F": ["1D", "2D"], "2F": ["2D", "1D"]}}},
                {"kind": "cpnet", "dependency": [["F", "D"], ["B", "D"]],
                 "cpt": {"F": _first_best("F"), "B": _first_best("B"), "D": {"1F": ["1D", "2D"], "2F2B": ["2D", "1D"]}}},
            ],
        },
        ParseError,
        "CPT key '1F' does not cover the parent types",
    ),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_instance_reader_refusals_keep_their_error_and_message(case):
    doc, error, message = _REFUSED[case]
    with pytest.raises(ParseError) as caught:
        io.parse_instance(json.dumps(doc))
    assert type(caught.value) is error and str(caught.value) == message


def test_with_preference_shares_the_tables_and_checks_the_preference(mixed_pair):
    copy = mixed_pair.with_preference(0, mixed_pair.preferences[1])
    assert copy.bundle_names is mixed_pair.bundle_names
    assert copy.item_bundles is mixed_pair.item_bundles
    for pref, message in (
        (prefs.PartialOrder.from_pairs(9, ()), "agent 0 order ranges over 9 bundles, expected 4"),
        (spaces.random_cpnet(random.Random(0), (3, 3)), "agent 0 CP-net does not match the type sizes"),
    ):
        with pytest.raises(ParseError) as caught:
            mixed_pair.with_preference(0, pref)
        assert type(caught.value) is ParseError and str(caught.value) == message


def test_with_preference_keeps_its_source_tables_after_other_type_lists(mixed_pair):
    # `type_tables` keeps the last eight type lists; a copy takes its
    # source's tables whatever was read since
    mixed_pair.conflicts, mixed_pair.orders  # made before the copy
    for k in range(12):
        model.type_tables(spaces.square_types(2, 2)[:1] + (TypeDef("X", (f"a{k}", f"b{k}")),), 2)
    copy = mixed_pair.with_preference(1, mixed_pair.preferences[0])
    assert copy.bundle_names is mixed_pair.bundle_names and copy.conflicts is mixed_pair.conflicts
    assert copy.preferences == (mixed_pair.preferences[0],) * 2
    assert copy.orders == (mixed_pair.orders[0],) * 2 and copy == Instance(copy.types, copy.preferences)


_ONE_TYPE = '{"agents": 2, "types": [{"name": "F", "items": ["1F", "2F"]}], "preferences": [%s, %s]}'
_TWO_TYPES = (
    '{"agents": 2, "types": [{"name": "F", "items": ["1F", "2F"]}, {"name": "B", "items": ["1B", "2B"]}],'
    ' "preferences": [%s, %s]}'
)
_CHAIN = '{"kind": "cpnet", "cpt": {"F": {"": ["1F", "2F"]}}}'
_REPEATED_KEY = {
    # the later of two rows under one CPT key must not win
    "cpt-key": (
        _ONE_TYPE % ('{"kind": "cpnet", "cpt": {"F": {"": ["1F", "2F"], "": ["2F", "1F"]}}}', _CHAIN),
        None,
        "''",
    ),
    # the later of two shares of one bundle must not win
    "assignment-bundle": (
        _ONE_TYPE % (_CHAIN, _CHAIN),
        '{"matrix": [{"1F": "1", "2F": "0", "1F": "0"}, {"1F": "0", "2F": "1"}], "metadata": {}}',
        "'1F'",
    ),
    # the later of two tables of one type must not win
    "cpt-type": (
        _TWO_TYPES % ('{"kind": "cpnet", "cpt": {"F": {"": ["1F", "2F"]}, "B": {"": ["1B", "2B"]},'
                      ' "F": {"": ["2F", "1F"]}}}', '{"kind": "partial", "edges": []}'),
        None,
        "'F'",
    ),
}


@pytest.mark.parametrize("case", list(_REPEATED_KEY))
def test_cli_refuses_a_repeated_key(tmp_path, capsys, case):
    instance, assignment, key = _REPEATED_KEY[case]
    (tmp_path / "inst.json").write_text(instance)
    if assignment is None:
        argv = ["run", str(tmp_path / "inst.json"), "--mechanism", "mps"]
    else:
        (tmp_path / "a.json").write_text(assignment)
        argv = ["check", str(tmp_path / "inst.json"), str(tmp_path / "a.json"), "--property", "sd-efficiency"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: key {key} appears twice in one JSON object\n"


def test_cli_unknown_property(workdir):
    assert main(["check", str(workdir / "mixed_pair.json"), str(workdir / "a1.json"), "--property", "nonsense"]) == 2
