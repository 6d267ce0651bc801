"""Fuzz the document parsers and the command line.

Each document is a valid one with a few values replaced, deleted or
repeated, each file argument is also given raw or broken bytes, and
argv is drawn from the CLI's own words.  Whatever comes in,
the CLI exits 0, 1, 2 or 3 and prints no traceback; the library parsers
return or raise an MtraError.  The runs are derandomized, so every run
sees the same examples.
"""

import copy
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtra import fixtures, io
from mtra.cli import main
from mtra.errors import MtraError
from mtra.mechanisms import mgd_decompose
from mtra.model import FractionalAssignment, Instance, TypeDef
from mtra.preferences import PartialOrder

FUZZ = settings(derandomize=True, deadline=None, max_examples=60, database=None)

WORDS = ["", "x", "F", "B", "1F", "2F", "1B", "2B", "1F1B", "2F2B", "partial", "cpnet", "1/2", "0/0", "-1/3", "1e9999"]
KEYS = ["agents", "types", "preferences", "kind", "edges", "dependency", "cpt", "name", "items", "tiebreak",
        "matrix", "entries", "probability", "assignment", "", "F", "B", "1F"]
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([0.5, float("inf")]), st.sampled_from(WORDS)
)
VALUES = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3),
    max_leaves=8,
)



def _paths(doc, prefix=()):
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, (*prefix, key))


@st.composite
def mutants(draw, bases):
    """One of ``bases`` (JSON documents) with one or two values replaced,
    deleted or repeated; as text."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "repeat"]))
        if action == "replace":
            parent[key] = draw(VALUES)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return json.dumps(doc)


def _exit_code(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code


BLANK_VS_CHAIN = fixtures.blank_vs_chain()
MIXED_PAIR = fixtures.mixed_pair()
UNIFORM = FractionalAssignment.from_rows([["1/2", "1/2"]] * 2)
INSTANCES = [
    json.loads(io.serialize_instance(inst)) for inst in (MIXED_PAIR, fixtures.dependent_pair(), BLANK_VS_CHAIN)
]
INSTANCES.append({**INSTANCES[0], "tiebreak": [fixtures.sort_a(MIXED_PAIR)] * 2})
# (instance file, assignment document)
ASSIGNMENTS = [
    ("blank_vs_chain", json.loads(io.serialize_assignment(BLANK_VS_CHAIN, UNIFORM))),
    ("mixed_pair", json.loads(io.serialize_assignment(MIXED_PAIR, fixtures.assignment_1()))),
]
LOTTERY = json.loads(io.serialize_lottery(MIXED_PAIR, mgd_decompose(MIXED_PAIR)))
TIEBREAKS = [["2F1B", "1F1B", "2F2B", "1F2B"], [["2F1B", "1F1B", "2F2B", "1F2B"], ["1F1B", "2F2B", "2F1B", "1F2B"]]]


def _shares(rows):
    return json.dumps({"matrix": [dict(zip(("1F", "2F"), row)) for row in rows]})


# reproducers of past crashes and hangs, all input errors
HUGE = "1" + "0" * 5000  # past Python's 4300-digit int-string limit
P, Q = 10**2999 + 1, 10**2999 + 3
HUGE_AGENTS = '{"agents": ' + HUGE + ', "types": [], "preferences": []}'
HUGE_SHARES = [
    '{"matrix": [{"1F": ' + HUGE + ', "2F": "0"}, {"1F": "0", "2F": "1"}]}',
    _shares([["1e9999", "0"], ["0", "1"]]),
    _shares([["1e9999999", "0"], ["0", "1"]]),
    # valid rows whose item marginal has a 6000-digit denominator
    _shares([[f"1/{P}", f"{P - 1}/{P}"], [f"1/{Q}", f"{Q - 1}/{Q}"]]),
]
# four agents and three types; every share has its own 4300-digit
# denominator, so the common one has about a million digits
FOUR_BY_THREE = Instance(
    tuple(TypeDef(t, tuple(f"{k}{t}" for k in range(1, 5))) for t in "FBC"), (PartialOrder.from_pairs(64, ()),) * 4
)
HUGE_LCM = json.dumps({"matrix": [
    {name: f"1/{10**4299 + 64 * j + x}" for x, name in enumerate(FOUR_BY_THREE.bundle_names)} for j in range(4)
]})


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, text in {
        "mixed_pair": io.serialize_instance(MIXED_PAIR),
        "blank_vs_chain": io.serialize_instance(BLANK_VS_CHAIN),
        "four_by_three": io.serialize_instance(FOUR_BY_THREE),
        "a1": io.serialize_assignment(MIXED_PAIR, fixtures.assignment_1()),
        "junk": "[1, 2",
    }.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(text)
    paths["case"] = root / "case.json"
    paths["raw"] = root / "raw.json"
    paths["missing"] = root / "missing.json"
    return {name: str(path) for name, path in paths.items()}


def _case(files, text):
    with open(files["case"], "w", encoding="utf-8") as fh:
        fh.write(text)
    return files["case"]


@FUZZ
@given(text=mutants(INSTANCES))
@example(text=HUGE_AGENTS)
@example(
    text=json.dumps({**INSTANCES[1], "preferences": [
        {**pref, "dependency": pref["dependency"] * 2} for pref in INSTANCES[1]["preferences"]
    ]})
)
def test_fuzz_parse_instance(files, text):
    _exit_code(["run", _case(files, text), "--mechanism", "mps"])


@FUZZ
@given(case=st.sampled_from(ASSIGNMENTS).flatmap(lambda base: st.tuples(st.just(base[0]), mutants([base[1]]))))
@example(case=("blank_vs_chain", HUGE_SHARES[0]))
@example(case=("blank_vs_chain", HUGE_SHARES[1]))
@example(case=("blank_vs_chain", HUGE_SHARES[2]))
@example(case=("blank_vs_chain", HUGE_SHARES[3]))
def test_fuzz_parse_assignment(files, case):
    instance, text = case
    _exit_code(["check", files[instance], _case(files, text)])


@pytest.mark.parametrize(
    "text, argv",
    [
        (HUGE_AGENTS, ["run", "{case}", "--mechanism", "mps"]),
        *((text, ["check", "{blank_vs_chain}", "{case}", "--property", "sd-efficiency"]) for text in HUGE_SHARES),
        (HUGE_LCM, ["check", "{four_by_three}", "{case}", "--property", "sd-efficiency"]),
    ],
    ids=["agents-digits", "share-digits", "share-exponent", "share-exponent-7-digits", "marginal-digits",
         "common-denominator-digits-4x3"],
)
def test_huge_numbers_exit2_quickly(files, text, argv):
    _case(files, text)
    start = time.perf_counter()
    assert _exit_code([word.format(**files) for word in argv]) == 2
    assert time.perf_counter() - start < 1


def test_witness_past_the_digit_limit_is_refused(files):
    # valid rows whose shares' denominator, 10**4300, has one digit more
    # than an int may be written with: every witness of them would crash
    # the report
    nines = "0." + "9" * 4300
    _case(files, _shares([["1e-4300", nines], [nines, "1e-4300"]]))
    assert _exit_code(["check", files["blank_vs_chain"], files["case"], "--property", "all"]) == 2


@settings(FUZZ, max_examples=200)
@given(text=mutants([LOTTERY]))
def test_fuzz_parse_lottery(text):
    try:
        io.parse_lottery(text, MIXED_PAIR)
    except MtraError:
        pass


@FUZZ
@given(text=mutants(TIEBREAKS))
def test_fuzz_parse_tiebreak(files, text):
    _exit_code(["run", files["mixed_pair"], "--mechanism", "mps", "--tiebreak", _case(files, text)])


# valid files as bytes, each to be broken at the byte level
VALID_BYTES = [
    io.serialize_instance(MIXED_PAIR).encode(),
    io.serialize_assignment(MIXED_PAIR, fixtures.assignment_1()).encode(),
    json.dumps(TIEBREAKS[0]).encode(),
]
BOMS = [b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff"]
# a stray continuation byte, a cut-off sequence, an encoded surrogate, a byte never in UTF-8
BAD_UTF8 = [b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff"]


@st.composite
def raw_files(draw):
    """Arbitrary bytes, or a valid file with a byte order mark before it,
    invalid UTF-8 inside it, or its end cut off."""
    how = draw(st.sampled_from(["binary", "bom", "invalid", "truncated"]))
    if how == "binary":
        return draw(st.binary(max_size=40))
    base = draw(st.sampled_from(VALID_BYTES))
    if how == "bom":
        return draw(st.sampled_from(BOMS)) + base
    at = draw(st.integers(0, len(base)))
    if how == "invalid":
        return base[:at] + draw(st.sampled_from(BAD_UTF8)) + base[at:]
    return base[:at]


# every file argument of the commands that read files, {raw} in its place
FILE_SLOTS = [
    ["run", "{raw}", "--mechanism", "mps"],
    ["run", "{mixed_pair}", "--mechanism", "mgd", "--tiebreak", "{raw}"],
    ["check", "{raw}", "{a1}", "--property", "sd-efficiency,decomposability"],
    ["check", "{mixed_pair}", "{raw}", "--property", "sd-efficiency,decomposability"],
    ["compare", "{raw}", "{a1}", "{a1}"],
    ["compare", "{mixed_pair}", "{raw}", "{a1}"],
    ["compare", "{mixed_pair}", "{a1}", "{raw}"],
    ["decompose", "{raw}"],
    ["decompose", "{mixed_pair}", "--tiebreak", "{raw}"],
]


@settings(FUZZ, max_examples=1000)
@given(data=raw_files(), argv=st.sampled_from(FILE_SLOTS))
def test_fuzz_file_bytes(files, data, argv):
    with open(files["raw"], "wb") as fh:
        fh.write(data)
    _exit_code([word.format(**files) for word in argv])


COMMANDS = ["run", "check", "compare", "decompose", "replay-paper", "--help", "x"]
FILES = ["{mixed_pair}", "{a1}", "{junk}", "{missing}"]
OPTION_VALUES = {
    "--mechanism": ["mrp", "mps", "mgd", "x"],
    "--mode": ["exact", "sample", "mc:3", "mc:0", "mc:x"],
    "--seed": ["7", "-1", "x"],
    "--tiebreak": ["default", "{mixed_pair}", "{missing}"],
    "--property": ["all", "sd-efficiency", "sd-strategyproofness", "upper-invariance", "decomposability,x", ","],
    "--misreports": ["linear", "cpnet", "independent", "sampled:2", "sampled:0"],
    "--agent": ["0", "5"],
}
OPTIONS = [("--list",)] + [(flag, value) for flag, values in OPTION_VALUES.items() for value in values]
# the positionals of run, check and compare half the time, so that the
# options get past the file arguments
POSITIONALS = st.one_of(
    st.sampled_from([FILES[:1], FILES[:2], [*FILES[:2], FILES[1]]]), st.lists(st.sampled_from(FILES), max_size=3)
)
ARGV = st.tuples(
    st.sampled_from(COMMANDS),
    POSITIONALS,
    st.lists(st.sampled_from(OPTIONS), max_size=3),
).map(lambda parts: [parts[0], *parts[1], *(word for option in parts[2] for word in option)])


@settings(FUZZ, max_examples=150)
@given(argv=ARGV)
def test_fuzz_cli_argv(files, argv):
    _exit_code([word.format(**files) for word in argv])
