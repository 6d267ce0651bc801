"""File formats: instance documents (:func:`build_instance` validates
their dict form), tie-breaks, assignment matrices and lotteries.

All are JSON with exact rationals carried as "num/den" strings, so
nothing is lost on the wire.  Serialization is canonical (sorted keys,
fixed separators, trailing newline), which makes CLI output byte-stable.
Assignment documents, the largest written, are written directly
(:func:`serialize_assignment`), byte for byte as :func:`dumps` lays
them out.  An instance document is read into one :class:`Instance`,
built by its constructor like any other; the tables over its types
(:func:`~mtra.model.type_tables`) are made once and read by its
preferences too.  A ``partial`` preference is closed from its edges and
keeps its canonical sort, as a CP-net's order does.  Every CPT key of
one document is split through one memo of (text left, parent types
left) states, and the writer reads each key it writes back that way.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping, Sequence

from . import preferences as prefs
from .errors import DimensionMismatch, MissingPreference, ParseError
from .model import (
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    Lottery,
    Preference,
    TypeDef,
    type_tables,
    validate_assignment,
)
from .model import parse_fraction as parse_frac


def dumps(document: object) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _object(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last of two equal keys: a repeated CPT
    # key, bundle name or type name must not have its later value win
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ParseError(f"key {key!r} appears twice in one JSON object")
    return doc


def _loads(text: str) -> object:
    # a ValueError is bad JSON or an int literal past the digit limit; a
    # number with a point or an exponent is read exactly, as a Fraction
    try:
        return json.loads(text, object_pairs_hook=_object, parse_float=parse_frac)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc


def frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _show(v: Fraction) -> str:
    try:
        return str(v)
    except ValueError:  # past the digit limit
        return f"a {v.numerator.bit_length()}-bit numerator over a {v.denominator.bit_length()}-bit denominator"


# -- instances ---------------------------------------------------------------


def build_instance(spec: Mapping) -> Instance:
    """Validate a parsed instance description (the dict form of the
    document :func:`parse_instance` reads) into an :class:`Instance`."""
    try:
        agents = spec["agents"]
        raw_types = list(spec["types"])
        raw_prefs = list(spec["preferences"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"instance description is malformed: {exc}") from exc
    if not isinstance(agents, int) or isinstance(agents, bool):
        raise ParseError(f"agent count must be an integer (got {agents!r})")
    if agents <= 0:
        raise ParseError("agent count must be positive")
    if len(raw_prefs) != agents:
        raise MissingPreference(
            f"{len(raw_prefs)} preferences declared for {agents} agents"
        )
    types = []
    for t in raw_types:
        try:
            name, items = t["name"], _parse_list(t["items"], "'items'")
        except (KeyError, TypeError) as exc:
            raise ParseError(f"type description is malformed: {exc}") from exc
        if not all(isinstance(s, str) for s in (name, *items)):
            raise ParseError(f"type and item names must be strings (got {t!r})")
        types.append(TypeDef(name, tuple(items)))
    # checked before any m-sized work, and found made by the instance below
    names = _Names(types, type_tables(types, agents))
    return Instance(tuple(types), tuple(_parse_preference(names, q) for q in raw_prefs))


class _Names:
    """What one instance document's preferences are read against, made
    once per document: the bundle count, the type sizes, the bundle,
    type and item indexes, and ``splits``, the memo of
    :func:`_split` that every CPT key of the document is read through."""

    def __init__(self, types: Sequence[TypeDef], tables: Mapping) -> None:
        self.m = tables["m"]
        self.sizes = tables["sizes"]
        self.bundle_by_name = tables["bundle_by_name"]
        self.type_index = {t.name: i for i, t in enumerate(types)}
        self.item_index = {it: (ti, ii) for ti, t in enumerate(types) for ii, it in enumerate(t.items)}
        self.splits: dict[tuple[str, int], tuple[tuple[tuple[tuple[int, ...], str], ...], bool]] = {}


def _parse_preference(names: _Names, raw: Mapping) -> Preference:
    try:
        kind = raw["kind"]
    except (KeyError, TypeError) as exc:
        raise ParseError("preference entry lacks a 'kind'") from exc
    if kind == "partial":
        by_name = names.bundle_by_name
        pairs = []
        for edge in _parse_list(raw.get("edges", ()), "'edges'"):
            try:
                better, worse = edge
            except (TypeError, ValueError) as exc:
                raise ParseError(f"bad edge {edge!r}") from exc
            pairs.append((_resolve_bundle(by_name, better), _resolve_bundle(by_name, worse)))
        return prefs.PartialOrder.from_pairs(names.m, pairs)
    if kind == "cpnet":
        return _parse_cpnet(names, raw)
    raise ParseError(f"unknown preference kind {kind!r}")


def _parse_list(value, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ParseError(f"{what} must be a list (got {value!r})")
    return value


def _resolve_bundle(by_name: Mapping[str, int], name: str) -> int:
    """The index of the bundle ``name`` names in ``by_name``, an
    instance's ``bundle_by_name``: one lookup, and an unhashable name is
    as unknown as any other non-name."""
    try:
        return by_name[name]
    except (KeyError, TypeError):
        raise ParseError(f"unknown bundle name {name!r}") from None


def _parse_cpnet(names: _Names, raw: Mapping) -> prefs.CPNet:
    """The net as the document spells it: every CPT row, a repeated one
    too, goes to :class:`~mtra.preferences.CPNet`, which checks the
    tables."""
    type_index, item_index = names.type_index, names.item_index
    p = len(type_index)
    # the dependency graph is a set of edges: a repeated edge is read once
    parent_sets: list[set[int]] = [set() for _ in range(p)]
    for edge in _parse_list(raw.get("dependency", ()), "'dependency'"):
        try:
            parent, child = edge
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad dependency edge {edge!r}") from exc
        if any(not isinstance(name, str) or name not in type_index for name in (parent, child)):
            raise ParseError(f"dependency edge {edge!r} names unknown types")
        parent_sets[type_index[child]].add(type_index[parent])
    parents = tuple(tuple(sorted(ps)) for ps in parent_sets)
    tables: list[tuple] = [()] * p
    raw_cpt = raw.get("cpt", {})
    if not isinstance(raw_cpt, Mapping):
        raise ParseError("'cpt' must be an object keyed by type name")
    for tname, rows in raw_cpt.items():
        if tname not in type_index:
            raise ParseError(f"CPT names unknown type {tname!r}")
        if not isinstance(rows, Mapping):
            raise ParseError(f"CPT for type {tname!r} must be an object keyed by parent items")
        ti = type_index[tname]
        table = []
        for key, ordered in rows.items():
            order = tuple(
                _resolve_item(item_index, ti, it)
                for it in _parse_list(ordered, f"CPT row {key!r} of type {tname!r}")
            )
            table.append((_parse_parent_key(names, key, parents[ti]), order))
        tables[ti] = tuple(sorted(table))
    return prefs.CPNet(names.sizes, parents, tuple(tables))


def _parse_parent_key(names: _Names, key: str, parent_list: Sequence[int]) -> tuple[int, ...]:
    """A CPT row key: one item name per parent type, run together in any
    order (``""`` when there are none).  Every way of splitting the key
    into such names counts, so an item name that prefixes another cannot
    hide the right reading; a key with no reading, or with two, is
    refused, and so is a key that is not a string.  The key is read as
    the state (key, all its parent types) of :func:`_split`."""
    if not isinstance(key, str):
        raise ParseError(f"cannot resolve CPT key {key!r}")
    if not parent_list:
        if key:
            raise ParseError(f"parentless CPT row must use key '' (got {key!r})")
        return ()
    readings, short = _split(names, key, sum(1 << t for t in parent_list))
    if len(readings) > 1:
        raise ParseError(f"CPT key {key!r} is ambiguous: {' or '.join(spelling for _, spelling in readings)}")
    if not readings:
        if short:
            raise ParseError(f"CPT key {key!r} does not cover the parent types")
        raise ParseError(f"cannot resolve CPT key {key!r}")
    return readings[0][0]


def _split(names: _Names, rest: str, left: int) -> tuple[tuple[tuple[tuple[int, ...], str], ...], bool]:
    """A CPT key's split in the state (``rest``, the text still to read;
    ``left``, the bitmask of the parent types still unread): its first
    two distinct readings as a depth-first split trying names in item
    order meets them, each the items of ``left`` in type order with its
    spelling, and whether some split uses ``rest`` up with a type left.
    A state's first two readings are among the first two of the states it
    steps to, so each state is read once per document (``names.splits``),
    at most ``len(key) * 2**p`` of them per key.  Each step reads one
    type, so the states form no cycle; they are read from an explicit
    stack, a state once the states it steps to are read, and a key of
    any number of parent types needs no Python recursion."""
    splits = names.splits
    # a state, and None until its steps (name, type, item, next state) are listed
    stack: list[tuple[str, int, list | None]] = [(rest, left, None)]
    while stack:
        text, unread, steps = stack.pop()
        if steps is None:
            if (text, unread) in splits:
                continue
            if not text:  # read up: a reading if no type is left, else a short split
                splits[text, unread] = ((((), ""),), False) if not unread else ((), True)
                continue
            steps = [
                (name, ti, ii, (text[len(name):], unread & ~(1 << ti)))
                for name, (ti, ii) in names.item_index.items()
                if unread >> ti & 1 and text.startswith(name)
            ]
            stack.append((text, unread, steps))
            stack.extend((*state, None) for *_, state in steps if state not in splits)
            continue
        readings: list[tuple[tuple[int, ...], str]] = []
        short = False
        for name, ti, ii, state in steps:
            subs, sub_short = splits[state]
            short = short or sub_short
            at = (unread & ((1 << ti) - 1)).bit_count()  # the types left before ti
            for items, spelling in subs:
                items = (*items[:at], ii, *items[at:])
                if len(readings) < 2 and all(items != other for other, _ in readings):
                    readings.append((items, f"{name}+{spelling}" if spelling else name))
        splits[text, unread] = (tuple(readings), short)
    return splits[rest, left]


def _resolve_item(
    item_index: Mapping[str, tuple[int, int]], type_i: int, name: str
) -> int:
    entry = item_index.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ParseError(f"unknown item name {name!r}")
    ti, ii = entry
    if ti != type_i:
        raise ParseError(f"item {name!r} listed under the wrong type")
    return ii


def parse_instance(text: str) -> tuple[Instance, object]:
    """Returns (instance, tiebreak); tiebreak is None or, per agent, the
    bundle indices of its ranking."""
    doc = _loads(text)
    if not isinstance(doc, Mapping):
        raise ParseError("instance document must be a JSON object")
    instance = build_instance(doc)
    raw = doc.get("tiebreak")
    if isinstance(raw, list):  # one list per agent: a shared list is for tiebreak files
        raw = [_parse_list(agent_tb, "a tiebreak entry") for agent_tb in raw]
    return instance, None if raw is None else _tiebreaks(instance, raw)


def _tiebreaks(instance: Instance, doc: object) -> tuple[tuple[int, ...], ...]:
    """The per-agent rankings of a tie-break spelled in bundle names, a
    list of names or a list of such lists, by :meth:`Instance.tiebreaks`;
    a ``ParseError`` for one it refuses."""
    by_name = instance.bundle_by_name
    if isinstance(doc, list):  # each name, and each name in a list, is read as its bundle's index
        doc = [[_resolve_bundle(by_name, name) for name in entry] if isinstance(entry, list)
               else _resolve_bundle(by_name, entry) for entry in doc]
    try:
        return instance.tiebreaks(doc)
    except DimensionMismatch as exc:
        raise ParseError(str(exc)) from None


def serialize_instance(instance: Instance, tiebreak=None) -> str:
    """The instance document :func:`parse_instance` reads back to
    ``instance`` and ``tiebreak``, or ``DimensionMismatch`` for a
    tie-break or a CPT key it would refuse."""
    names = _Names(instance.types, type_tables(instance.types, instance.n))
    prefs_doc = []
    for pref in instance.preferences:
        if isinstance(pref, prefs.CPNet):
            prefs_doc.append(_cpnet_doc(instance, names, pref))
        else:
            prefs_doc.append(_partial_doc(instance, pref))
    doc = {
        "agents": instance.n,
        "types": [{"name": t.name, "items": list(t.items)} for t in instance.types],
        "preferences": prefs_doc,
    }
    if tiebreak is not None:
        doc["tiebreak"] = _tiebreak_doc(instance, tiebreak)
    return dumps(doc)


def _tiebreak_doc(instance: Instance, tiebreak) -> list[list[str]]:
    """A tie-break as the mechanisms take it (:meth:`Instance.tiebreaks`),
    as :func:`parse_instance` reads it back: one bundle-name list per
    agent.  ``DimensionMismatch`` for one that it would refuse."""
    return [[instance.bundle_names[x] for x in ranking] for ranking in instance.tiebreaks(tiebreak)]


def _partial_doc(instance: Instance, order: prefs.PartialOrder) -> dict:
    return {
        "kind": "partial",
        "edges": [
            [instance.bundle_names[a], instance.bundle_names[b]]
            for a, b in prefs.preference_graph(order)
        ],
    }


def _cpnet_doc(instance: Instance, names: _Names, net: prefs.CPNet) -> dict:
    dependency = []
    for child, parents in enumerate(net.parents):
        for parent in parents:
            dependency.append([instance.types[parent].name, instance.types[child].name])
    cpt: dict[str, dict[str, list[str]]] = {}
    for i, table in enumerate(net.tables):
        rows = {}
        for key, order in table:
            key_name = "".join(
                instance.types[q].items[v] for q, v in zip(net.parents[i], key)
            )
            # the names as written are one reading, so a key read at all reads as its row
            try:
                _parse_parent_key(names, key_name, net.parents[i])
            except ParseError as exc:
                raise DimensionMismatch(
                    f"CPT of type {instance.types[i].name!r} would not read back: {exc}"
                ) from None
            rows[key_name] = [instance.types[i].items[v] for v in order]
        cpt[instance.types[i].name] = rows
    return {"kind": "cpnet", "dependency": dependency, "cpt": cpt}


def parse_tiebreak(text: str, instance: Instance) -> tuple[tuple[int, ...], ...]:
    """A tiebreak file: one bundle-name list shared by all agents, or one
    list per agent."""
    doc = _loads(text)
    if not isinstance(doc, list):
        raise ParseError("tiebreak file must be a JSON list")
    return _tiebreaks(instance, doc)


# -- assignments -------------------------------------------------------------


def serialize_assignment(
    instance: Instance, P: FractionalAssignment, metadata: Mapping | None = None
) -> str:
    """The assignment document: the agent count, the bundle names, per
    agent an object mapping each bundle name to its share, and
    ``metadata``.  Written directly from ``P.nums`` over ``P.den``, one
    gcd per distinct share, it is byte for byte :func:`dumps` of that
    document, which would take JSON's pure-Python indenting encoder."""
    names = instance.bundle_names
    quoted = [json.dumps(name) for name in names]
    order = sorted(range(instance.m), key=names.__getitem__)
    keys = [quoted[x] + ": " for x in order]
    den = P.den
    share = {}
    for v in {v for row in P.nums for v in row}:
        g = math.gcd(v, den)
        share[v] = f'"{v // g}/{den // g}"'
    rows = [_block("{", [key + share[row[x]] for key, x in zip(keys, order)], "}", 6) for row in P.nums]
    meta = json.dumps(dict(metadata or {}), indent=2, sort_keys=True).replace("\n", "\n  ")
    return (
        f'{{\n  "agents": {instance.n},\n  "bundles": {_block("[", quoted, "]", 4)},'
        f'\n  "matrix": {_block("[", rows, "]", 4)},\n  "metadata": {meta}\n}}\n'
    )


def _block(opening: str, items: Sequence[str], closing: str, indent: int) -> str:
    """A JSON list or object of encoded ``items`` as :func:`dumps` lays
    it out, the items ``indent`` spaces in.  A JSON string holds no raw
    newline, so the layout is all in the newlines added here."""
    if not items:
        return opening + closing
    pad = "\n" + " " * indent
    return opening + pad + ("," + pad).join(items) + pad[:-2] + closing


def parse_assignment(text: str, instance: Instance) -> FractionalAssignment:
    doc = _loads(text)
    if not isinstance(doc, Mapping) or "matrix" not in doc:
        raise ParseError("assignment document must be an object with a 'matrix'")
    matrix = doc["matrix"]
    if not isinstance(matrix, Sequence) or len(matrix) != instance.n:
        raise ParseError("matrix must hold one row per agent")
    # each distinct string is parsed once; the memo is keyed by strings
    # only, since true and 1 hash equal and true is refused
    memo: dict[str, tuple[int, int]] = {}
    by_name = instance.bundle_by_name
    rows = []
    for j, row in enumerate(matrix):
        if not isinstance(row, Mapping):
            raise ParseError(f"agent {j} row must be an object keyed by bundle name")
        pairs = [(0, 1)] * instance.m
        for name, share in row.items():
            if not isinstance(share, str):
                v = parse_frac(share)  # a JSON number is exact already; true or null is refused
                pair = v.numerator, v.denominator
            elif (pair := memo.get(share)) is None:
                v = parse_frac(share)
                pair = memo[share] = v.numerator, v.denominator
            pairs[_resolve_bundle(by_name, name)] = pair
        rows.append(pairs)
    P = FractionalAssignment.from_pairs(rows)
    violation = validate_assignment(P, instance)
    if violation is not None:
        raise ParseError(
            f"assignment violates {violation.kind} at {violation.subject}: {_show(violation.actual)}"
        )
    return P


# -- lotteries ---------------------------------------------------------------


def serialize_lottery(instance: Instance, lottery: Lottery, metadata: Mapping | None = None) -> str:
    doc = {
        "entries": [
            {
                "probability": frac_str(prob),
                "assignment": [instance.bundle_names[x] for x in disc.bundles],
            }
            for prob, disc in lottery.entries
        ],
        "metadata": dict(metadata or {}),
    }
    return dumps(doc)


def parse_lottery(text: str, instance: Instance) -> Lottery:
    doc = _loads(text)
    if not isinstance(doc, Mapping) or "entries" not in doc:
        raise ParseError("lottery document must be an object with 'entries'")
    if not isinstance(doc["entries"], list):
        raise ParseError("lottery 'entries' must be a list")
    by_name = instance.bundle_by_name
    entries = []
    # a misshapen entry or a bad probability is the document's fault
    try:
        for e in doc["entries"]:
            if not isinstance(e, Mapping) or "probability" not in e:
                raise ParseError("lottery entry must be an object with a 'probability'")
            if not isinstance(e.get("assignment"), list):
                raise ParseError("lottery entry must list its 'assignment' by bundle name")
            prob = parse_frac(e["probability"])
            disc = DiscreteAssignment(tuple(_resolve_bundle(by_name, name) for name in e["assignment"]))
            disc.validate(instance)
            entries.append((prob, disc))
        return Lottery(tuple(entries))
    except DimensionMismatch as exc:
        raise ParseError(str(exc)) from exc
