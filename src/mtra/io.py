"""File formats: instance documents, assignment matrices, lotteries.

Both formats are JSON with exact rationals carried as "num/den" strings,
so nothing is lost on the wire.  Serialization is canonical (sorted keys,
fixed separators, trailing newline), which makes CLI output byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Sequence

from . import preferences as prefs
from .errors import DimensionMismatch, ParseError
from .model import (
    _DIGIT_BOUND,
    MAX_DIGITS,
    DiscreteAssignment,
    FractionalAssignment,
    Instance,
    Lottery,
    _parse_list,
    _resolve_bundle,
    build_instance,
    validate_assignment,
)
from .model import parse_fraction as parse_frac


def dumps(document: object) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _loads(text: str) -> object:
    # a ValueError is bad JSON or an int literal past the digit limit
    try:
        return json.loads(text)
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


def parse_instance(text: str) -> tuple[Instance, object]:
    """Returns (instance, tiebreak); tiebreak is None or a per-agent list
    of bundle index sequences."""
    doc = _loads(text)
    if not isinstance(doc, Mapping):
        raise ParseError("instance document must be a JSON object")
    instance = build_instance(doc)
    tiebreak = None
    if "tiebreak" in doc and doc["tiebreak"] is not None:
        raw = doc["tiebreak"]
        if not isinstance(raw, Sequence) or len(raw) != instance.n:
            raise ParseError("tiebreak must list one bundle order per agent")
        tiebreak = [_ranking(instance, agent_tb) for agent_tb in raw]
    return instance, tiebreak


def _ranking(instance: Instance, agent_tb: object) -> list[int]:
    """One agent's tiebreak: a list naming every bundle exactly once."""
    ranked = [_resolve_bundle(instance, name) for name in _parse_list(agent_tb, "a tiebreak entry")]
    if sorted(ranked) != list(range(instance.m)):
        raise ParseError("tiebreak must rank every bundle exactly once")
    return ranked


def serialize_instance(instance: Instance, tiebreak=None) -> str:
    prefs_doc = []
    for pref in instance.preferences:
        if isinstance(pref, prefs.CPNet):
            prefs_doc.append(_cpnet_doc(instance, pref))
        else:
            prefs_doc.append(_partial_doc(instance, pref))
    doc = {
        "agents": instance.n,
        "types": [{"name": t.name, "items": list(t.items)} for t in instance.types],
        "preferences": prefs_doc,
    }
    if tiebreak is not None:
        doc["tiebreak"] = [
            [instance.bundle_names[x] for x in agent_tb] for agent_tb in tiebreak
        ]
    return dumps(doc)


def _partial_doc(instance: Instance, order: prefs.PartialOrder) -> dict:
    graph = prefs.preference_graph(order)
    return {
        "kind": "partial",
        "edges": [
            [instance.bundle_names[a], instance.bundle_names[b]] for a, b in graph.edges
        ],
    }


def _cpnet_doc(instance: Instance, net: prefs.CPNet) -> dict:
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
            rows[key_name] = [instance.types[i].items[v] for v in order]
        cpt[instance.types[i].name] = rows
    return {"kind": "cpnet", "dependency": dependency, "cpt": cpt}


def parse_tiebreak(text: str, instance: Instance):
    """A tiebreak file: one bundle-name list shared by all agents, or one
    list per agent."""
    doc = _loads(text)
    if not isinstance(doc, list):
        raise ParseError("tiebreak file must be a JSON list")
    if doc and isinstance(doc[0], str):
        doc = [doc] * instance.n
    if len(doc) != instance.n:
        raise ParseError("tiebreak file must rank bundles for every agent")
    return [_ranking(instance, agent_tb) for agent_tb in doc]


# -- assignments -------------------------------------------------------------


def serialize_assignment(
    instance: Instance, P: FractionalAssignment, metadata: Mapping | None = None
) -> str:
    doc = {
        "agents": instance.n,
        "bundles": list(instance.bundle_names),
        "matrix": [
            {instance.bundle_names[x]: frac_str(row[x]) for x in range(instance.m)}
            for row in P.rows
        ],
        "metadata": dict(metadata or {}),
    }
    return dumps(doc)


def parse_assignment(text: str, instance: Instance) -> FractionalAssignment:
    doc = _loads(text)
    if not isinstance(doc, Mapping) or "matrix" not in doc:
        raise ParseError("assignment document must be an object with a 'matrix'")
    matrix = doc["matrix"]
    if not isinstance(matrix, Sequence) or len(matrix) != instance.n:
        raise ParseError("matrix must hold one row per agent")
    rows = []
    for j, row in enumerate(matrix):
        if not isinstance(row, Mapping):
            raise ParseError(f"agent {j} row must be an object keyed by bundle name")
        values = [Fraction(0)] * instance.m
        for name, share in row.items():
            values[_resolve_bundle(instance, name)] = parse_frac(share)
        rows.append(values)
    P = FractionalAssignment.from_rows(rows)
    if P.den >= _DIGIT_BOUND:
        raise ParseError(f"the shares' common denominator has more than {MAX_DIGITS} digits")
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
    entries = []
    for e in doc["entries"]:
        if not isinstance(e, Mapping) or "probability" not in e:
            raise ParseError("lottery entry must be an object with a 'probability'")
        if not isinstance(e.get("assignment"), list):
            raise ParseError("lottery entry must list its 'assignment' by bundle name")
        prob = parse_frac(e["probability"])
        bundles = tuple(_resolve_bundle(instance, name) for name in e["assignment"])
        disc = DiscreteAssignment(bundles)
        disc.validate(instance)
        entries.append((prob, disc))
    try:
        return Lottery(tuple(entries))
    except DimensionMismatch as exc:
        raise ParseError(str(exc)) from exc
