"""Span tracing for the traced benchmark run, installed from outside mtra.

A wrapper replaces a library function by rebinding every global in an
``mtra`` module that is the very same object, so names imported with
``from ... import`` (``axioms.solve``, ``cli.mps``, ...) are covered too.
Methods are replaced on their classes.  Spans are kept in memory as
``[name, start, end, parent, op, info]`` and are recorded only while an
op is active; self times and counters are computed from them at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# (module, attribute, metric prefix); methods are listed separately.
FUNCTIONS = (
    ("mtra.lp", "solve", "lp.solve"),
    ("mtra.axioms", "check_sd_efficiency", "axioms.check_sd_efficiency"),
    ("mtra.axioms", "check_decomposability", "axioms.check_decomposability"),
    ("mtra.axioms", "check_ex_post_efficiency", "axioms.check_ex_post_efficiency"),
    ("mtra.axioms", "find_generalized_cycle", "axioms.find_generalized_cycle"),
    ("mtra.axioms", "sd_compare", "axioms.sd_compare"),
    ("mtra.axioms", "ucs_sums", "axioms.ucs_sums"),
    ("mtra.axioms", "check_envy", "axioms.check_envy"),
    ("mtra.axioms", "check_strategyproofness", "axioms.check_strategyproofness"),
    ("mtra.axioms", "check_upper_invariance", "axioms.check_upper_invariance"),
    ("mtra.preferences", "is_uit", "preferences.is_uit"),
    ("mtra.preferences", "induce_order", "preferences.induce_order"),
    ("mtra.preferences", "topological_sort", "preferences.topological_sort"),
    ("mtra.mechanisms", "mps", "mechanisms.mps"),
    ("mtra.mechanisms", "mrp", "mechanisms.mrp"),
    ("mtra.mechanisms", "mgd", "mechanisms.mgd"),
    ("mtra.mechanisms", "mgd_decompose", "mechanisms.mgd_decompose"),
    ("mtra.mechanisms", "serial_dictatorship", "mechanisms.serial_dictatorship"),
    ("mtra.model", "validate_assignment", "model.validate_assignment"),
    ("mtra.model", "all_discrete_assignments", "model.all_discrete_assignments"),
    ("mtra.manipulation", "search_cpt_manipulations", "manipulation.search_cpt_manipulations"),
    ("mtra.io", "parse_instance", "io.parse_instance"),
    ("mtra.io", "parse_assignment", "io.parse_assignment"),
    ("mtra.io", "serialize_assignment", "io.serialize_assignment"),
    ("mtra.io", "serialize_lottery", "io.serialize_lottery"),
    ("mtra.cli", "main", "cli.main"),
)

SP = "axioms.check_strategyproofness"
UI = "axioms.check_upper_invariance"
EX_POST = "axioms.check_ex_post_efficiency"
FOR_AGENT = "spaces.for_agent"
CANDIDATES = "spaces.candidates"
WITH_PREFERENCE = "model.with_preference"


def _info_lp(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    return (len(lp.constraints), lp.num_vars, result.status == "infeasible")


def _info_mps(args, kwargs, result):
    return len(result[1].rounds)


def _info_is_uit(args, kwargs, result):
    return bool(result[0])


def _info_parse_instance(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8"))


def _info_search(args, kwargs, result):
    # No time budget and no early stop, so the search scans exactly
    # max_profiles candidates.
    return (kwargs.get("max_profiles"), len(result))


INFO = {
    "lp.solve": _info_lp,
    "mechanisms.mps": _info_mps,
    "preferences.is_uit": _info_is_uit,
    "io.parse_instance": _info_parse_instance,
    "manipulation.search_cpt_manipulations": _info_search,
}


def _mtra_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "mtra" or name.startswith("mtra.")]


class Tracer:
    """Owns the spans of one traced run and the bindings it replaced."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.seen_cpnets: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _function(self, name, fn):
        tracer = self
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        return wrapper

    def _induce_order(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(cpnet):
            repeat = cpnet in tracer.seen_cpnets
            tracer.seen_cpnets.add(cpnet)
            if tracer.op is None:
                return fn(cpnet)
            rec = tracer._open("preferences.induce_order")
            rec[5] = repeat
            try:
                return fn(cpnet)
            finally:
                tracer._close(rec)

        return wrapper

    def _iterate(self, name, iterable):
        """Yield from ``iterable`` with one span around each ``next()``."""
        it = iter(iterable)
        while True:
            if self.op is None:
                try:
                    item = next(it)
                except StopIteration:
                    return
            else:
                rec = self._open(name)
                rec[5] = 0
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                rec[5] = 1
            yield item

    def _for_agent(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(space, instance, agent):
            if tracer.op is None:
                return fn(space, instance, agent)
            rec = tracer._open(FOR_AGENT)
            rec[5] = 0
            try:
                result = fn(space, instance, agent)
            finally:
                tracer._close(rec)
            return tracer._iterate(FOR_AGENT, result)

        return wrapper

    def _candidates(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(source, instance, assignment):
            return tracer._iterate(CANDIDATES, fn(source, instance, assignment))

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        import mtra.cli  # noqa: F401  (loads every module that gets wrapped)
        import mtra.manipulation  # noqa: F401

        modules = _mtra_modules()
        for module_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            if name == "preferences.induce_order":
                wrapper = self._induce_order(original)
            else:
                wrapper = self._function(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        model = sys.modules["mtra.model"]
        spaces = sys.modules["mtra.spaces"]
        self._replace(model.Instance, "with_preference", self._function(WITH_PREFERENCE, model.Instance.with_preference))
        for cls in vars(spaces).values():
            if not isinstance(cls, type):
                continue
            if issubclass(cls, spaces.MisreportSpace) and "for_agent" in vars(cls):
                self._replace(cls, "for_agent", self._for_agent(vars(cls)["for_agent"]))
            if issubclass(cls, spaces.TransformSource) and "candidates" in vars(cls):
                self._replace(cls, "candidates", self._candidates(vars(cls)["candidates"]))

    def _replace(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output --------------------------------------------------------

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can report, summed over the run."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        names = [name for _, _, name in FUNCTIONS] + [WITH_PREFERENCE, FOR_AGENT, CANDIDATES]
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        for i, rec in enumerate(spans):
            calls[rec[0]] += 1
            self_s[rec[0]] += (rec[2] - rec[1]) - child[i]

        def nearest(i, wanted):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in wanted:
                    return spans[parent][0]
                parent = spans[parent][3]
            return None

        lp = [rec[5] for rec in spans if rec[0] == "lp.solve"]
        ex_post_lp = sum(1 for i, rec in enumerate(spans) if rec[0] == "lp.solve" and nearest(i, {EX_POST}))
        checkers = {SP, UI}
        reruns = {SP: 0, UI: 0}
        for i, rec in enumerate(spans):
            if rec[0] == WITH_PREFERENCE:
                owner = nearest(i, checkers)
                if owner:
                    reruns[owner] += 1
        sp_yielded = sum(
            1 for i, rec in enumerate(spans) if rec[0] == FOR_AGENT and rec[5] and nearest(i, {SP})
        )
        uit = [rec[5] for rec in spans if rec[0] == "preferences.is_uit"]
        induce = [rec[5] for rec in spans if rec[0] == "preferences.induce_order"]
        search = [rec[5] for rec in spans if rec[0] == "manipulation.search_cpt_manipulations"]
        parsed = [rec[5] for rec in spans if rec[0] == "io.parse_instance"]

        def share(part, whole):
            return part / whole if whole else 0.0

        out: dict[str, float] = {}
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(
            {
                "lp.solve.rows_mean": share(sum(r for r, _, _ in lp), len(lp)),
                "lp.solve.cols_mean": share(sum(c for _, c, _ in lp), len(lp)),
                "lp.solve.infeasible_share": share(sum(1 for _, _, bad in lp if bad), len(lp)),
                f"{EX_POST}.lp_calls": ex_post_lp,
                f"{SP}.reruns": reruns[SP],
                f"{SP}.rerun_share": share(reruns[SP], sp_yielded),
                f"{UI}.reruns": reruns[UI],
                "preferences.is_uit.valid_share": share(sum(uit), len(uit)),
                "preferences.induce_order.repeat_share": share(sum(induce), len(induce)),
                "mechanisms.mps.rounds": sum(rec[5] for rec in spans if rec[0] == "mechanisms.mps"),
                f"{FOR_AGENT}.yielded": sum(rec[5] for rec in spans if rec[0] == FOR_AGENT),
                f"{CANDIDATES}.yielded": sum(rec[5] for rec in spans if rec[0] == CANDIDATES),
                "manipulation.search_cpt_manipulations.profiles": sum(p for p, _ in search),
                "manipulation.search_cpt_manipulations.hits": sum(h for _, h in search),
                "io.parse_instance.bytes": sum(parsed),
            }
        )
        return out
