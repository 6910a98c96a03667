"""Layer tracing for the traced benchmark run.

Hooks wrap the public functions of each ``dexchange`` module under the name
the caller looks up, because the package imports functions by name:
``model.rank`` and ``netcode.rank`` rather than ``gf.rank``, and
``ratealloc.min_pinned`` rather than ``sfm_minimizer`` (which ``ratealloc``
binds as a default argument when it is defined).  A hook whose target no
longer exists is skipped and the metrics built on it are reported as absent
(``None``); it never fails the run.  Untraced runs install no hooks.

Each hooked call is a span, except for the count-only hooks.  Per span
name the tracer keeps the call count, the total duration and the self time
(duration minus the time covered by child spans), plus parent/child call
counts, so ratios such as the rank memo's hit ratio are measured where the
work happens.  While ``keep_spans``
is set, spans of every name except ``model.joint_rank`` (called hundreds of
thousands of times per op) are also kept in memory, to be written out when
the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import Counter
from time import perf_counter

#: Span names left out of the span log; their aggregates are still kept.
HOT = frozenset({"model.joint_rank"})
#: Hooks that only count calls and open no span.  ``cut_set_f`` is a thin
#: shell around ``joint_rank`` called once per enumerated subset; timing it
#: would double the hook cost on the hottest path and move the coordinate
#: loop's own time out of ``sfm.min_pinned`` and ``ratealloc.subgrad``.
COUNT_ONLY = frozenset({"model.cut_set_f"})


# Extra counts taken from a hooked call's arguments or result.  Each returns
# the amount to add to the hook's count key.


def _rows(tracer, args, kwargs, result, exc):
    return args[0].rows


def _subsets(tracer, args, kwargs, result, exc):
    ground = kwargs["ground"] if "ground" in kwargs else args[3]
    return 1 << bin(ground.free).count("1")


def _rounds(tracer, args, kwargs, result, exc):
    return exc.rounds_completed if exc is not None else len(result.tsets)


def _draw(tracer, args, kwargs, result, exc):
    tracer.last_draw = None if exc is not None else result[1]
    return 0


def _draw_verified(tracer, args, kwargs, result, exc):
    # A draw is useful when it finished all rounds and its own schedule
    # (the object randomized_alloc returned) then verified decodable.
    return int(exc is None and args[1] is tracer.last_draw and result.all_ok)


#: span name -> (hook targets "module:attr.path", count key, extractor)
HOOKS = {
    "gf.rank": (("dexchange.model:rank", "dexchange.netcode:rank"), "gf.rank.rows", _rows),
    "gf.rowbasis_add": (("dexchange.netcode:RowBasis.add",), None, None),
    "gf.solve": (("dexchange.netcode:solve_full_rank",), None, None),
    "model.joint_rank": (("dexchange.model:CutSetOracle.joint_rank",), None, None),
    "model.cut_set_f": (("dexchange.model:CutSetOracle.cut_set_f",), None, None),
    "model.load_instance": (("dexchange.cli:load_instance",), None, None),
    "sfm.min_pinned": (
        ("dexchange.ratealloc:min_pinned",),
        "sfm.min_pinned.subsets",
        _subsets,
    ),
    "ratealloc.min_cost": (("dexchange:min_cost",), None, None),
    "ratealloc.min_sum_rate": (("dexchange.ratealloc:min_sum_rate",), None, None),
    "ratealloc.eval_h": (("dexchange:eval_h", "dexchange.ratealloc:eval_h"), None, None),
    "ratealloc.modified_edmonds": (("dexchange.ratealloc:modified_edmonds",), None, None),
    "ratealloc.convex_alloc": (
        ("dexchange.ratealloc:convex_alloc",),
        "ratealloc.rounds",
        _rounds,
    ),
    "ratealloc.subgrad": (("dexchange.ratealloc:subgrad_coordinate",), None, None),
    "netcode.randomized_alloc": (
        ("dexchange.cli:randomized_alloc",),
        "netcode.draws_ok",
        _draw,
    ),
    "netcode.verify": (
        ("dexchange.cli:verify_decodable", "dexchange.netcode:verify_decodable"),
        "netcode.draws_ok",
        _draw_verified,
    ),
    "netcode.construct": (("dexchange.cli:construct_code",), None, None),
    "netcode.decode": (("dexchange.cli:decode",), None, None),
    "netcode.schedule_json": (
        ("dexchange.cli:save_schedule", "dexchange.cli:load_schedule"),
        None,
        None,
    ),
    "cli.main": (("dexchange.cli:main",), None, None),
}

#: Driver spans of the rate-allocation layer; their self times add up to
#: ``ratealloc.self_s``.  The subgradient engine is reported on its own.
RATEALLOC_DRIVERS = (
    "ratealloc.min_cost",
    "ratealloc.min_sum_rate",
    "ratealloc.eval_h",
    "ratealloc.modified_edmonds",
    "ratealloc.convex_alloc",
)


def _resolve(target):
    """(owner, attribute) for ``module:attr.path``, or None if it is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Span aggregates plus an in-memory span log for one traced run."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.edges = Counter()
        self.counts = Counter()
        self.broken: set[str] = set()
        self.installed: set[str] = set()
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.last_draw = None
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def _enter(self, name):
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self):
        end = perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        parent_name = parent[0] if parent is not None else None
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.edges[(parent_name, name)] += 1
        if self.keep_spans and name not in HOT:
            self.spans.append((self.op, name, parent_name, start, end))

    @contextlib.contextmanager
    def op_span(self, op_index):
        """Trace one benchmark op as a root span named ``op``."""
        self.op = op_index
        self.on = True
        self._enter("op")
        try:
            yield
        finally:
            self._exit()
            self.on = False

    def _wrap(self, name, fn, key, extract):
        tracer = self
        calls = self.calls

        def counted(*args, **kwargs):
            if tracer.on:
                calls[name] += 1
            return fn(*args, **kwargs)

        def hooked(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer._enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as raised:
                exc = raised
                raise
            finally:
                tracer._exit()
                if extract is not None and key not in tracer.broken:
                    try:
                        tracer.counts[key] += extract(tracer, args, kwargs, result, exc)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        tracer.broken.add(key)

        wrapper = counted if name in COUNT_ONLY else hooked
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for name, (targets, key, extract) in HOOKS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, key, extract))
                self._patched.append((owner, attr, original))
                self.installed.add(name)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def metrics(self, ops):
        """Per-op layer metrics; None where a hook target or count is missing."""
        c, t, s, k = self.calls, self.total, self.self_time, self.counts

        def have(names, key=None):
            return all(n in self.installed for n in names) and key not in self.broken

        def per_op(value, *names, key=None):
            return value / ops if have(names, key) else None

        def ratio(num, den, *names, key=None):
            if not have(names, key):
                return None
            return num / den if den else 0.0

        computed = self.edges[("model.joint_rank", "gf.rank")]
        draws = c["netcode.randomized_alloc"]
        return {
            "gf.rank.calls": per_op(c["gf.rank"], "gf.rank"),
            "gf.rank.rows": per_op(k["gf.rank.rows"], "gf.rank", key="gf.rank.rows"),
            "gf.rank.s": per_op(t["gf.rank"], "gf.rank"),
            "gf.rowbasis_add.calls": per_op(c["gf.rowbasis_add"], "gf.rowbasis_add"),
            "gf.rowbasis_add.s": per_op(t["gf.rowbasis_add"], "gf.rowbasis_add"),
            "gf.solve.calls": per_op(c["gf.solve"], "gf.solve"),
            "gf.solve.s": per_op(t["gf.solve"], "gf.solve"),
            "model.joint_rank.calls": per_op(c["model.joint_rank"], "model.joint_rank"),
            "model.joint_rank.computed": per_op(computed, "model.joint_rank", "gf.rank"),
            "model.joint_rank.hit_ratio": ratio(
                c["model.joint_rank"] - computed, c["model.joint_rank"],
                "model.joint_rank", "gf.rank",
            ),
            "model.joint_rank.self_s": per_op(s["model.joint_rank"], "model.joint_rank"),
            "model.cut_set_f.calls": per_op(c["model.cut_set_f"], "model.cut_set_f"),
            "model.load_instance.s": per_op(t["model.load_instance"], "model.load_instance"),
            "sfm.min_pinned.calls": per_op(c["sfm.min_pinned"], "sfm.min_pinned"),
            "sfm.min_pinned.subsets": per_op(
                k["sfm.min_pinned.subsets"], "sfm.min_pinned", key="sfm.min_pinned.subsets"
            ),
            "sfm.min_pinned.self_s": per_op(s["sfm.min_pinned"], "sfm.min_pinned"),
            "ratealloc.coord_steps": per_op(
                c["sfm.min_pinned"] + c["ratealloc.subgrad"], "sfm.min_pinned", "ratealloc.subgrad"
            ),
            "ratealloc.rounds": per_op(
                k["ratealloc.rounds"], "ratealloc.convex_alloc", key="ratealloc.rounds"
            ),
            "ratealloc.budget_probes": per_op(
                c["ratealloc.modified_edmonds"] + c["ratealloc.convex_alloc"],
                "ratealloc.modified_edmonds", "ratealloc.convex_alloc",
            ),
            "ratealloc.self_s": per_op(sum(s[n] for n in RATEALLOC_DRIVERS), *RATEALLOC_DRIVERS),
            "ratealloc.subgrad.calls": per_op(c["ratealloc.subgrad"], "ratealloc.subgrad"),
            "ratealloc.subgrad.self_s": per_op(s["ratealloc.subgrad"], "ratealloc.subgrad"),
            "netcode.draws": per_op(draws, "netcode.randomized_alloc"),
            "netcode.draw_ok_ratio": ratio(
                k["netcode.draws_ok"], draws,
                "netcode.randomized_alloc", "netcode.verify", key="netcode.draws_ok",
            ),
            "netcode.randomized_alloc.self_s": per_op(
                s["netcode.randomized_alloc"], "netcode.randomized_alloc"
            ),
            "netcode.verify.calls": per_op(c["netcode.verify"], "netcode.verify"),
            "netcode.verify.s": per_op(t["netcode.verify"], "netcode.verify"),
            "netcode.decode.calls": per_op(c["netcode.decode"], "netcode.decode"),
            "netcode.decode.s": per_op(t["netcode.decode"], "netcode.decode"),
            "netcode.construct.s": per_op(t["netcode.construct"], "netcode.construct"),
            "netcode.schedule_json.s": per_op(t["netcode.schedule_json"], "netcode.schedule_json"),
            "cli.commands": per_op(c["cli.main"], "cli.main"),
            "cli.self_s": per_op(s["cli.main"], "cli.main"),
        }

    def write_spans(self, path, header):
        """Write the span log as JSON, times relative to the first span."""
        t0 = min((span[3] for span in self.spans), default=0.0)
        doc = dict(header)
        doc["fields"] = ["op", "name", "parent", "start_s", "end_s"]
        doc["spans"] = [
            [op, name, parent, round(start - t0, 7), round(end - t0, 7)]
            for op, name, parent, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
            f.write("\n")
