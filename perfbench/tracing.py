"""Span tracing of ellbrauer from outside the package.

``Tracer.install`` replaces every public function of every ellbrauer
module, in every module namespace that binds it (so re-bound imports such
as ``brauer.qp_is_square`` or ``cli.classify_surface`` are caught too), with
a wrapper that records a span.  ``Polynomial.__call__`` and
``RationalFunction.__call__`` are recorded as ``exactalg.eval`` and
``Polynomial.__divmod__`` (reached by ``//``, ``%`` and ``divmod``) as
``exactalg.divmod``.  A span is named after the module that defines the
function, wherever it was called through.

Spans live in flat arrays (start, end, parent, name, op) while the run
lasts; ``write`` dumps them once at the end.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import json
import sys
import time
import types
from pathlib import Path

MARK = "__perfbench_original__"
ROOT = "bench.op"

# Dunder methods recorded under a layer name of their own.
DUNDERS = (
    ("Polynomial", "__call__", "exactalg.eval"),
    ("RationalFunction", "__call__", "exactalg.eval"),
    ("Polynomial", "__divmod__", "exactalg.divmod"),
)


def _modules() -> list[types.ModuleType]:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "ellbrauer" or name.startswith("ellbrauer."))
    ]


def _is_public_function(name: str, obj: object) -> bool:
    if name.startswith("_") or isinstance(obj, type):
        return False
    if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", "").startswith("ellbrauer")


def installed_wrappers() -> list[str]:
    """Names of the wrappers currently installed; empty when untraced."""
    found = []
    for module in _modules():
        for name, obj in vars(module).items():
            if hasattr(obj, MARK):
                found.append(f"{module.__name__}.{name}")
    exactalg = sys.modules.get("ellbrauer.exactalg")
    if exactalg is not None:
        for cls_name, attr, _ in DUNDERS:
            if hasattr(getattr(exactalg, cls_name).__dict__[attr], MARK):
                found.append(f"{cls_name}.{attr}")
    return found


class Tracer:
    """Records spans and layer counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.name = array.array("q")
        self.op = array.array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []
        # Counters kept at the layer boundaries.
        self._factored_op = -1
        self._factored: set = set()
        self.factor_repeats = 0
        self.points_returned = 0
        self.points_sampled = 0
        self.points_degenerate = 0

    # -- recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper around fn recording one span named name per call."""
        nid = self.name_id(name)
        start, end, parent, names, ops = (
            self.start, self.end, self.parent, self.name, self.op
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(start)
            start.append(0)
            end.append(0)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(tracer.op_id)
            stack.append(sid)
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def run_op(self, op_id: int, fn):
        """Call fn as operation op_id under a root span."""
        self.op_id = op_id
        return self.wrap(ROOT, fn)()

    # -- counters ------------------------------------------------------

    def _before_factor(self, args) -> None:
        if self._factored_op != self.op_id:
            self._factored_op = self.op_id
            self._factored = set()
        key = args[0] if args else None
        if key in self._factored:
            self.factor_repeats += 1
        else:
            self._factored.add(key)

    def _after_local_points(self, points) -> None:
        self.points_returned += len(points)

    def _after_sampling(self, report) -> None:
        self.points_sampled += report.valid + report.skipped_degenerate
        self.points_degenerate += report.skipped_degenerate

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        hooks = {
            "exactalg.poly_factor": {"before": self._before_factor},
            "brauer.local_points": {"after": self._after_local_points},
            "brauer.sample_vanishing": {"after": self._after_sampling},
        }
        wrappers: dict[int, object] = {}
        for module in _modules():
            for attr, obj in list(vars(module).items()):
                if not _is_public_function(attr, obj):
                    continue
                if id(obj) not in wrappers:
                    home = obj.__module__.rsplit(".", 1)[-1]
                    name = f"{home}.{obj.__name__}"
                    wrappers[id(obj)] = self.wrap(name, obj, **hooks.get(name, {}))
                self._patch(module, attr, wrappers[id(obj)])
        exactalg = sys.modules["ellbrauer.exactalg"]
        for cls_name, attr, name in DUNDERS:
            cls = getattr(exactalg, cls_name)
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span in nanoseconds."""
        child = [0] * len(self.start)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.end[sid] - self.start[sid]
        return [
            self.end[sid] - self.start[sid] - child[sid]
            for sid in range(len(self.start))
        ]

    def layer_totals(self, weights: list[float] | None = None) -> dict[str, dict]:
        """Per span name: calls, self_ns and max_ns (inclusive duration).

        weights[op], when given, scales the times of spans in that op.
        """
        totals = {
            name: {"calls": 0, "self_ns": 0, "max_ns": 0} for name in self.names
        }
        for sid, own in enumerate(self.self_times()):
            weight = 1 if weights is None else weights[self.op[sid]]
            entry = totals[self.names[self.name[sid]]]
            entry["calls"] += 1
            entry["self_ns"] += own * weight
            entry["max_ns"] = max(
                entry["max_ns"], (self.end[sid] - self.start[sid]) * weight
            )
        return totals

    def nested_calls(self, child: str, parent: str) -> int:
        """Number of child spans whose direct parent is a parent span."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        cid, pid = self._name_ids[child], self._name_ids[parent]
        return sum(
            1 for sid in range(len(self.start))
            if self.name[sid] == cid and self.parent[sid] >= 0
            and self.name[self.parent[sid]] == pid
        )

    def root_wall_ns(self) -> int:
        rid = self._name_ids.get(ROOT)
        return sum(
            self.end[sid] - self.start[sid]
            for sid in range(len(self.start)) if self.name[sid] == rid
        )

    def write(self, path: Path) -> None:
        """Dump every span: a JSON header line, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({
                "columns": ["name", "start_ns", "end_ns", "parent", "op"],
                "names": self.names,
            }) + "\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{self.name[sid]}\t{self.start[sid]}\t{self.end[sid]}\t"
                    f"{self.parent[sid]}\t{self.op[sid]}\n"
                )
