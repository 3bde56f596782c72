"""Run one ``sibsonmi`` CLI invocation with every public function of the
package wrapped in a timing span, from outside the program.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python perfbench/tracer.py <spans.json> <op-id> <cli args...>

Every public function of every ``sibsonmi.*`` module is replaced by a
wrapper wherever a module holds a binding to it, because
``from .sibson import cond_sibson_z`` copies the function object into
the importing module.  A few class members are wrapped as well
(``CLASS_MEMBERS``).  Spans stay in memory with their parent span and
the invocation's op id and are written to ``spans.json`` when
``cli.main`` returns.  The report on stdout and the exit status are
those of the untraced program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

# (module, class, member, span name); a name equal to the class name
# stands for the constructor.
CLASS_MEMBERS = (
    ("core", "Joint3", "__init__", "Joint3"),
    ("core", "Joint3", "conditionals_given_z", "Joint3.conditionals_given_z"),
    ("core", "EventMask", "from_predicate", "EventMask.from_predicate"),
    ("cli", "Report", "render", "Report.render"),
)


class Tracer:
    """In-memory span recorder for one invocation."""

    def __init__(self, op: str, error_type: type):
        self.op = op
        self.error_type = error_type
        self.spans: list[list] = []
        self.stack: list[list] = []  # open frames: [span id, child ns]
        self.extra: dict[str, float] = {}
        self._seen: dict[tuple, object] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def seen_before(self, key: tuple, keep: object) -> bool:
        """True if ``key`` was already seen in this invocation.  ``keep``
        holds the keyed objects alive so their ids are not reused."""
        if key in self._seen:
            return True
        self._seen[key] = keep
        return False

    def wrap(self, fn, name: str, measure=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else None
            span_id = len(tracer.spans)
            record = [span_id, parent, tracer.op, name, 0, 0, 0, 0]
            tracer.spans.append(record)
            frame = [span_id, 0]
            tracer.stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except tracer.error_type:
                record[7] = 1
                raise
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += end - start
                record[4], record[5], record[6] = start, end, end - start - frame[1]
            if measure is not None:
                measure(tracer, fn, args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        doc = {
            "op": self.op,
            "fields": ["id", "parent", "op", "name", "start_ns", "end_ns",
                       "self_ns", "error"],
            "spans": self.spans,
            "extra": self.extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _load_joint_bytes(tracer, fn, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("cli.load_joint.bytes", os.path.getsize(path))


def _conditionals_repeat(tracer, fn, args, kwargs, result):
    joint = args[0]
    if tracer.seen_before(("conditionals_given_z", id(joint)), joint):
        tracer.count("core.Joint3.conditionals_given_z.repeats")


def _grid_points(tracer, fn, args, kwargs, result):
    tracer.count("oracles.simplex_grid.points", len(result))


def _exact_errors_rows(tracer, fn, args, kwargs, result):
    tracer.count("hyptest.exact_errors.qz_rows", len(result.qz_table))
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    key = ("exact_errors", id(a["j"]), id(a["test"]), a["qz_grid_step"],
           a["state_cap"])
    if tracer.seen_before(key, (a["j"], a["test"])):
        tracer.count("hyptest.exact_errors.repeats")


# Counters recorded after a call returns, by span name.
MEASURES = {
    "cli.load_joint": _load_joint_bytes,
    "core.Joint3.conditionals_given_z": _conditionals_repeat,
    "oracles.simplex_grid": _grid_points,
    "hyptest.exact_errors": _exact_errors_rows,
}


def install(tracer: Tracer, package: str = "sibsonmi") -> None:
    """Wrap every public function of the package and every member of
    ``CLASS_MEMBERS``, rebinding each wrapped function in every module."""
    pkg = importlib.import_module(package)
    modules = [pkg] + [
        importlib.import_module(f"{package}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]
    replacements = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                replacements[obj] = tracer.wrap(obj, name, MEASURES.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, attr, replacements[obj])
    for short, cls_name, member, label in CLASS_MEMBERS:
        cls = getattr(importlib.import_module(f"{package}.{short}"), cls_name)
        raw = cls.__dict__[member]
        name = f"{short}.{label}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, name, MEASURES.get(name)))
        else:
            wrapped = tracer.wrap(raw, name, MEASURES.get(name))
        setattr(cls, member, wrapped)


def main(argv: list[str]) -> int:
    spans_path, op, cli_args = argv[0], argv[1], argv[2:]
    from sibsonmi.errors import SibsonmiError

    tracer = Tracer(op, SibsonmiError)
    install(tracer)
    from sibsonmi import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
