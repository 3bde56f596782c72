"""Per-layer metric names and their computation from traced spans and
``-X importtime`` output.

Layers are the package's modules plus start-up.  Each function listed in
``LAYER_FUNCTIONS`` reports ``<module>.<function>.calls`` and
``.self_s``; each module in ``MODULES`` reports ``<module>.calls``,
``<module>.self_s`` (over all its wrapped public functions) and
``<module>.errors`` (SibsonmiError raised out of the module).  Self time
is a span's duration minus the time of its wrapped child spans.

The program is single-threaded and waits on no queue or other resource
beyond one file read, so no layer has a wait metric.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import COMMANDS

LAYER_FUNCTIONS = {
    "cli": ("load_joint", "parse_event", "Report.render", "run"),
    "core": ("Joint3", "Joint3.conditionals_given_z",
             "EventMask.from_predicate", "markov_product", "tensor_power"),
    "sibson": ("sibson_mi", "cond_sibson_z", "cond_sibson_ygz",
               "conditional_mi", "cond_maximal_leakage"),
    "exponents": ("ep_star", "ep_star_grid", "ep_biconjugate", "eq_biconjugate"),
    "divergences": ("renyi_divergence", "hellinger_integral"),
    "sdpi": ("contraction_search", "sdpi_conditional_check",
             "sdpi_unconditional_check"),
    "oracles": ("simplex_grid", "minimize_on_simplex", "cond_z_oracle",
                "cond_ygz_oracle"),
    "hyptest": ("threshold_test", "exact_errors", "monte_carlo_errors",
                "theorem6_check", "exponent_sweep"),
    "bounds": ("bound_thm1", "bound_thm3", "bound_cor_leakage", "bound_cor_sdpi"),
    "selftest": ("run_selftest",),
}
MODULES = (*LAYER_FUNCTIONS, "instances")

# Counters the tracer records beside the spans, with their units.  A
# ``repeat_frac`` is the tracer's ``<function>.repeats`` count over the
# function's calls; the others are sums.
COUNTERS = {
    "cli.load_joint.bytes": "B",
    "core.Joint3.conditionals_given_z.repeat_frac": "ratio",
    "oracles.simplex_grid.points": "count",
    "hyptest.exact_errors.qz_rows": "count",
    "hyptest.exact_errors.repeat_frac": "ratio",
}

STARTUP = ("interpreter", "numpy", "scipy", "sibsonmi")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"startup.{part}_s": "s" for part in STARTUP}
    units.update({f"cmd.{c}_s": "s" for c in COMMANDS})
    for mod, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_s"] = "s"
    for mod in MODULES:
        units[f"{mod}.calls"] = "count"
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.errors"] = "count"
    units.update(COUNTERS)
    units["trace.overhead_s"] = "s"
    return units


def span_metrics(docs: list[dict]) -> dict[str, float]:
    """Layer metrics of one traced pass, from the span documents the
    tracer wrote for each of its invocations."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    extra: dict[str, float] = defaultdict(float)
    for doc in docs:
        spans = doc["spans"]
        for _id, parent, _op, name, _start, _end, own_ns, error in spans:
            mod = name.split(".", 1)[0]
            for key in (name, mod):
                calls[key] += 1
                self_ns[key] += own_ns
            caller = None if parent is None else spans[parent][3].split(".", 1)[0]
            if error and caller != mod:
                errors[mod] += 1
        for key, value in doc["extra"].items():
            extra[key] += value
    out: dict[str, float] = {}
    for mod, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            out[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
            out[f"{mod}.{fn}.self_s"] = self_ns[f"{mod}.{fn}"] / 1e9
    for mod in MODULES:
        out[f"{mod}.calls"] = calls[mod]
        out[f"{mod}.self_s"] = self_ns[mod] / 1e9
        out[f"{mod}.errors"] = errors[mod]
    for name in COUNTERS:
        fn, _, counter = name.rpartition(".")
        if counter == "repeat_frac":
            out[name] = extra[f"{fn}.repeats"] / calls[fn] if calls[fn] else 0.0
        else:
            out[name] = extra[name]
    return out


def importtime_split(stderr: str) -> dict[str, float]:
    """Seconds of import self time by package, from ``-X importtime``.

    Each imported module's self time goes to the outermost enclosing
    numpy or scipy import, so the numpy submodules scipy pulls in count
    for scipy; else to sibsonmi if a sibsonmi import encloses it.
    Imports outside all three (interpreter start-up) are left out.
    """
    totals = {"numpy": 0.0, "scipy": 0.0, "sibsonmi": 0.0}
    # importtime prints children before their parent, so read bottom-up
    # to see each parent first.
    stack: list[tuple[int, str | None]] = []  # (depth, owning package)
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            own_us = int(fields[0])
        except ValueError:
            continue  # the column header line
        raw = fields[2]
        name = raw.lstrip(" ")
        depth = (len(raw) - len(name)) // 2
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = stack[-1][1] if stack else None
        top = name.split(".", 1)[0]
        if owner in (None, "sibsonmi") and top in ("numpy", "scipy", "sibsonmi"):
            owner = top
        stack.append((depth, owner))
        if owner is not None:
            totals[owner] += own_us / 1e6
    return totals
