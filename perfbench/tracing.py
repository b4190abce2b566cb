"""Outside-in spans around the package's public callables.

A ``Tracer`` replaces each target callable at every attribute a caller
looks the callable up through: the defining module, each ``avalloc``
module that bound it with ``from .x import f``, and entries of module-level
dicts such as ``harness.BENCH_SUITES``.  Methods are replaced on their
class.  ``uninstall`` puts every original back, so an untraced run calls
the package exactly as a user would.

Spans (name, start, end, parent) stay in memory; ``summarize`` turns them
into calls, total seconds and self seconds per span name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

from perfbench.workloads import lp_shape

MARK = "_perfbench_span"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is a module path, ``attr`` a
    function name or ``Class.method``; ``observe(args, result, memo)``
    returns exact counts read from the callable's arguments and output,
    caching per-input work in the tracer's ``memo`` dict."""

    span: str
    owner: str
    attr: str
    observe: object = None


def _lp_shape(_args, lp, _memo) -> dict:
    return lp_shape(lp)


def _lp_solution(_args, sol, _memo) -> dict:
    return {"iterations": sol.iterations,
            "certified": int(sol.exact_objective is not None)}


def _offline_run(args, result, memo) -> dict:
    """Members join bundles from the instance's N-items."""
    opened, _value = result
    inst = args[0].inst
    if id(inst) not in memo:  # the instance is kept so its id stays unique
        memo[id(inst)] = (inst, len(inst.n_items()))
    return {"opened": len(opened), "members": sum(len(m) for m in opened.values()),
            "slots": memo[id(inst)][1]}


def _online_run(args, result, _memo) -> dict:
    """Members join bundles from the second-half arrivals."""
    opened, members, _value, _trace = result
    horizon = len(args[2])
    return {"opened": len(opened), "members": sum(len(m) for m in members.values()),
            "slots": horizon - horizon // 2}


GENERATORS = (
    "gen_random", "gen_random_iid_model", "gen_iid_lower_bound", "gen_integrality_gap",
    "gen_tightness_example", "gen_supply_example", "gen_adversarial_T",
    "gen_max_coverage", "gen_genava_clique",
)
BUILDERS = (
    "build_naive_lp", "build_bundle_lp", "build_bundle_lp_budgeted",
    "build_opton_lp", "build_optoff_lp",
)

TARGETS = (
    *(Target(f"generators.{g}", "avalloc.generators", g) for g in GENERATORS),
    *(Target(f"lp_models.{b}", "avalloc.lp_models", b, _lp_shape) for b in BUILDERS),
    Target("lp.solve_lp", "avalloc.lp", "solve_lp", _lp_solution),
    Target("rounding.OfflinePlan.__init__", "avalloc.rounding", "OfflinePlan.__init__"),
    Target("rounding.OfflinePlan.run", "avalloc.rounding", "OfflinePlan.run", _offline_run),
    Target("rounding.OnlinePlan.__init__", "avalloc.rounding", "OnlinePlan.__init__"),
    Target("rounding.OnlinePlan.run", "avalloc.rounding", "OnlinePlan.run", _online_run),
    Target("rounding.sample_stream", "avalloc.rounding", "sample_stream"),
    Target("harness.run_offline_trials", "avalloc.harness", "run_offline_trials"),
    Target("harness.run_online_trials", "avalloc.harness", "run_online_trials"),
    Target("harness.bench_examples", "avalloc.harness", "bench_examples"),
    Target("oracles.exact_opt", "avalloc.oracles", "exact_opt"),
    Target("oracles.exact_bundling_opt", "avalloc.oracles", "exact_bundling_opt"),
    Target("cli.main", "avalloc.cli", "main"),
)


class Tracer:
    """Spans timed in CPU seconds of this process; ``install`` wraps every
    target, ``uninstall`` restores the originals."""

    def __init__(self):
        self.targets = TARGETS
        self.clock = time.process_time
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.memo: dict = {}

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(target.span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[idx].error = type(exc).__name__
                raise
            finally:
                tracer.close(idx)
            if target.observe is not None:
                tracer.spans[idx].info = target.observe(args, result, tracer.memo)
            return result

        setattr(wrapper, MARK, target.span)
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import every owner first, so no module binds a wrapper on import
        modules = [importlib.import_module(t.owner) for t in self.targets]
        for target, module in zip(self.targets, modules):
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(target, original), original, setattr)
                continue
            original = getattr(module, target.attr)
            wrapper = self.wrap(target, original)
            for mod in _package_modules(target.owner.split(".")[0]):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapper, original, setattr)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is original:
                                self._set(val, k, wrapper, original, dict.__setitem__)

    def _set(self, container, key, wrapper, original, setter) -> None:
        setter(container, key, wrapper)
        self._patches.append((container, key, original, setter))

    def uninstall(self) -> None:
        while self._patches:
            container, key, original, setter = self._patches.pop()
            setter(container, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def installed_wrappers(package: str = "avalloc") -> list[str]:
    """Every attribute of the package that currently holds a wrapper."""
    found = []
    for mod in _package_modules(package):
        for key, val in vars(mod).items():
            if getattr(val, MARK, None) is not None:
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(val, type):
                found.extend(f"{mod.__name__}.{key}.{k}" for k, v in vars(val).items()
                             if getattr(v, MARK, None) is not None)
            elif isinstance(val, dict):
                found.extend(f"{mod.__name__}.{key}[{k!r}]" for k, v in val.items()
                             if getattr(v, MARK, None) is not None)
    return found


# -- arithmetic on spans ----------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(idx, []), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and all its descendants (spans are stored in
    start order, so descendants follow their ancestor)."""
    inside = {root}
    for idx in range(root + 1, len(spans)):
        if spans[idx].parent in inside:
            inside.add(idx)
    return sorted(inside)


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    errors: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


def summarize(spans: list[Span], indices, names) -> dict[str, SpanStats]:
    """Per-name stats over the spans at ``indices`` whose name is in
    ``names``; every name appears, with zero calls if it never ran.  ``s``
    counts only spans with no ancestor of the same name, so recursion is
    not counted twice."""
    selfs = self_times(spans)
    stats = {name: SpanStats() for name in names}
    for idx in indices:
        sp = spans[idx]
        if sp.name not in stats:
            continue
        st = stats[sp.name]
        st.calls += 1
        st.self_s += selfs[idx]
        if not _has_ancestor_named(spans, idx, sp.name):
            st.s += sp.end - sp.start
        if sp.error is not None:
            st.errors[sp.error] = st.errors.get(sp.error, 0) + 1
        for k, v in sp.info.items():
            st.info[k] = st.info.get(k, 0) + v
    return stats


def _has_ancestor_named(spans, idx, name) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
