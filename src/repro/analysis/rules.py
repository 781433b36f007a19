"""detlint rules: the repository's determinism conventions, machine-checked.

Each rule is an :class:`ast.NodeVisitor` taking the shared
:class:`~repro.analysis.engine.FileContext`; the engine instantiates and
runs every registered rule over each file.  Register new rules with
:func:`register` — the registry is what the CLI, tests and docs enumerate.

The rule set encodes why the repo's bit-identical-results invariant holds:

=========  ==============================================================
DET001     no wall-clock reads (``time.time``/``perf_counter``/...)
           outside the reasoned profiling allowlist
DET002     no global ``random`` / ``numpy.random`` state — randomness
           routes through :class:`repro.common.RandomSource`
DET003     no builtin ``hash()`` — its value depends on
           ``PYTHONHASHSEED``; use :func:`repro.common.stable_seed`
DET004     no iteration / ``sum()`` accumulation over sets in sim-path
           packages — set order depends on ``PYTHONHASHSEED``
DET005     no lambdas / nested callables in ``ScenarioSpec`` /
           ``SweepSpec`` payloads (must pickle)
ARCH001    ``obs/`` is observe-only: no event scheduling, no sim RNG
ARCH002    gateway behavior lands as middleware, not new
           ``InferenceGatewayAPI`` methods
=========  ==============================================================
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Type

from .engine import FileContext

__all__ = ["RULE_REGISTRY", "Rule", "register"]

RULE_REGISTRY: Dict[str, Type["Rule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    RULE_REGISTRY[cls.name] = cls
    return cls


class Rule(ast.NodeVisitor):
    """Base rule: a NodeVisitor bound to the file context."""

    name = "RULE"
    description = ""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx

    def add(self, node: ast.AST, message: str) -> None:
        self.ctx.add(node, self.name, message)


# ---------------------------------------------------------------------------
# DET001 — wall clock

#: Resolved dotted names that read the host's wall clock.  Simulated time is
#: the only clock the sim path may consult; wall time changes run-to-run and
#: silently breaks fingerprint equality when it leaks into results.
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


@register
class WallClockRule(Rule):
    name = "DET001"
    description = ("wall-clock read outside the profiling allowlist "
                   "([tool.detlint.allow_wallclock])")

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.wallclock_reason is None:
            resolved = self.ctx.imports.resolve(node.func)
            if resolved in _WALL_CLOCK:
                self.add(node, f"wall-clock call {resolved}() on the simulated-"
                               "time path; use Environment.now, or add a "
                               "reasoned [tool.detlint.allow_wallclock] entry "
                               "for a wall-profiling module")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# DET002 — global randomness

#: stdlib ``random`` module-level functions (they share one hidden global
#: ``Random`` instance — any draw perturbs every later draw in the process).
#: ``random.Random(seed)`` *instances* are fine: they are explicit, seeded
#: and hash-independent (the numpy-free kernel benchmarks rely on that).
_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "seed", "uniform", "gauss", "normalvariate", "expovariate",
    "lognormvariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "binomialvariate", "getstate", "setstate",
}


@register
class GlobalRandomRule(Rule):
    name = "DET002"
    description = ("global random / numpy.random use outside "
                   "common/randomness.py (route through RandomSource)")

    def visit_Call(self, node: ast.Call) -> None:
        if not self.ctx.is_randomness_module:
            resolved = self.ctx.imports.resolve(node.func)
            if resolved is not None:
                if resolved.startswith("numpy.random."):
                    self.add(node, f"{resolved}() bypasses RandomSource; use "
                                   "RandomSource(seed) / spawn_named(key) from "
                                   "repro.common.randomness")
                else:
                    module, _, fn = resolved.rpartition(".")
                    if module == "random" and fn in _GLOBAL_RANDOM_FNS:
                        self.add(node, f"global random.{fn}() draws from hidden "
                                       "process-wide state; use a seeded "
                                       "RandomSource (or an explicit "
                                       "random.Random(seed) instance)")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# DET003 — builtin hash()


@register
class BuiltinHashRule(Rule):
    name = "DET003"
    description = "builtin hash() is PYTHONHASHSEED-dependent; use stable_seed"

    def visit_Call(self, node: ast.Call) -> None:
        if (not self.ctx.is_randomness_module
                and isinstance(node.func, ast.Name) and node.func.id == "hash"
                and node.func.id not in self.ctx.imports.aliases):
            self.add(node, "hash() on str/bytes/composites changes per process "
                           "under PYTHONHASHSEED; derive keys/seeds with "
                           "repro.common.stable_seed instead")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# DET004 — unordered iteration in sim-path packages

_SET_BUILTINS = {"set", "frozenset"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


class _Scope:
    """Names bound to set values inside one function (shallow inference)."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    target = node
    if isinstance(target, ast.Subscript):  # Set[int] / set[int] / FrozenSet[...]
        target = target.value
    return (isinstance(target, ast.Name)
            and target.id in {"set", "frozenset", "Set", "FrozenSet",
                              "AbstractSet", "MutableSet"})


@register
class UnorderedIterationRule(Rule):
    name = "DET004"
    description = ("iteration / sum() over a set in a sim-path package "
                   "(set order depends on PYTHONHASHSEED); sort first")

    def __init__(self, ctx: FileContext):
        super().__init__(ctx)
        self._scopes: List[_Scope] = [_Scope()]

    # -- set-expression classification ------------------------------------
    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_BUILTINS:
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                # s.union(x) etc. is a set when the receiver is one.
                return self._is_set_expr(func.value)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return any(node.id in scope.set_names for scope in self._scopes)
        return False

    # -- scope tracking ----------------------------------------------------
    def _scan_bindings(self, body: List[ast.stmt], scope: _Scope) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign) and self._is_set_expr(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        scope.set_names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if _annotation_is_set(stmt.annotation) or (
                        stmt.value is not None and self._is_set_expr(stmt.value)):
                    scope.set_names.add(stmt.target.id)

    def _visit_function(self, node) -> None:
        scope = _Scope()
        self._scan_bindings(node.body, scope)
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            if _annotation_is_set(arg.annotation):
                scope.set_names.add(arg.arg)
        self._scopes.append(scope)
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Module(self, node: ast.Module) -> None:
        self._scan_bindings(node.body, self._scopes[0])
        self.generic_visit(node)

    # -- the checks --------------------------------------------------------
    def _check_iter(self, node: ast.AST, iter_expr: ast.AST, what: str) -> None:
        if self.ctx.is_sim_path and self._is_set_expr(iter_expr):
            self.add(node, f"{what} over a set iterates in PYTHONHASHSEED-"
                           "dependent order; iterate sorted(...) (or an "
                           "insertion-ordered dict/list) on the sim path")

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter, "for-loop")
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter(node, gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a set from unordered input is fine (the result is a set
        # either way); only *consuming* set order is hazardous.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # sum() accumulates floats in iteration order — order-dependent
        # rounding.  min/max/len/sorted/any/all are order-independent.
        if (isinstance(node.func, ast.Name) and node.func.id == "sum"
                and node.args and self.ctx.is_sim_path
                and self._is_set_expr(node.args[0])):
            self.add(node, "sum() over a set accumulates floats in "
                           "PYTHONHASHSEED-dependent order; sum(sorted(...)) "
                           "pins the rounding")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# DET005 — pickle-unsafe sweep payloads

#: Constructors whose payloads cross process boundaries (spawn workers pick
#: them up with a fresh interpreter, so everything must pickle by value or
#: by importable reference).
_PICKLED_SPECS = {"ScenarioSpec", "SweepSpec"}


@register
class PickleUnsafeRule(Rule):
    name = "DET005"
    description = ("lambda / nested callable passed into ScenarioSpec / "
                   "SweepSpec (won't pickle to spawn workers)")

    def __init__(self, ctx: FileContext):
        super().__init__(ctx)
        #: Stack of sets of names bound to non-picklable locals (nested
        #: defs, classes and lambdas) per enclosing function.
        self._local_defs: List[Set[str]] = []

    def _visit_function(self, node) -> None:
        locals_here: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                locals_here.add(stmt.name)
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Lambda):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        locals_here.add(target.id)
        self._local_defs.append(locals_here)
        self.generic_visit(node)
        self._local_defs.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _is_unpicklable(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.Name) and any(
                value.id in defs for defs in self._local_defs):
            return f"locally-defined callable {value.id!r}"
        if isinstance(value, ast.Dict):
            for inner in value.values:
                if inner is not None and self._is_unpicklable(inner):
                    return f"{self._is_unpicklable(inner)} (inside a dict value)"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        ctor = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if ctor in _PICKLED_SPECS:
            for value in list(node.args) + [kw.value for kw in node.keywords]:
                what = self._is_unpicklable(value)
                if what:
                    self.add(value, f"{ctor} payload carries {what}; spawn "
                                    "workers re-import cells, so pass a "
                                    "module-level callable or a registered "
                                    "runner name instead")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# ARCH001 — obs/ is observe-only

#: Environment methods that spend simulated time or create events.
_SCHEDULING_ATTRS = {"schedule", "schedule_at", "timeout", "timeout_at",
                     "process"}
#: RandomSource draw methods: a draw from an observe-only layer perturbs
#: the sim's RNG streams, so results would differ with observability on.
_RNG_DRAW_ATTRS = {"uniform", "exponential", "lognormal", "integers",
                   "normal", "jitter", "choice"}


@register
class ObserveOnlyRule(Rule):
    name = "ARCH001"
    description = ("obs/ module schedules sim events or draws RNG "
                   "(the observability plane must be observe-only)")

    def visit_Call(self, node: ast.Call) -> None:
        if self.ctx.is_observe_only and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in _SCHEDULING_ATTRS:
                self.add(node, f".{attr}() creates simulated-time work from an "
                               "observe-only layer; obs code may read env.now "
                               "but never schedule (results must be "
                               "bit-identical with observability off)")
            elif attr in _RNG_DRAW_ATTRS:
                self.add(node, f".{attr}() draws randomness from an observe-"
                               "only layer; sampling decisions must come from "
                               "stable_seed hashing or a dedicated sampler "
                               "stream, never the sim's RandomSource streams")
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# ARCH002 — gateway behavior goes in as middleware


@register
class GatewayApiRule(Rule):
    name = "ARCH002"
    description = ("new InferenceGatewayAPI method (gateway behavior belongs "
                   "in GatewayConfig.middleware_factories)")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        config = self.ctx.config
        if (self.ctx.path == config.gateway_api_file
                and node.name == config.gateway_api_class
                and config.gateway_api_methods):
            allowed = set(config.gateway_api_methods)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and stmt.name not in allowed:
                    self.add(stmt, f"method {stmt.name}() is not in the "
                                   "committed InferenceGatewayAPI roster "
                                   "([tool.detlint] gateway_api_methods); new "
                                   "request behavior belongs in a pipeline "
                                   "stage via GatewayConfig."
                                   "middleware_factories")
        self.generic_visit(node)
