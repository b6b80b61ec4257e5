"""The D0xx determinism rules enforced by ``python -m repro.devtools.lint``.

Each rule is small and repo-specific: it encodes one coding rule that the
repo's determinism contracts (seeded replay, byte-identical reports, digest
cache keys) depend on.  The ``bad`` / ``good`` snippets on each rule are
both the ``--explain`` documentation and the fixture pairs exercised by the
test suite, so the examples can never rot.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence

from repro.devtools.engine import Finding, ModuleContext, Rule

# --------------------------------------------------------------------- helpers


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def canonical_call_name(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve a call target through the module's import aliases.

    ``np.random.normal`` -> ``numpy.random.normal`` under ``import numpy as
    np``; ``time()`` -> ``time.time`` under ``from time import time``.
    """
    name = dotted_name(func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


_SET_ANNOTATIONS = {"Set", "FrozenSet", "AbstractSet", "MutableSet", "set", "frozenset"}
_SET_METHODS = {"difference", "union", "intersection", "symmetric_difference", "copy"}
_SET_OPS = (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    name = dotted_name(annotation)
    return name is not None and name.split(".")[-1] in _SET_ANNOTATIONS


class _SetTypes:
    """Tracks which local names are statically set-typed inside one scope."""

    def __init__(self, params: Sequence[ast.arg] = ()) -> None:
        self.names: set[str] = {
            param.arg for param in params if _annotation_is_set(param.annotation)
        }

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_set(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return self.is_set(node.left) or self.is_set(node.right)
        return False

    def observe(self, stmt: ast.stmt) -> None:
        """Record set-typed names bound by an assignment statement."""
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
            if isinstance(target, ast.Name):
                if self.is_set(value):
                    self.names.add(target.id)
                else:
                    self.names.discard(target.id)
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and (
                _annotation_is_set(stmt.annotation)
                or (stmt.value is not None and self.is_set(stmt.value))
            )
        ):
            self.names.add(stmt.target.id)


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` in source order without entering nested function scopes."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _scope_nodes(child)


def _iter_scopes(tree: ast.Module) -> Iterator[tuple[ast.AST, Sequence[ast.arg]]]:
    yield tree, ()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            yield node, params


def _has_rng_call(node: ast.AST) -> bool:
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            name = dotted_name(call.func)
            if name and any(
                "rng" in part.lower() or "random" in part.lower() for part in name.split(".")
            ):
                return True
    return False


def _module_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module-level statements, descending into ``if`` / ``try`` blocks."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        yield stmt
        if isinstance(stmt, ast.If):
            stack.extend(stmt.body)
            stack.extend(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            stack.extend(stmt.body)
            for handler in stmt.handlers:
                stack.extend(handler.body)
            stack.extend(stmt.orelse)
            stack.extend(stmt.finalbody)


# ----------------------------------------------------------------------- D001


class UnseededRandomRule(Rule):
    code = "D001"
    title = "unseeded / global RNG in engine code"
    rationale = """
Engine code must draw randomness from an explicitly seeded generator
(``np.random.default_rng(seed)`` / ``random.Random(seed)``): the module-level
``random.*`` and legacy ``np.random.*`` functions share hidden global state,
so any call breaks byte-identical replay for every caller in the process.
"""
    bad = """
import random

def jitter() -> float:
    return random.random()
"""
    good = """
import random

def jitter(seed: int) -> float:
    return random.Random(seed).random()
"""

    _RANDOM_OK = {"Random", "SystemRandom", "getstate", "setstate"}
    _NUMPY_OK = {
        "default_rng",
        "Generator",
        "SeedSequence",
        "RandomState",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_modules(ctx.config.engine_modules):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = canonical_call_name(node.func, ctx.aliases)
            if name is None:
                continue
            parts = name.split(".")
            if parts[0] == "random" and len(parts) == 2 and parts[1] not in self._RANDOM_OK:
                yield ctx.finding(
                    self.code,
                    node,
                    f"call to global RNG {name}(); use an explicitly seeded "
                    "random.Random(seed) instance",
                )
            elif (
                len(parts) >= 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] not in self._NUMPY_OK
            ):
                yield ctx.finding(
                    self.code,
                    node,
                    f"call to legacy global RNG {name}(); use "
                    "np.random.default_rng(seed) instead",
                )


# ----------------------------------------------------------------------- D002


class WallClockRule(Rule):
    code = "D002"
    title = "wall-clock read in engine code"
    rationale = """
Simulated time is the only clock engine code may consult.  A wall-clock read
(``time.time()``, ``datetime.now()``) makes output depend on when the code
ran, which breaks replay equality and poisons sha256 digest cache keys.
Benchmarks live outside ``src/`` and may time whatever they like.
"""
    bad = """
import time

def stamp() -> float:
    return time.time()
"""
    good = """
def stamp(now_hours: float) -> float:
    return now_hours
"""

    _CLOCKS = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_modules(ctx.config.engine_modules):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = canonical_call_name(node.func, ctx.aliases)
            if name in self._CLOCKS:
                yield ctx.finding(
                    self.code,
                    node,
                    f"wall-clock read {name}(); engine code must only consume "
                    "simulated time passed in by the caller",
                )


# ----------------------------------------------------------------------- D003


class UnorderedIterationRule(Rule):
    code = "D003"
    title = "ordered output built from unordered set iteration"
    rationale = """
``set`` / ``frozenset`` iteration order depends on insertion history, so any
ordered artifact built from it (a loop with order-dependent effects, a list,
a joined string) can differ between runs that hold the same set.  Modules
that feed reports or digests must iterate ``sorted(...)``.  Comprehensions
that merely rebuild a set are exempt unless they draw randomness, where the
element-to-draw pairing silently depends on iteration order.
"""
    example_module = "repro.scheduler.example"
    bad = """
def report_lines(faulty: set) -> list:
    return [f"node-{node}" for node in faulty]
"""
    good = """
def report_lines(faulty: set) -> list:
    return [f"node-{node}" for node in sorted(faulty)]
"""

    _ORDERED_SINKS = {"list", "tuple", "enumerate"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_modules(ctx.config.ordered_modules):
            return
        for scope, params in _iter_scopes(ctx.tree):
            types = _SetTypes(params)
            for node in _scope_nodes(scope):
                if isinstance(node, ast.stmt):
                    types.observe(node)
                if isinstance(node, ast.For) and types.is_set(node.iter):
                    yield ctx.finding(
                        self.code,
                        node.iter,
                        "iteration over a set/frozenset is unordered; "
                        "iterate over sorted(...) instead",
                    )
                elif isinstance(node, ast.ListComp):
                    for gen in node.generators:
                        if types.is_set(gen.iter):
                            yield ctx.finding(
                                self.code,
                                gen.iter,
                                "list built from unordered set iteration; "
                                "iterate over sorted(...) instead",
                            )
                elif isinstance(node, (ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    for gen in node.generators:
                        if types.is_set(gen.iter) and _has_rng_call(node):
                            yield ctx.finding(
                                self.code,
                                gen.iter,
                                "RNG drawn while iterating a set: the element-to-draw "
                                "pairing depends on set order; iterate over sorted(...)",
                            )
                elif isinstance(node, ast.Call):
                    func = node.func
                    sink: str | None = None
                    if isinstance(func, ast.Name) and func.id in self._ORDERED_SINKS:
                        sink = func.id
                    elif isinstance(func, ast.Attribute) and func.attr == "join":
                        sink = "join"
                    if sink and node.args and types.is_set(node.args[0]):
                        yield ctx.finding(
                            self.code,
                            node,
                            f"{sink}() over a set/frozenset produces an unordered "
                            "sequence; pass sorted(...) instead",
                        )


# ----------------------------------------------------------------------- D004


class FloatAccumulationRule(Rule):
    code = "D004"
    title = "bare float accumulation in a duration-weighted loop"
    rationale = """
``total += value * duration`` in a loop accumulates rounding error that
depends on summation order, so two mathematically equal replays can emit
different bytes.  Duration-weighted aggregation must go through
``math.fsum`` or the ``repro.analysis.cdf`` helpers (whose module is
allow-listed), or carry an explicit ``# repro: allow[D004]``.
"""
    example_module = "repro.scheduler.example"
    bad = """
def total_waste(intervals) -> float:
    total = 0.0
    for interval in intervals:
        total += interval.waste * interval.duration_hours
    return total
"""
    good = """
import math

def total_waste(intervals) -> float:
    return math.fsum(interval.waste * interval.duration_hours for interval in intervals)
"""

    _WEIGHT_HINTS = ("duration", "hour", "weight", "second", "elapsed")

    def _weighted_product(self, value: ast.expr) -> bool:
        has_mult = any(
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            for node in ast.walk(value)
        )
        if not has_mult:
            return False
        for node in ast.walk(value):
            name: str | None = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is None:
                continue
            lowered = name.lower()
            if lowered == "dt" or any(hint in lowered for hint in self._WEIGHT_HINTS):
                return True
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        config = ctx.config
        if not ctx.in_modules(config.ordered_modules):
            return
        if ctx.in_modules(config.accumulation_allow_modules):
            return
        loops: list[ast.AST] = [
            node for node in ast.walk(ctx.tree) if isinstance(node, (ast.For, ast.While))
        ]
        for loop in loops:
            body = loop.body + getattr(loop, "orelse", [])
            for stmt in body:
                for node in ast.walk(stmt):
                    if (
                        isinstance(node, ast.AugAssign)
                        and isinstance(node.op, ast.Add)
                        and isinstance(node.target, (ast.Name, ast.Attribute))
                        and self._weighted_product(node.value)
                    ):
                        yield ctx.finding(
                            self.code,
                            node,
                            "bare float += of a duration-weighted product in a loop; "
                            "use math.fsum for order-stable sums",
                        )


# ----------------------------------------------------------------------- D005


class MutableDefaultRule(Rule):
    code = "D005"
    title = "mutable default argument"
    rationale = """
A mutable default (``def f(seen=[])``) is created once and shared by every
call, so state leaks between invocations -- hidden cross-call coupling that
seeded replays cannot reproduce.  Default to ``None`` and materialize inside
the function.
"""
    bad = """
def collect(item, seen=[]):
    seen.append(item)
    return seen
"""
    good = """
def collect(item, seen=None):
    seen = [] if seen is None else seen
    seen.append(item)
    return seen
"""

    _MUTABLE_CALLS = {
        "list",
        "dict",
        "set",
        "bytearray",
        "defaultdict",
        "deque",
        "Counter",
        "OrderedDict",
    }

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and name.split(".")[-1] in self._MUTABLE_CALLS
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is not None and self._is_mutable(default):
                    yield ctx.finding(
                        self.code,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and build it inside the function",
                    )


# ----------------------------------------------------------------------- D006


class NonFrozenSpecRule(Rule):
    code = "D006"
    title = "non-frozen dataclass in a spec module"
    rationale = """
Spec dataclasses are hashed into sha256 digests and used as cache keys;
mutating one after construction silently desynchronizes the digest from the
object.  Dataclasses in spec modules must be declared ``frozen=True``.
"""
    example_module = "repro.api.spec"
    bad = """
from dataclasses import dataclass

@dataclass
class TraceSlice:
    start: float = 0.0
"""
    good = """
from dataclasses import dataclass

@dataclass(frozen=True)
class TraceSlice:
    start: float = 0.0
"""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_modules(ctx.config.spec_modules):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if dotted_name(target) not in {"dataclass", "dataclasses.dataclass"}:
                    continue
                frozen = isinstance(decorator, ast.Call) and any(
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                    for keyword in decorator.keywords
                )
                if not frozen:
                    yield ctx.finding(
                        self.code,
                        node,
                        f"dataclass {node.name} in a spec module must be frozen=True "
                        "(specs are digested into cache keys)",
                    )


# ----------------------------------------------------------------------- D007


class CacheMutationRule(Rule):
    code = "D007"
    title = "container mutated while being iterated"
    rationale = """
Mutating a dict / set while iterating it raises ``RuntimeError`` only
sometimes -- for some mutation patterns it silently skips or revisits
entries depending on hash-table internals, which is nondeterministic across
runs.  Iterate over a snapshot (``list(cache)``) instead.
"""
    bad = """
def prune(cache: dict) -> None:
    for key in cache:
        if key < 0:
            del cache[key]
"""
    good = """
def prune(cache: dict) -> None:
    for key in list(cache):
        if key < 0:
            del cache[key]
"""

    _MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "add", "remove", "discard"}
    _VIEWS = {"items", "keys", "values"}

    def _iterated_name(self, iter_node: ast.expr) -> str | None:
        if isinstance(iter_node, ast.Name):
            return iter_node.id
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in self._VIEWS
            and isinstance(iter_node.func.value, ast.Name)
        ):
            return iter_node.func.value.id
        return None

    def _mutates(self, body: Sequence[ast.stmt], name: str) -> ast.AST | None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == name
                        ):
                            return node
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == name
                        ):
                            return node
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._MUTATORS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                ):
                    return node
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            name = self._iterated_name(node.iter)
            if name is None:
                continue
            site = self._mutates(node.body, name)
            if site is not None:
                yield ctx.finding(
                    self.code,
                    site,
                    f"{name!r} is mutated while being iterated; "
                    f"iterate over a snapshot (for ... in list({name}))",
                )


# ----------------------------------------------------------------------- D008


class AllExportsRule(Rule):
    code = "D008"
    title = "__all__ out of sync with the module's public names"
    rationale = """
The re-export hubs and public modules declare ``__all__`` so the API surface
is explicit (and so mypy's no-implicit-reexport accepts the hubs).  A public
definition missing from ``__all__`` -- or a stale ``__all__`` entry naming
nothing -- silently changes ``import *`` behaviour and what type checkers
consider exported.
"""
    bad = """
def helper() -> None:
    pass

__all__ = ["helper", "missing"]
"""
    good = """
def helper() -> None:
    pass

__all__ = ["helper"]
"""

    _EXEMPT_VALUE_CALLS = {"TypeVar", "ParamSpec", "TypeVarTuple", "NewType", "namedtuple"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        statements = list(_module_statements(ctx.tree))
        declared: list[str] | None = None
        all_node: ast.stmt | None = None
        for stmt in statements:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "__all__"
                and isinstance(stmt.value, (ast.List, ast.Tuple))
            ):
                elements = stmt.value.elts
                if all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in elements):
                    declared = [e.value for e in elements]  # type: ignore[union-attr]
                    all_node = stmt
        if declared is None or all_node is None:
            return

        defined: dict[str, ast.stmt] = {}
        imported: dict[str, ast.stmt] = {}
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(stmt.name, stmt)
            elif isinstance(stmt, ast.Assign):
                if isinstance(stmt.value, ast.Call):
                    name = dotted_name(stmt.value.func)
                    if name and name.split(".")[-1] in self._EXEMPT_VALUE_CALLS:
                        continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, stmt)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None and isinstance(stmt.target, ast.Name):
                    defined.setdefault(stmt.target.id, stmt)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in getattr(stmt, "names", []):
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(bound, stmt)

        is_hub = ctx.path.endswith("__init__.py")
        declared_set = set(declared)

        def is_public(name: str) -> bool:
            return not name.startswith("_")

        for name, stmt in sorted(defined.items()):
            if name in imported:
                continue  # ``x = None`` fallback next to a guarded ``import x``
            if is_public(name) and name not in declared_set:
                yield ctx.finding(
                    self.code,
                    stmt,
                    f"public name {name!r} is missing from __all__",
                )
        if is_hub:
            package_root = ctx.module.split(".")[0]
            for name, stmt in sorted(imported.items()):
                if (
                    is_public(name)
                    and isinstance(stmt, ast.ImportFrom)
                    and name not in declared_set
                    and (
                        bool(stmt.level)
                        or (
                            stmt.module is not None
                            and stmt.module.split(".")[0] == package_root
                        )
                    )
                ):
                    yield ctx.finding(
                        self.code,
                        stmt,
                        f"re-export hub imports {name!r} but omits it from __all__",
                    )
        known = set(defined) | set(imported)
        for name in declared:
            if name not in known:
                yield ctx.finding(
                    self.code,
                    all_node,
                    f"__all__ lists {name!r} which the module never defines or imports",
                )


# ----------------------------------------------------------------------- D009


class UnseededGeneratorRule(Rule):
    code = "D009"
    title = "RNG constructed without an explicit seed"
    rationale = """
D001 bans draws from the hidden global RNGs; this rule closes the remaining
gap: *constructing* a generator without a seed (``np.random.default_rng()``,
``np.random.RandomState()``, ``random.Random()``).  An unseeded generator is
seeded from the OS entropy pool, so every run replays differently even though
no global state is touched.  Engine code must thread an explicit seed down to
every generator it creates.
"""
    bad = """
import numpy as np

def sample() -> float:
    rng = np.random.default_rng()
    return float(rng.uniform())
"""
    good = """
import numpy as np

def sample(seed: int) -> float:
    rng = np.random.default_rng(seed)
    return float(rng.uniform())
"""

    _CONSTRUCTORS = {
        "random.Random",
        "numpy.random.RandomState",
        "numpy.random.default_rng",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_modules(ctx.config.engine_modules):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = canonical_call_name(node.func, ctx.aliases)
            if name not in self._CONSTRUCTORS:
                continue
            if self._is_unseeded(node):
                yield ctx.finding(
                    self.code,
                    node,
                    f"{name}() constructed without an explicit seed; pass a "
                    "deterministic seed so replays are byte-identical",
                )

    @staticmethod
    def _is_unseeded(node: ast.Call) -> bool:
        if node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for keyword in node.keywords:
            if keyword.arg is None:
                return False  # **kwargs: cannot tell, do not guess
            if keyword.arg == "seed":
                value = keyword.value
                return isinstance(value, ast.Constant) and value.value is None
        return True


# -------------------------------------------------------------------- registry

_RULE_CLASSES: tuple[type[Rule], ...] = (
    UnseededRandomRule,
    WallClockRule,
    UnorderedIterationRule,
    FloatAccumulationRule,
    MutableDefaultRule,
    NonFrozenSpecRule,
    CacheMutationRule,
    AllExportsRule,
    UnseededGeneratorRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every built-in rule, in code order."""
    return [cls() for cls in _RULE_CLASSES]


def rule_by_code(code: str) -> type[Rule] | None:
    for cls in _RULE_CLASSES:
        if cls.code == code:
            return cls
    return None


__all__ = [
    "AllExportsRule",
    "CacheMutationRule",
    "FloatAccumulationRule",
    "MutableDefaultRule",
    "NonFrozenSpecRule",
    "UnorderedIterationRule",
    "UnseededGeneratorRule",
    "UnseededRandomRule",
    "WallClockRule",
    "canonical_call_name",
    "default_rules",
    "dotted_name",
    "rule_by_code",
]
