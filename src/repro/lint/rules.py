"""The built-in invariant rules, ``RPR101``–``RPR107``.

Each rule guards one invariant the test suite can only defend
point-wise; the docstrings below are rendered verbatim into the docs
site's rule catalogue (``docs/reference/lint-rules.md``), so they are
written for users: what the invariant is, why it matters, what the rule
flags, and what the sanctioned alternative looks like.

Importing this module populates :data:`repro.lint.registry.rule_registry`
(it is the registry's autoload target).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint.model import Finding, Module, Project, dotted_name
from repro.lint.registry import LintRule, register_rule

__all__ = [
    "DeterminismRule",
    "OrderHazardRule",
    "CacheKeyCompletenessRule",
    "StageContractRule",
    "AsyncHygieneRule",
    "RegistryDriftRule",
    "ExceptionSwallowRule",
    "KERNEL_PACKAGES",
]

#: The bit-identity surface: every module whose arithmetic feeds the
#: signatures, counters and clusterings that must reproduce exactly
#: at every worker count and across machines.
KERNEL_PACKAGES = (
    "repro.ir",
    "repro.mem",
    "repro.instrumentation",
    "repro.clustering",
    "repro.isa",
    "repro.hw",
    "repro.runtime",
)


def _walk_skipping_nested_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Yield nodes of one function body without entering nested defs.

    Nested ``def``/``lambda`` bodies execute on *their* caller's
    schedule (often a thread-pool executor), not where they are
    defined, so rules about the enclosing function must not attribute
    their statements to it.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


# --------------------------------------------------------------- RPR101
@register_rule
class DeterminismRule(LintRule):
    """Kernel modules must not reach for ambient nondeterminism.

    Every number in the repository reproduces bit-identically from the
    root seed because all randomness flows through
    :class:`repro.util.rng.RngTree` — streams addressed by stable
    string paths, independent of process, thread schedule, and
    ``PYTHONHASHSEED``.  A single ``random.random()`` / ``time.time()``
    / unseeded ``np.random`` call inside the signature/counter kernels
    silently breaks the cross-backend byte-identity guarantee (and the
    content-addressed cache built on it) in ways only a lucky test
    would catch.

    Flags, inside the kernel packages (``repro.ir``, ``repro.mem``,
    ``repro.instrumentation``, ``repro.clustering``, ``repro.isa``,
    ``repro.hw``, ``repro.runtime``):

    * imports of ``random`` / ``secrets``;
    * calls into ``time.*``, ``datetime.now/utcnow/today``,
      ``os.urandom``, ``uuid.uuid1/uuid4``;
    * any module-level ``np.random.*`` call — the global-state
      functions (``np.random.rand`` …) are flagged as nondeterministic,
      and even seeded ``np.random.default_rng``/``SeedSequence``
      construction is flagged because generator *construction* belongs
      in :mod:`repro.util.rng`, the one sanctioned entry point
      (kernels accept a ``gen: np.random.Generator`` parameter
      instead).

    Deliberate, seed-derived construction sites (the streamed-trace
    granule generators) are grandfathered in ``lint-baseline.json``
    with their justification.
    """

    name = "RPR101"
    title = "no ambient nondeterminism inside bit-identity kernels"
    severity = "error"
    packages = KERNEL_PACKAGES

    _BANNED_MODULES = ("random", "secrets")
    _BANNED_CALLS = frozenset(
        {
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "os.urandom",
            "uuid.uuid1",
            "uuid.uuid4",
        }
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in self._BANNED_MODULES:
                        yield module.finding(
                            self.name,
                            node,
                            f"import of nondeterministic module {top!r}; "
                            "draw from the configuration's RngTree instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                top = (node.module or "").split(".")[0]
                if node.level == 0 and top in self._BANNED_MODULES:
                    yield module.finding(
                        self.name,
                        node,
                        f"import from nondeterministic module {top!r}; "
                        "draw from the configuration's RngTree instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_call(self, module: Module, node: ast.Call) -> Iterable[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        if name.startswith("time."):
            yield module.finding(
                self.name,
                node,
                f"{name}() is wall-clock dependent; kernels must be pure "
                "functions of their inputs and seeds",
            )
        elif name in self._BANNED_CALLS:
            yield module.finding(
                self.name,
                node,
                f"{name}() is nondeterministic; kernels must be pure "
                "functions of their inputs and seeds",
            )
        elif name.startswith(("np.random.", "numpy.random.")):
            leaf = name.rsplit(".", 1)[1]
            if leaf in ("default_rng", "SeedSequence", "Generator"):
                yield module.finding(
                    self.name,
                    node,
                    f"direct {name}(...) construction; repro.util.rng is "
                    "the sanctioned entry — accept a Generator parameter "
                    "or derive one from an RngTree path",
                )
            else:
                yield module.finding(
                    self.name,
                    node,
                    f"{name}() uses numpy's global random state; derive a "
                    "seeded Generator from the configuration's RngTree",
                )


# --------------------------------------------------------------- RPR102
@register_rule
class OrderHazardRule(LintRule):
    """Kernel code must not iterate sets: set order is not a number.

    CPython iterates a ``set`` in hash-table order, which for strings
    depends on ``PYTHONHASHSEED`` and for general objects on allocation
    history — two runs of the *same* configuration can observe
    different orders.  Any kernel loop, comprehension, or
    ``list()``/``tuple()``/``join()`` materialisation that consumes a
    set directly therefore feeds order-dependent accumulation
    (floating-point sums reassociate; concatenations permute) and
    breaks byte-identity between backends.

    Flags iteration whose iterable is a set literal, a set
    comprehension, a ``set()``/``frozenset()`` call, or a union /
    intersection / difference of those — unless wrapped in
    ``sorted(...)``, which is the sanctioned way to linearise a set.
    Membership tests (``x in s``) and ``len(s)`` are fine and not
    flagged.
    """

    name = "RPR102"
    title = "no direct set iteration in kernel accumulation paths"
    severity = "error"
    packages = KERNEL_PACKAGES

    _CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter):
                    yield self._finding(module, node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    if self._is_set_expr(gen.iter):
                        yield self._finding(module, gen.iter)
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                consumes = (name in self._CONSUMERS) or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                )
                if consumes and node.args and self._is_set_expr(node.args[0]):
                    yield self._finding(module, node.args[0])

    def _finding(self, module: Module, node: ast.AST) -> Finding:
        return module.finding(
            self.name,
            node,
            "iteration over a set observes hash order, which is not "
            "reproducible; wrap in sorted(...) before consuming",
        )

    @classmethod
    def _is_set_expr(cls, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return cls._is_set_expr(node.left) or cls._is_set_expr(node.right)
        return False


# ------------------------------------------------- class-table plumbing
@dataclass
class _ClassInfo:
    """Statically-extracted view of one ClassDef for the stage rules."""

    module: Module
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    attrs: dict[str, ast.expr] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module.name}.{self.node.name}"


class _ClassTable:
    """Project-wide class index with Stage-subclass resolution.

    Bases are resolved by simple name against every class in the
    analysed tree — good enough for a single package where class names
    are unique, and deliberately tolerant of imports the analyser never
    executes.
    """

    def __init__(self, project: Project) -> None:
        self.by_simple_name: dict[str, _ClassInfo] = {}
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                info = _ClassInfo(
                    module=module,
                    node=node,
                    bases=tuple(
                        n for n in (dotted_name(b) for b in node.bases) if n
                    ),
                )
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        info.methods[item.name] = item
                    elif isinstance(item, ast.Assign):
                        for target in item.targets:
                            if isinstance(target, ast.Name):
                                info.attrs[target.id] = item.value
                    elif isinstance(item, ast.AnnAssign) and item.value is not None:
                        if isinstance(item.target, ast.Name):
                            info.attrs[item.target.id] = item.value
                self.by_simple_name[node.name] = info

    def is_stage(self, info: _ClassInfo) -> bool:
        seen: set[str] = set()
        stack = list(info.bases)
        while stack:
            base = stack.pop().split(".")[-1]
            if base in seen:
                continue
            seen.add(base)
            if base == "Stage":
                return True
            parent = self.by_simple_name.get(base)
            if parent is not None:
                stack.extend(parent.bases)
        return False

    def mro(self, info: _ClassInfo) -> list[_ClassInfo]:
        """The class and its analysed ancestors, subclass first."""
        chain = [info]
        seen = {info.node.name}
        cursor = list(info.bases)
        while cursor:
            base = cursor.pop(0).split(".")[-1]
            if base in seen:
                continue
            seen.add(base)
            parent = self.by_simple_name.get(base)
            if parent is not None:
                chain.append(parent)
                cursor.extend(parent.bases)
        return chain

    def resolve_method(self, info: _ClassInfo, name: str):
        for cls in self.mro(info):
            if name in cls.methods:
                return cls, cls.methods[name]
        return None, None

    def resolve_attr(self, info: _ClassInfo, name: str) -> ast.expr | None:
        for cls in self.mro(info):
            if name in cls.attrs:
                return cls.attrs[name]
        return None

    def stage_classes(self) -> Iterator[_ClassInfo]:
        for info in self.by_simple_name.values():
            if self.is_stage(info) and self._stage_name(info):
                yield info

    def _stage_name(self, info: _ClassInfo) -> str:
        node = self.resolve_attr(info, "name")
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return ""

    @staticmethod
    def string_tuple(node: ast.expr | None) -> tuple[str, ...] | None:
        """A statically-known tuple of strings, else None."""
        if node is None:
            return ()
        if isinstance(node, (ast.Tuple, ast.List)):
            out = []
            for element in node.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None
                out.append(element.value)
            return tuple(out)
        return None


def _config_fields_read(func: ast.FunctionDef) -> set[str]:
    """Names X for every ``<expr>.config.X`` attribute read in ``func``."""
    fields: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Attribute):
            continue
        name = dotted_name(node)
        if name is None:
            continue
        parts = name.split(".")
        # `config` must appear as an attribute (never the root binding),
        # mirroring how stages reach it: ctx.config.<field>.
        for i in range(1, len(parts) - 1):
            if parts[i] == "config":
                fields.add(parts[i + 1])
                break
    return fields


def _self_calls(func: ast.FunctionDef) -> set[str]:
    calls: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name and name.startswith("self."):
                calls.add(name.split(".", 1)[1].split(".")[0])
    return calls


def _closure_config_reads(
    table: _ClassTable, info: _ClassInfo, method: str
) -> set[str]:
    """Config fields read by ``method`` or any self-helper it calls."""
    fields: set[str] = set()
    visited: set[str] = set()
    queue = [method]
    while queue:
        name = queue.pop()
        if name in visited:
            continue
        visited.add(name)
        _, func = table.resolve_method(info, name)
        if func is None:
            continue
        fields |= _config_fields_read(func)
        queue.extend(_self_calls(func))
    return fields


# --------------------------------------------------------------- RPR103
@register_rule
class CacheKeyCompletenessRule(LintRule):
    """Every config knob a stage reads must reach its ``cache_key``.

    Stage payloads are content-addressed: the execution layer re-runs a
    stage exactly when its ``cache_key`` (or an upstream digest)
    changes.  A configuration field — ``ExperimentConfig`` /
    ``PipelineConfig`` / ``SimPointOptions`` — that ``run()`` reads but
    ``cache_key()`` omits therefore serves *stale cached results* when
    that knob changes: the class of bug PR 1 fixed by hand for
    ``max_k``.

    For every :class:`~repro.api.stage.Stage` subclass, the rule
    collects ``<ctx>.config.<field>`` reads reachable from ``run()``
    (following ``self.<helper>()`` calls, inherited methods included)
    and requires each field to also be reachable from ``cache_key()``.
    Helpers like ``effective_options`` satisfy the rule naturally:
    both ``run`` and ``cache_key`` call them, so both sides observe the
    same field set.

    The rule sees direct attribute reads only; config fields consumed
    *inside* :class:`~repro.api.context.StageContext` helpers (e.g. the
    measurement protocol in ``ctx.measured_means``) must still be named
    in ``cache_key`` by hand, as ``MeasureStage`` does for
    ``protocol``.
    """

    name = "RPR103"
    title = "stage cache keys must cover every config field run() reads"
    severity = "error"

    def check_project(self, project: Project) -> Iterable[Finding]:
        table = _ClassTable(project)
        for info in table.stage_classes():
            run_reads = _closure_config_reads(table, info, "run")
            key_reads = _closure_config_reads(table, info, "cache_key")
            missing = sorted(run_reads - key_reads)
            if missing:
                fields = ", ".join(f"config.{name}" for name in missing)
                yield info.module.finding(
                    self.name,
                    info.node,
                    f"stage {info.node.name} reads {fields} in run() but "
                    "cache_key() does not cover "
                    f"{'it' if len(missing) == 1 else 'them'} — a change "
                    "to that knob would serve stale cached payloads",
                )


# --------------------------------------------------------------- RPR104
@register_rule
class StageContractRule(LintRule):
    """A stage's context traffic must match its declared contract.

    ``Stage.inputs`` / ``Stage.outputs`` are not documentation: the
    builder validates graph completeness against them, the docs site
    renders them, and cache-hit decode paths must publish exactly what
    a live run would.  A stage that reads an undeclared artifact works
    only while some upstream stage happens to publish it; a stage that
    never publishes a declared output starves everything downstream of
    it — both failure modes surface far from the offending class.

    For every :class:`~repro.api.stage.Stage` subclass the rule checks,
    against the (inherited) ``inputs``/``outputs`` tuples:

    * ``ctx.require(name)`` / ``ctx.get(name)`` in ``run``/``encode``
      — ``name`` must be a declared input or output (own outputs are
      readable once published, e.g. re-reading accumulated
      ``failures``);
    * ``ctx.put(name)`` in ``run``/``decode`` — ``name`` must be a
      declared output;
    * every declared input must actually be read somewhere in ``run``
      (or a ``self.`` helper it calls).

    Only string-literal artifact names are checked; stages with
    dynamically-computed names should carry a pragma explaining the
    scheme.
    """

    name = "RPR104"
    title = "StageContext reads/writes must match declared inputs/outputs"
    severity = "error"

    #: method name → positional index of the StageContext parameter
    #: (after ``self``).
    _CTX_PARAM = {"run": 0, "encode": 0, "decode": 1}

    def check_project(self, project: Project) -> Iterable[Finding]:
        table = _ClassTable(project)
        for info in table.stage_classes():
            inputs = table.string_tuple(table.resolve_attr(info, "inputs"))
            outputs = table.string_tuple(table.resolve_attr(info, "outputs"))
            if inputs is None or outputs is None:
                continue  # dynamic contract — out of static reach
            declared = set(inputs) | set(outputs)
            reads_in_run: set[str] = set()
            for method, ctx_index in self._CTX_PARAM.items():
                owner, func = table.resolve_method(info, method)
                if func is None or owner is not info:
                    # Inherited methods are checked on the class that
                    # defines them; re-checking here would duplicate
                    # findings for every subclass.
                    continue
                for kind, name, node in self._context_traffic(func, ctx_index):
                    if kind in ("require", "get"):
                        if method == "run":
                            reads_in_run.add(name)
                        if name not in declared:
                            yield info.module.finding(
                                self.name,
                                node,
                                f"{info.node.name}.{method} reads artifact "
                                f"{name!r} which is neither a declared "
                                "input nor output",
                            )
                    elif kind == "put" and name not in set(outputs):
                        yield info.module.finding(
                            self.name,
                            node,
                            f"{info.node.name}.{method} publishes artifact "
                            f"{name!r} which is not a declared output",
                        )
            owner, _ = table.resolve_method(info, "run")
            if owner is info:
                reads_in_run |= self._helper_reads(table, info)
                for name in inputs:
                    if name not in reads_in_run:
                        yield info.module.finding(
                            self.name,
                            info.node,
                            f"{info.node.name} declares input {name!r} but "
                            "run() never reads it",
                        )

    def _helper_reads(self, table: _ClassTable, info: _ClassInfo) -> set[str]:
        """Artifact names read via ``self.<helper>`` calls from run()."""
        reads: set[str] = set()
        _, run = table.resolve_method(info, "run")
        if run is None:
            return reads
        for helper_name in _self_calls(run):
            _, helper = table.resolve_method(info, helper_name)
            if helper is None:
                continue
            for kind, name, _node in self._any_context_traffic(helper):
                if kind in ("require", "get"):
                    reads.add(name)
        return reads

    @staticmethod
    def _traffic_from(
        func: ast.FunctionDef, receivers: set[str]
    ) -> Iterator[tuple[str, str, ast.Call]]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr not in ("require", "get", "put"):
                continue
            receiver = dotted_name(node.func.value)
            if receiver not in receivers:
                continue
            if node.args and isinstance(node.args[0], ast.Constant):
                value = node.args[0].value
                if isinstance(value, str):
                    yield attr, value, node

    def _context_traffic(
        self, func: ast.FunctionDef, ctx_index: int
    ) -> Iterator[tuple[str, str, ast.Call]]:
        params = [a.arg for a in func.args.args if a.arg != "self"]
        if ctx_index >= len(params):
            return
        yield from self._traffic_from(func, {params[ctx_index]})

    def _any_context_traffic(
        self, func: ast.FunctionDef
    ) -> Iterator[tuple[str, str, ast.Call]]:
        params = {a.arg for a in func.args.args if a.arg != "self"}
        yield from self._traffic_from(func, params)


# --------------------------------------------------------------- RPR105
@register_rule
class AsyncHygieneRule(LintRule):
    """No blocking calls on the serve loop's event thread.

    One asyncio loop multiplexes every client of ``repro serve``; a
    single synchronous disk read or sleep inside a coroutine stalls
    *all* connections, turning the daemon's p50 into its p99.  The
    fix is always the same: hand the blocking callable to
    ``loop.run_in_executor(...)`` (passing the function, not calling
    it) and await the future.

    Flags, inside ``async def`` bodies under ``repro.serve`` (nested
    sync ``def``\\ s are exempt — they run on the executor):

    * ``time.sleep`` (use ``asyncio.sleep``), ``subprocess.*``,
      ``os.system``, ``socket.create_connection``, ``http.client.*``,
      ``urllib.request.*``, ``requests.*``, ``shutil.*``;
    * builtin ``open()`` and ``Path`` I/O methods
      (``read_text``/``write_text``/``read_bytes``/``write_bytes``);
    * this codebase's known-blocking store surfaces:
      ``.load(...)``, ``.store(...)``, ``.load_by_digest(...)``,
      ``.scan(...)``, ``.evict(...)`` — mmap'd container reads and
      eviction walks do real disk work;
    * calls to synchronous methods of the same module that themselves
      (transitively) perform any of the above.
    """

    name = "RPR105"
    title = "no blocking calls inside async def bodies in repro.serve"
    severity = "error"
    packages = ("repro.serve",)

    _BLOCKING_EXACT = frozenset({"time.sleep", "os.system"})
    _BLOCKING_PREFIXES = (
        "subprocess.",
        "http.client.",
        "urllib.request.",
        "requests.",
        "shutil.",
        "socket.create_connection",
    )
    _BLOCKING_METHODS = frozenset(
        {
            "read_text",
            "write_text",
            "read_bytes",
            "write_bytes",
            "load",
            "store",
            "load_by_digest",
            "scan",
            "evict",
        }
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        sync_blocking = self._sync_blocking_table(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for child in _walk_skipping_nested_functions(node):
                if not isinstance(child, ast.Call):
                    continue
                reason = self._blocking_reason(child)
                if reason is not None:
                    yield module.finding(
                        self.name,
                        child,
                        f"blocking call {reason} inside async def "
                        f"{node.name}; hand it to run_in_executor instead",
                    )
                    continue
                callee = self._local_callee(child)
                if callee is not None and callee in sync_blocking:
                    root = sync_blocking[callee]
                    yield module.finding(
                        self.name,
                        child,
                        f"async def {node.name} calls sync {callee}() "
                        f"which blocks (via {root}); await an executor "
                        "future instead",
                    )

    # ------------------------------------------------------------ helpers
    def _blocking_reason(self, node: ast.Call) -> str | None:
        name = dotted_name(node.func)
        if name == "open":
            return "open()"
        if name is not None:
            if name in self._BLOCKING_EXACT:
                return f"{name}()"
            if name.startswith(self._BLOCKING_PREFIXES):
                return f"{name}()"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self._BLOCKING_METHODS
        ):
            receiver = dotted_name(node.func.value) or "<expr>"
            return f"{receiver}.{node.func.attr}()"
        return None

    @staticmethod
    def _local_callee(node: ast.Call) -> str | None:
        name = dotted_name(node.func)
        if name is None:
            return None
        if name.startswith("self."):
            parts = name.split(".")
            if len(parts) == 2:
                return parts[1]
        elif "." not in name:
            return name
        return None

    def _sync_blocking_table(self, module: Module) -> dict[str, str]:
        """sync function name → first blocking call it (transitively) makes."""
        direct: dict[str, str] = {}
        calls: dict[str, set[str]] = {}
        async_nested: set[ast.FunctionDef] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                for child in ast.walk(node):
                    if isinstance(child, ast.FunctionDef):
                        async_nested.add(child)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef) or node in async_nested:
                continue
            calls[node.name] = set()
            for child in _walk_skipping_nested_functions(node):
                if not isinstance(child, ast.Call):
                    continue
                reason = self._blocking_reason(child)
                if reason is not None and node.name not in direct:
                    direct[node.name] = reason
                callee = self._local_callee(child)
                if callee is not None:
                    calls[node.name].add(callee)
        # Propagate blocking-ness through local sync call chains.
        blocking = dict(direct)
        changed = True
        while changed:
            changed = False
            for name, callees in calls.items():
                if name in blocking:
                    continue
                for callee in callees:
                    if callee in blocking:
                        blocking[name] = f"{callee} → {blocking[callee]}"
                        changed = True
                        break
        return blocking


# --------------------------------------------------------------- RPR106
@register_rule
class RegistryDriftRule(LintRule):
    """Plugin modules must be imported by their registry's autoload chain.

    Registration happens at import time (``@register_stage`` and
    friends run when the module body executes), and each
    :class:`~repro.api.registry.PluginRegistry` imports exactly one
    autoload module before its first lookup.  A plugin module that no
    autoload target (or a package ``__init__`` on its import chain)
    imports simply never registers: ``create("myapp")`` raises
    ``KeyError`` with no hint that the class exists, which is how a
    rename or an ``__init__`` cleanup silently drops a workload.

    The rule reads every ``PluginRegistry(..., autoload=...)``
    declaration in the tree, seeds a breadth-first walk of the static
    import graph from those modules (plus the packages Python imports
    on the way to them), and flags any module that uses
    ``@register_stage`` / ``@register_workload`` / ``@register_machine``
    / ``@register_rule`` (or calls ``register_machine(...)``
    imperatively) without being reachable from that walk.
    """

    name = "RPR106"
    title = "every registering module must be reachable from an autoload"
    severity = "error"

    _REGISTRARS = (
        "register_stage",
        "register_workload",
        "register_machine",
        "register_rule",
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        roots = self._autoload_roots(project)
        reachable = self._reachable(project, roots)
        for module in project.modules:
            node = self._first_registration(module)
            if node is not None and module.name not in reachable:
                yield module.finding(
                    self.name,
                    node,
                    f"{module.name} registers plugins but is not imported "
                    "from any registry autoload module "
                    f"({', '.join(sorted(roots)) or 'none found'}) — "
                    "registration will silently never happen",
                )

    def _first_registration(self, module: Module) -> ast.AST | None:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                for decorator in node.decorator_list:
                    name = dotted_name(decorator) or dotted_name(
                        getattr(decorator, "func", ast.Pass())
                    )
                    if name and name.split(".")[-1] in self._REGISTRARS:
                        return decorator
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name and name.split(".")[-1] in self._REGISTRARS:
                    return node
        return None

    @staticmethod
    def _autoload_roots(project: Project) -> set[str]:
        roots: set[str] = set()
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if not (name and name.split(".")[-1] == "PluginRegistry"):
                    continue
                for keyword in node.keywords:
                    if (
                        keyword.arg == "autoload"
                        and isinstance(keyword.value, ast.Constant)
                        and isinstance(keyword.value.value, str)
                    ):
                        roots.add(keyword.value.value)
        return roots

    def _reachable(self, project: Project, roots: set[str]) -> set[str]:
        # Importing a.b.c first executes a and a.b — seed the walk with
        # every ancestor package of every autoload target.
        queue: list[str] = []
        for root in roots:
            parts = root.split(".")
            for i in range(1, len(parts) + 1):
                queue.append(".".join(parts[:i]))
        seen: set[str] = set()
        while queue:
            name = queue.pop()
            if name in seen:
                continue
            seen.add(name)
            module = project.module(name)
            if module is None:
                continue
            queue.extend(self._imports_of(module, project))
        return seen

    @staticmethod
    def _imports_of(module: Module, project: Project) -> Iterator[str]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in project.by_name:
                        yield alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    base = node.module or ""
                else:
                    # Relative import: resolve against this module's
                    # package (``__init__`` modules *are* their package).
                    is_package = module.path.name == "__init__.py"
                    parts = module.name.split(".")
                    if not is_package:
                        parts = parts[:-1]
                    parts = parts[: len(parts) - (node.level - 1)]
                    if node.module:
                        parts += node.module.split(".")
                    base = ".".join(parts)
                if base in project.by_name:
                    yield base
                for alias in node.names:
                    candidate = f"{base}.{alias.name}" if base else alias.name
                    if candidate in project.by_name:
                        yield candidate


# --------------------------------------------------------------- RPR107
@register_rule
class ExceptionSwallowRule(LintRule):
    """The resilience layers must never swallow exceptions silently.

    ``repro.exec`` and ``repro.serve`` are exactly the packages whose
    job is to *handle* failure: supervised retries, torn-write
    self-heals, graceful drain.  A handler there that catches
    everything and does nothing — ``except: pass`` — doesn't handle a
    failure, it deletes the evidence: a quarantine that should have
    fired becomes a silent wrong answer, a corrupt container becomes a
    cache entry nobody knows is gone.  Broad handlers are fine when
    they *act* (retry, record a heal counter, convert to a typed
    failure, re-raise); they are flagged when they only discard.

    Flags, inside ``repro.exec`` and ``repro.serve``:

    * a bare ``except:`` whose body contains no ``raise`` — bare
      handlers catch ``KeyboardInterrupt``/``SystemExit`` too, so
      anything short of re-raising also eats shutdown requests;
    * ``except Exception`` / ``except BaseException`` (alone or in a
      tuple) whose body is only ``pass``, ``...``, or a docstring —
      i.e. the handler observes nothing and records nothing.

    Narrow handlers (``except OSError: pass`` on a best-effort cleanup
    path) are deliberate degradation, not swallowing, and are not
    flagged.  The one sanctioned broad swallow — ``__del__`` guards,
    where raising during GC is worse than silence — is grandfathered in
    ``lint-baseline.json``.
    """

    name = "RPR107"
    title = "no silently swallowed exceptions in repro.exec / repro.serve"
    severity = "error"
    packages = ("repro.exec", "repro.serve")

    _BROAD = frozenset({"Exception", "BaseException"})

    def check_module(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                if not any(
                    isinstance(child, ast.Raise) for child in ast.walk(node)
                ):
                    yield module.finding(
                        self.name,
                        node,
                        "bare except without re-raise swallows every "
                        "exception (KeyboardInterrupt included); catch the "
                        "expected types, or act and re-raise",
                    )
            elif self._is_broad(node.type) and self._body_is_inert(node.body):
                yield module.finding(
                    self.name,
                    node,
                    "broad exception handler whose body only discards; a "
                    "resilience layer must act on failure — retry, record "
                    "a heal/fault counter, or narrow the caught types",
                )

    @classmethod
    def _is_broad(cls, type_node: ast.expr) -> bool:
        if isinstance(type_node, ast.Tuple):
            return any(cls._is_broad(element) for element in type_node.elts)
        name = dotted_name(type_node)
        return name is not None and name.split(".")[-1] in cls._BROAD

    @staticmethod
    def _body_is_inert(body: list[ast.stmt]) -> bool:
        """True when every statement is pass / ``...`` / a docstring."""
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring or Ellipsis
            return False
        return True
