"""The repo-specific rules behind ``igepa lint`` (IGP001-IGP010).

Each rule encodes one contract the array/columnar architecture depends on.
Every finding carries a fix hint; sanctioned exceptions are marked per line
with ``# igepa: ignore[CODE]`` at the violation site — there are no
file-level escapes.  IGP006 is retired and its code is not reused:
suppressions and CI's JSON findings key on the codes.

+--------+--------------------------------------------------------------+
| IGP001 | no Python-level loops over users/events/bids in hot modules  |
| IGP002 | no dense |U|x|V| materialization outside the slab whitelist  |
| IGP003 | zero-copy contract: no copies of store-owned columns in      |
|        | index-build paths                                            |
| IGP004 | delta purity: successor construction must not mutate         |
|        | predecessor-reachable arrays                                 |
| IGP005 | RNG discipline: all draws through a seeded Generator         |
| IGP007 | no wall-clock reads in deterministic logic                   |
| IGP008 | public API functions must be fully type-annotated            |
| IGP009 | no from-scratch benchmark-LP rebuilds in tick-loop modules   |
| IGP010 | report/bench payloads serialize only through                 |
|        | experiments/persistence.py                                   |
+--------+--------------------------------------------------------------+
"""

from __future__ import annotations

import ast
from typing import Sequence

from repro.analysis_tools.engine import (
    FileContext,
    Finding,
    Rule,
    dotted_name,
    root_name,
    terminal_name,
)

#: Modules whose inner loops dominate end-to-end wall-clock: entity-scale
#: iteration here must be vectorized (or explicitly sanctioned per line).
HOT_PATH_MODULES = (
    "repro/model/index.py",
    "repro/model/columnar.py",
    "repro/core/admissible.py",
    "repro/core/local_search.py",
    "repro/core/lp_formulation.py",
    "repro/core/lp_packing.py",
    "repro/core/repair.py",
    "repro/core/metrics.py",
)

#: Entity-collection names whose direct iteration scales with instance size.
_ENTITY_COLLECTIONS = frozenset({"users", "events", "bids", "bidders", "pairs"})
#: Size names: ``range()`` over these is a full entity sweep.
_ENTITY_SIZES = frozenset(
    {"num_users", "num_events", "num_bids", "n_users", "n_events", "n_bids"}
)
#: Index/store id and incidence arrays: ``.tolist()`` iteration over these
#: is a full entity sweep too.
_ENTITY_ARRAYS = frozenset(
    {
        "user_ids",
        "event_ids",
        "bid_indices",
        "bid_event_pos",
        "bidder_indices",
        "bid_user_positions",
    }
)


def _names_in(node: ast.AST) -> set[str]:
    """Every Name id and Attribute attr mentioned under ``node``."""
    found: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


class HotPathLoopRule(Rule):
    """IGP001: no Python-level ``for`` loops over users/events/bids in the
    hot-path modules.

    Statement-level loops whose iterable is an entity collection
    (``instance.users``), a full-size ``range(num_users)`` sweep, or a
    ``.tolist()`` walk of an id/incidence array run O(entities) interpreter
    iterations on paths the benchmarks gate.  Comprehensions and generator
    expressions are allowed — they are the repo's sanctioned feeder idiom
    for ``np.fromiter`` — as are loops over bounded scopes (touched users,
    scan lists).
    """

    code = "IGP001"
    name = "hot-path-entity-loop"
    hint = (
        "vectorize over the index/store arrays (CSR slices, np.fromiter, "
        "bincount/argsort) or mark a sanctioned scalar path with "
        "'# igepa: ignore[IGP001]'"
    )
    module_suffixes = HOT_PATH_MODULES

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            what = self._entity_sweep(node.iter)
            if what:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"Python-level loop over {what} in a hot-path module",
                    )
                )
        return findings

    def _entity_sweep(self, iterable: ast.AST) -> str | None:
        """A description of the entity sweep, or None if the loop is fine."""
        # enumerate(...) / zip(...) / sorted(...) / reversed(...): look at
        # the underlying iterables.
        if isinstance(iterable, ast.Call):
            func = terminal_name(iterable.func)
            if func in {"enumerate", "zip", "sorted", "reversed"}:
                for arg in iterable.args:
                    what = self._entity_sweep(arg)
                    if what:
                        return what
                return None
            if func == "range":
                for arg in iterable.args:
                    names = _names_in(arg)
                    hit = names & _ENTITY_SIZES
                    if hit:
                        return f"range({sorted(hit)[0]})"
                return None
            if func == "tolist" and isinstance(iterable.func, ast.Attribute):
                array = terminal_name(iterable.func.value)
                if array in _ENTITY_ARRAYS:
                    return f"{array}.tolist()"
                return None
            return None
        # Only dotted access (instance.users, arrangement.pairs) counts:
        # a bare local like ``bids`` is a per-user slice, bounded by one
        # user's bid count, not an entity sweep.
        if (
            isinstance(iterable, ast.Attribute)
            and iterable.attr in _ENTITY_COLLECTIONS
        ):
            return dotted_name(iterable) or iterable.attr
        return None


#: (module suffix, function name) pairs allowed to build dense |U|x|V|
#: slabs: the dense index's own storage and its slab builder.
DENSE_SLAB_WHITELIST = (
    ("repro/model/index.py", "_finalize"),
    ("repro/model/index.py", "_scatter_slab"),
)

_USERISH = frozenset({"num_users", "n_users"})
_EVENTISH = frozenset({"num_events", "n_events"})


class DenseMaterializationRule(Rule):
    """IGP002: no dense |U|x|V| materialization outside the slab whitelist.

    ``.toarray()`` / ``.todense()`` calls and ``np.zeros((num_users,
    num_events))``-shaped allocations defeat the CSR/columnar architecture:
    one stray call re-introduces the O(cells) memory wall the CSR index
    exists to avoid.  The dense index's own storage and its slab builder
    are the only sanctioned sites.
    """

    code = "IGP002"
    name = "dense-materialization"
    hint = (
        "keep pair data in the CSR arrays and gather what a step needs with "
        "the index's pair/row accessors; only the dense-slab whitelist "
        "(InstanceIndex storage, its slab builder) may allocate |U|x|V|"
    )
    module_suffixes = None

    def check(self, ctx: FileContext) -> list[Finding]:
        allowed_functions = {
            fn for suffix, fn in DENSE_SLAB_WHITELIST
            if ctx.matches_module((suffix,))
        }
        findings: list[Finding] = []
        self._walk(ctx, ctx.tree, None, allowed_functions, findings)
        return findings

    def _walk(
        self,
        ctx: FileContext,
        node: ast.AST,
        current_function: str | None,
        allowed: set[str],
        findings: list[Finding],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(ctx, child, child.name, allowed, findings)
                continue
            if isinstance(child, ast.Call) and current_function not in allowed:
                finding = self._check_call(ctx, child)
                if finding:
                    findings.append(finding)
            self._walk(ctx, child, current_function, allowed, findings)

    def _check_call(self, ctx: FileContext, call: ast.Call) -> Finding | None:
        func = terminal_name(call.func)
        if func in {"toarray", "todense"} and isinstance(call.func, ast.Attribute):
            return self.finding(
                ctx, call, f".{func}() densifies a sparse matrix"
            )
        if func in {"zeros", "empty", "ones", "full"} and call.args:
            shape = call.args[0]
            if isinstance(shape, ast.Tuple) and len(shape.elts) >= 2:
                names = [_names_in(elt) for elt in shape.elts]
                has_user = any(n & _USERISH for n in names)
                has_event = any(n & _EVENTISH for n in names)
                if has_user and has_event:
                    return self.finding(
                        ctx,
                        call,
                        f"np.{func} allocates a dense (num_users, num_events) "
                        "matrix outside the dense-slab whitelist",
                    )
        return None


#: Columns owned by ColumnarStore and shared zero-copy into the indexes.
STORE_COLUMNS = frozenset(
    {
        "user_ids",
        "event_ids",
        "user_capacity",
        "event_capacity",
        "bid_indptr",
        "bid_event_pos",
        "bid_indices",
        "bid_si",
        "degrees",
        "conflict_matrix",
    }
)

#: Receiver roots that hold store-owned columns in index-build code.
_STORE_ROOTS = frozenset({"store", "self", "index", "old", "instance"})

#: Index-build modules bound by the zero-copy contract.
INDEX_BUILD_MODULES = ("repro/model/index.py",)


class StoreCopyRule(Rule):
    """IGP003: the zero-copy contract of index builds.

    Index construction shares the store's columns (``_build_primary`` /
    ``_build_csr`` are documented zero-copy); a silent ``.copy()`` /
    ``np.array(...)`` / ``astype(copy=True)`` on a store-owned column
    doubles resident memory at 500k users and decouples the index from the
    store the sanitizer freezes.
    """

    code = "IGP003"
    name = "store-column-copy"
    hint = (
        "share the store's array (astype(..., copy=False), np.asarray) — "
        "indexes never mutate primary arrays; if a private copy is load-"
        "bearing, mark the line with '# igepa: ignore[IGP003]' and say why"
    )
    module_suffixes = INDEX_BUILD_MODULES

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            finding = self._check_call(ctx, node)
            if finding:
                findings.append(finding)
        return findings

    def _is_store_column(self, node: ast.AST) -> bool:
        return (
            terminal_name(node) in STORE_COLUMNS
            and root_name(node) in _STORE_ROOTS
        )

    def _copy_kwarg_true(self, call: ast.Call) -> bool:
        for keyword in call.keywords:
            if keyword.arg == "copy":
                return isinstance(keyword.value, ast.Constant) and bool(
                    keyword.value.value
                )
        return False

    def _check_call(self, ctx: FileContext, call: ast.Call) -> Finding | None:
        func = call.func
        if isinstance(func, ast.Attribute):
            column = func.value
            if func.attr == "copy" and self._is_store_column(column):
                return self.finding(
                    ctx,
                    call,
                    f"copy of store-owned column "
                    f"'{dotted_name(column)}' in an index-build path",
                )
            if (
                func.attr == "astype"
                and self._is_store_column(column)
                and self._copy_kwarg_true(call)
            ):
                return self.finding(
                    ctx,
                    call,
                    f"astype(copy=True) forces a copy of store-owned column "
                    f"'{dotted_name(column)}'",
                )
        name = dotted_name(func)
        if name in {"np.array", "numpy.array"} and call.args:
            if self._is_store_column(call.args[0]):
                return self.finding(
                    ctx,
                    call,
                    f"np.array() copies store-owned column "
                    f"'{dotted_name(call.args[0])}' (use np.asarray)",
                )
        if name in {"np.asarray", "numpy.asarray"} and call.args:
            if self._is_store_column(call.args[0]) and self._copy_kwarg_true(call):
                return self.finding(
                    ctx,
                    call,
                    f"np.asarray(copy=True) copies store-owned column "
                    f"'{dotted_name(call.args[0])}'",
                )
        return None


#: Calls whose result is a freshly allocated object (safe to mutate).
_ALLOCATING_CALLS = frozenset(
    {
        "array",
        "asarray",
        "zeros",
        "zeros_like",
        "empty",
        "empty_like",
        "ones",
        "ones_like",
        "full",
        "full_like",
        "arange",
        "linspace",
        "concatenate",
        "stack",
        "hstack",
        "vstack",
        "repeat",
        "tile",
        "where",
        "insert",
        "delete",
        "append",
        "fromiter",
        "frombuffer",
        "bincount",
        "cumsum",
        "diff",
        "copy",
        "astype",
        "tolist",
        "unique",
        "sort",  # np.sort (function) returns a copy; .sort() method caught below
        "argsort",
        "flatnonzero",
        "nonzero",
        "searchsorted",
        "ix_",
        "dict",
        "list",
        "set",
        "tuple",
    }
)

#: ndarray methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset({"fill", "put", "partition", "setfield", "itemset"})


class _FreshnessTracker:
    """Statement-order freshness analysis for one function body.

    A local name is *fresh* when it was (re)bound in this function to a
    value the function owns: any call result, an arithmetic/boolean
    expression, a comprehension, or advanced (non-slice) indexing — NumPy
    semantics make all of these new objects.  Parameters, attribute chains
    rooted at parameters, and basic-slice views of non-fresh arrays stay
    *foreign*: mutating them mutates state reachable from the predecessor.

    Branches are over-approximated: a name fresh in either arm counts as
    fresh (this is a reviewer's linter, not a verifier — under-reporting
    beats drowning real violations in false positives).
    """

    def __init__(self, params: set[str]):
        self.params = params
        self.fresh: set[str] = set()

    def is_fresh_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.fresh
        if isinstance(node, ast.Subscript):
            if isinstance(node.slice, ast.Slice):
                # Basic slice: a view of the base.
                return self.is_fresh_expr(node.value)
            # Advanced indexing (mask/fancy/scalar tuple): a copy in NumPy.
            return True
        if isinstance(node, ast.Attribute):
            # ``carried.assignment_words`` where ``carried`` was freshly
            # constructed here: the object owns its arrays, so views of its
            # attributes are function-owned too.
            root = root_name(node)
            return root is not None and root in self.fresh
        if isinstance(
            node,
            (
                ast.BinOp,
                ast.UnaryOp,
                ast.BoolOp,
                ast.Compare,
                ast.ListComp,
                ast.SetComp,
                ast.DictComp,
                ast.GeneratorExp,
                ast.List,
                ast.Dict,
                ast.Set,
                ast.Tuple,
                ast.Constant,
                ast.IfExp,
            ),
        ):
            return True
        return False

    def bind(self, target: ast.AST, fresh: bool) -> None:
        if isinstance(target, ast.Name):
            if fresh:
                self.fresh.add(target.id)
            else:
                self.fresh.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind(elt, fresh)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, fresh)

    def base_is_foreign(self, node: ast.AST) -> bool:
        """Whether the mutation target's base array is predecessor-reachable."""
        base = node
        while isinstance(base, ast.Subscript):
            if not isinstance(base.slice, ast.Slice) and base is not node:
                # Advanced indexing below the top level produced a copy.
                return False
            base = base.value
        if isinstance(base, ast.Name):
            return base.id not in self.fresh
        if isinstance(base, ast.Attribute):
            root = root_name(base)
            return root is None or root not in self.fresh
        if isinstance(base, ast.Call):
            return False
        return True


class DeltaPurityRule(Rule):
    """IGP004: successor construction must not mutate predecessor state.

    ``apply_delta`` promises the predecessor instance, store and index are
    untouched — replay keeps both generations alive, parity compares them,
    and the sanitizer freezes the arrays.  Any in-place write
    (``arr[...] = ``, ``+=``, ``out=``, ``.fill()``/``.sort()``) must
    target an array freshly allocated inside the same function.
    """

    code = "IGP004"
    name = "delta-purity"
    hint = (
        "allocate the successor array first (np.concatenate / boolean-mask "
        "copy / .copy()) and patch that; arrays reached through parameters "
        "or the predecessor index/store are shared and frozen under "
        "IGEPA_SANITIZE=1"
    )
    module_suffixes = ("repro/model/delta.py",)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(ctx, node, findings)
        return findings

    def _check_function(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
    ) -> None:
        args = func.args
        params = {
            a.arg
            for a in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            )
        }
        tracker = _FreshnessTracker(params)
        self._check_body(ctx, func.body, tracker, findings)

    def _check_body(
        self,
        ctx: FileContext,
        body: Sequence[ast.stmt],
        tracker: _FreshnessTracker,
        findings: list[Finding],
    ) -> None:
        for stmt in body:
            self._check_stmt(ctx, stmt, tracker, findings)

    def _check_stmt(
        self,
        ctx: FileContext,
        stmt: ast.stmt,
        tracker: _FreshnessTracker,
        findings: list[Finding],
    ) -> None:
        # Nested defs get their own scope; don't leak freshness across.
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._check_function(ctx, stmt, findings)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(ctx, stmt.value, tracker, findings)
            fresh = tracker.is_fresh_expr(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    if tracker.base_is_foreign(target):
                        findings.append(
                            self.finding(
                                ctx,
                                stmt,
                                "in-place write to "
                                f"'{dotted_name(target.value) or '<expr>'}' — "
                                "not freshly allocated in this function",
                            )
                        )
                elif isinstance(target, ast.Attribute):
                    # Attribute rebinding (self.x = ...) is allowed: it
                    # changes a reference, not shared array contents.
                    continue
                else:
                    tracker.bind(target, fresh)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(ctx, stmt.value, tracker, findings)
            target = stmt.target
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                if tracker.base_is_foreign(target):
                    findings.append(
                        self.finding(
                            ctx,
                            stmt,
                            "augmented in-place write to "
                            f"'{dotted_name(getattr(target, 'value', target)) or '<expr>'}'"
                            " — not freshly allocated in this function",
                        )
                    )
            elif isinstance(target, ast.Name) and target.id in tracker.params:
                findings.append(
                    self.finding(
                        ctx,
                        stmt,
                        f"augmented assignment to parameter '{target.id}' "
                        "mutates caller-owned state if it is an array",
                    )
                )
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.target is not None:
            if stmt.value is not None:
                self._scan_expr(ctx, stmt.value, tracker, findings)
                tracker.bind(stmt.target, tracker.is_fresh_expr(stmt.value))
            return
        if isinstance(stmt, ast.For):
            self._scan_expr(ctx, stmt.iter, tracker, findings)
            tracker.bind(stmt.target, True)
            self._check_body(ctx, stmt.body, tracker, findings)
            self._check_body(ctx, stmt.orelse, tracker, findings)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(ctx, stmt.test, tracker, findings)
            self._check_body(ctx, stmt.body, tracker, findings)
            self._check_body(ctx, stmt.orelse, tracker, findings)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(ctx, stmt.test, tracker, findings)
            self._check_body(ctx, stmt.body, tracker, findings)
            self._check_body(ctx, stmt.orelse, tracker, findings)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(ctx, item.context_expr, tracker, findings)
                if item.optional_vars is not None:
                    tracker.bind(item.optional_vars, True)
            self._check_body(ctx, stmt.body, tracker, findings)
            return
        if isinstance(stmt, ast.Try):
            self._check_body(ctx, stmt.body, tracker, findings)
            for handler in stmt.handlers:
                self._check_body(ctx, handler.body, tracker, findings)
            self._check_body(ctx, stmt.orelse, tracker, findings)
            self._check_body(ctx, stmt.finalbody, tracker, findings)
            return
        if isinstance(stmt, (ast.Expr, ast.Return)):
            if stmt.value is not None:
                self._scan_expr(ctx, stmt.value, tracker, findings)
            return
        # Remaining statements (pass, raise, imports, ...): scan expressions.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(ctx, child, tracker, findings)

    def _scan_expr(
        self,
        ctx: FileContext,
        expr: ast.expr,
        tracker: _FreshnessTracker,
        findings: list[Finding],
    ) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            # out= into a foreign array.
            for keyword in node.keywords:
                if keyword.arg == "out" and tracker.base_is_foreign(keyword.value):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "out= targets an array not freshly allocated "
                            "in this function",
                        )
                    )
            # Mutating ndarray methods on a foreign receiver.  ``.sort()``
            # is in-place as a method (np.sort the function copies).
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                _MUTATING_METHODS | {"sort"}
            ):
                receiver = node.func.value
                if node.func.attr == "sort" and root_name(receiver) in {
                    "np",
                    "numpy",
                }:
                    continue
                if tracker.base_is_foreign(receiver):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f".{node.func.attr}() mutates "
                            f"'{dotted_name(receiver) or '<expr>'}' in place — "
                            "not freshly allocated in this function",
                        )
                    )


class RngDisciplineRule(Rule):
    """IGP005: every random draw goes through a seeded ``Generator``.

    Module-level ``np.random.*`` draws and the stdlib ``random`` module use
    hidden global state: two call sites interleave differently across
    refactors and worker counts, silently breaking the fixed-seed
    bit-parity every replay/simulate gate depends on.  The only sanctioned
    constructor is ``np.random.default_rng(seed)`` *with* a seed
    expression; draws take an explicit ``rng`` parameter.
    """

    code = "IGP005"
    name = "rng-discipline"
    hint = (
        "accept an rng: np.random.Generator parameter (or seed) and draw "
        "from it; construct generators only via np.random.default_rng(seed)"
    )
    module_suffixes = None

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                "stdlib 'random' uses hidden global state",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "stdlib 'random' uses hidden global state",
                        )
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in {"np.random.default_rng", "numpy.random.default_rng"}:
                    if not node.args and not node.keywords:
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                "default_rng() without a seed is "
                                "non-deterministic",
                            )
                        )
                elif name and (
                    name.startswith("np.random.")
                    or name.startswith("numpy.random.")
                ):
                    attr = name.rsplit(".", 1)[1]
                    if attr not in {"default_rng", "Generator", "SeedSequence"}:
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                f"module-level np.random.{attr}() draws from "
                                "hidden global state",
                            )
                        )
        return findings


#: Modules sanctioned to read monotonic timers for timing *reports*.
#: ``service/clock.py`` is the serving loop's *only* timer access: every
#: other service module takes time through the injected Clock, so decision
#: time stays virtual (replayable) and measurement time stays report-only.
TIMING_REPORT_MODULES = (
    # Only for ``lp_resolve_comparison``, which times two LP solvers outside
    # any engine; ``replay_trace`` itself times through the engine's Clock.
    "repro/experiments/replay.py",
    "repro/experiments/runner.py",
    "repro/core/base.py",
    "repro/service/clock.py",
)

_WALL_CLOCK_CALLS = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "time.ctime": "time.ctime()",
    "time.localtime": "time.localtime()",
    "time.gmtime": "time.gmtime()",
    "datetime.now": "datetime.now()",
    "datetime.utcnow": "datetime.utcnow()",
    "datetime.today": "datetime.today()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.date.today": "date.today()",
}

_MONOTONIC_CALLS = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
}


class WallClockRule(Rule):
    """IGP007: no wall-clock reads in deterministic logic.

    Replay and simulate promise bit-identical runs per seed; a
    ``time.time()`` that leaks into a decision (tick cutoffs, cache aging,
    tie-breaks) makes reruns diverge invisibly.  Wall-clock calls are
    banned everywhere under ``src/``; monotonic timers
    (``time.perf_counter``) are allowed only in the timing-report modules,
    where their values land in reports, never in decisions.
    """

    code = "IGP007"
    name = "wall-clock"
    hint = (
        "thread simulated time through the trace/config; for runtime "
        "reports use time.perf_counter() inside the timing-report "
        "whitelist (experiments/replay.py, experiments/runner.py, "
        "core/base.py, service/clock.py); tick drivers time through the "
        "engine's Clock"
    )
    module_suffixes = None

    def check(self, ctx: FileContext) -> list[Finding]:
        in_timing_module = ctx.matches_module(TIMING_REPORT_MODULES)
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALL_CLOCK_CALLS:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{_WALL_CLOCK_CALLS[name]} reads the wall clock in "
                        "deterministic logic",
                    )
                )
            elif name in _MONOTONIC_CALLS and not in_timing_module:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{name}() outside the timing-report whitelist",
                    )
                )
        return findings


#: Modules whose public functions form the protocol seam and must carry
#: complete signatures (mypy's strict scope starts from the same seam).
PUBLIC_API_MODULES = (
    "repro/solver/api.py",
    "repro/model/__init__.py",
    "repro/core/__init__.py",
)


class PublicApiAnnotationRule(Rule):
    """IGP008: public API functions must be fully type-annotated.

    The protocol seam (``solver/api.py`` and the package fronts) is what
    every layer above programs against; un-annotated parameters there turn
    mypy's strict scope into ``Any`` holes and hide interface drift between
    the dense/CSR/columnar implementations.
    """

    code = "IGP008"
    name = "public-api-annotations"
    hint = (
        "annotate every parameter and the return type; the mypy strict "
        "scope (model/ + solver/api.py) enforces the same seam in CI"
    )
    module_suffixes = PUBLIC_API_MODULES

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(ctx, node, findings, method=False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._check_function(ctx, item, findings, method=True)
        return findings

    def _check_function(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
        *,
        method: bool,
    ) -> None:
        if func.name.startswith("_") and func.name != "__init__":
            return
        args = func.args
        ordered = [*args.posonlyargs, *args.args]
        if method and ordered:
            ordered = ordered[1:]  # self / cls
        missing = [
            a.arg
            for a in (*ordered, *args.kwonlyargs)
            if a.annotation is None
        ]
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append(vararg.arg)
        if missing:
            findings.append(
                self.finding(
                    ctx,
                    func,
                    f"public function '{func.name}' has un-annotated "
                    f"parameter(s): {', '.join(missing)}",
                )
            )
        if func.returns is None and func.name != "__init__":
            findings.append(
                self.finding(
                    ctx,
                    func,
                    f"public function '{func.name}' has no return annotation",
                )
            )


#: Modules that drive the per-tick dynamic loop: LP work here repeats once
#: per churn batch, so a from-scratch LP build is a per-tick O(instance)
#: rebuild of state the incremental layer maintains in place.
TICK_LOOP_MODULES = (
    "repro/service/engine.py",
    "repro/service/loop.py",
    "repro/experiments/simulate.py",
    "repro/experiments/replay.py",
)

#: Calls that construct the benchmark LP from scratch.
_LP_REBUILD_CALLS = frozenset({"build_benchmark_lp"})


class LPRebuildRule(Rule):
    """IGP009: no from-scratch benchmark-LP rebuilds in tick-loop modules.

    The tick loop re-solves the benchmark LP once per churn batch; calling
    :func:`~repro.core.lp_formulation.build_benchmark_lp` there re-enumerates
    every admissible set and re-emits the whole constraint matrix —
    O(instance) work per tick that the incremental layer
    (:class:`~repro.core.lp_incremental.IncrementalBenchmarkLP`, or
    ``LPPacking(incremental=True)`` fed via ``observe_delta``) replaces
    with a delta-sized patch.  Explicit from-scratch
    baselines (speedup comparisons) are sanctioned per line.
    """

    code = "IGP009"
    name = "tick-loop-lp-rebuild"
    hint = (
        "patch the LP across ticks instead: feed deltas through "
        "LPPacking(incremental=True).observe_delta / "
        "IncrementalBenchmarkLP, or mark an intentional from-scratch "
        "baseline with '# igepa: ignore[IGP009]'"
    )
    module_suffixes = TICK_LOOP_MODULES

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if terminal_name(node.func) in _LP_REBUILD_CALLS:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "from-scratch benchmark-LP build in a tick-loop "
                        "module (rebuilds every admissible set per tick)",
                    )
                )
        return findings


#: The one module allowed to serialize report/bench payloads.
PERSISTENCE_MODULES = ("repro/experiments/persistence.py",)

#: First-argument terminal names that mark a dumped object as a report
#: payload.  Deliberately narrow — wire responses, lint output and
#: instance files dump JSON too, and those are not report envelopes.
_REPORTISH_MARKERS = ("report", "envelope")


class RawReportDumpRule(Rule):
    """IGP010: report/bench payloads serialize only through persistence.

    A raw ``json.dump(report...)`` (or of any ``.to_dict()`` result)
    outside :mod:`repro.experiments.persistence` writes an artifact with
    no version tag, no registered ``kind`` and no provenance block — the
    history store (:mod:`repro.metrics`) cannot key it to a commit, and
    :func:`~repro.experiments.persistence.load_report` rejects it.  Every
    report/bench writer goes through :func:`~repro.experiments.persistence.save_report`
    or :func:`~repro.experiments.persistence.write_bench_artifact`;
    non-report JSON (wire responses, instance files, tool output) is out
    of scope, and genuinely internal dumps (parent-child IPC) are
    sanctioned per line.
    """

    code = "IGP010"
    name = "raw-report-dump"
    hint = (
        "write through repro.experiments.persistence (save_report for "
        "report objects, write_bench_artifact for BENCH_*.json) so the "
        "payload carries the envelope + provenance; mark an internal "
        "non-artifact dump with '# igepa: ignore[IGP010]'"
    )
    module_suffixes = None

    def check(self, ctx: FileContext) -> list[Finding]:
        if ctx.matches_module(PERSISTENCE_MODULES):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = dotted_name(node.func)
            if func not in {"json.dump", "json.dumps"}:
                continue
            what = self._report_payload(node.args[0])
            if what:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"raw {func}() of report payload {what} bypasses "
                        "the persistence envelope",
                    )
                )
        return findings

    def _report_payload(self, arg: ast.AST) -> str | None:
        """A description of the report-like payload, or None.

        Over-approximation is the wrong failure mode here (instance files
        and JSONL store rows also call ``to_dict``), so both branches
        require a report-ish *name*: the dumped variable's, or the
        ``to_dict`` receiver's.
        """
        if isinstance(arg, ast.Call) and terminal_name(arg.func) == "to_dict":
            if isinstance(arg.func, ast.Attribute) and self._reportish(
                terminal_name(arg.func.value)
            ):
                return f"'{dotted_name(arg.func.value)}.to_dict()'"
            return None
        name = terminal_name(arg)
        if self._reportish(name):
            return f"'{dotted_name(arg) or name}'"
        return None

    @staticmethod
    def _reportish(name: str | None) -> bool:
        return name is not None and any(
            marker in name.lower() for marker in _REPORTISH_MARKERS
        )


#: Registry, in code order.  ``igepa lint --list-rules`` prints this.
ALL_RULES: tuple[type[Rule], ...] = (
    HotPathLoopRule,
    DenseMaterializationRule,
    StoreCopyRule,
    DeltaPurityRule,
    RngDisciplineRule,
    WallClockRule,
    PublicApiAnnotationRule,
    LPRebuildRule,
    RawReportDumpRule,
)
