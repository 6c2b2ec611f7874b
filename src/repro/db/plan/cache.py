"""Auto-parameterized plan cache: a repeated statement shape skips
parse, bind, rewrite and kernel generation.

Served in-database ML is mostly the same point-scoring statement over
and over with a fresh key literal.  The lexer
(:func:`repro.db.sql.lexer.lex`) gives every statement a *shape* — its
tokens with each NUMBER/STRING literal replaced by a typed slot — and
:class:`PlanCache` maps a shape to the :class:`PlanTemplate` recorded
by the last SELECT planned cold with it:

* the statement's AST and its bound, optimized logical tree, whose
  literals carry their slot (``Literal.slot``) and whose tables are
  replaced by :class:`TableIdentity` records (name, uid, schema) — a
  template holds no ``Table``, ``FrozenTable`` or partition;
* the model identities the plan bound (metadata and weight-table
  uid/version) and the function registry's version;
* the *fixed* slots with their text: every literal that did not reach
  the optimized plan unchanged (``LIMIT``/``OFFSET``/``VERSION k``,
  ``VARIANT 'x'``, folded literals like ``-5`` or ``1 + 2``), every
  literal of a GROUP BY key (the binder matches select items against
  keys by value) and every literal in a position constant folding could
  take (``7 / 0`` stays unfolded);
* the :class:`~repro.db.compile.kernels.KernelRecord` list of a
  lowering: kernel sources and which slot feeds each parameter.

A statement whose shape has a template is a hit when its fixed slots
match and the identities still hold in the statement's own catalog (a
served query's snapshot).  :meth:`PlanTemplate.instantiate` then builds
a fresh AST and logical tree with the new values, rebinding scans and
model joins by name; the planner re-derives pruning ranges, estimates
and the ModelJoin variant, which all depend on the values, and lowers
with the recorded kernels
(:class:`~repro.db.compile.kernels.ReplayCompiler`).  Anything else is
a miss: the ordinary parse → prepare → lower, recording the template
as a by-product.  EXPLAIN, statements reading ``system.*`` and the
interpreted compile-fallback retry are never cached.

A miss records only what needs the live plan (the tree without its
tables, the identities); the fixed slots and the kernels are worked out
by the shape's first hit, so a statement that never repeats — an
ad-hoc query, a fresh engine per operation — pays no more than a copy
of its logical tree.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.db.catalog import ModelMetadata, is_system_table_name
from repro.db.expressions import BinaryOp, Expression, Literal, UnaryOp
from repro.db.functions import registry_version
from repro.db.operators.aggregate import AggregateSpec
from repro.db.plan.logical import (
    LogicalAggregate,
    LogicalModelJoin,
    LogicalNode,
    LogicalScan,
    rebuild,
    walk,
)
from repro.db.schema import Schema
from repro.db.sql.ast import SelectStatement
from repro.db.sql.lexer import Lexed
from repro.db.sql.parser import literal_value, parse_lexed
from repro.errors import CatalogError

#: templates one engine keeps (least recently used evicted first)
CAPACITY = 256

#: logical-node attributes that hold a bound table
_TABLE_FIELDS = ("table", "model_table")


class SelectText:
    """A SELECT known by its text: lexed always, parsed only when no
    template serves it (:meth:`repro.db.engine.Database.parse`)."""

    __slots__ = ("lexed", "_statement")

    def __init__(
        self, lexed: Lexed, statement: SelectStatement | None = None
    ):
        self.lexed = lexed
        self._statement = statement

    def statement(self) -> SelectStatement:
        if self._statement is None:
            self._statement = parse_lexed(self.lexed)
        return self._statement

    def values(self) -> tuple:
        """The literal values, by slot."""
        return tuple(literal_value(token) for token in self.lexed.literals)


@dataclass(frozen=True, eq=False)
class TableIdentity:
    """What a template bound a table name to; *version* is checked only
    for model weight tables (their kernels embed it)."""

    name: str
    uid: int
    schema: Schema
    version: int | None = None

    @classmethod
    def of(cls, table, with_version: bool = False) -> "TableIdentity":
        version = table.version if with_version else None
        return cls(table.name, table.uid, table.schema, version)

    def resolve(self, catalog):
        """The table *catalog* binds the name to, if it is still this one."""
        try:
            table = catalog.table(self.name)
        except CatalogError:
            return None
        if table.uid != self.uid or table.schema != self.schema:
            return None
        if self.version is not None and table.version != self.version:
            return None
        return table


@dataclass(frozen=True, eq=False)
class ModelIdentity:
    """A ``MODEL JOIN name [VERSION k]`` binding: metadata + weights."""

    name: str
    version: int | None
    metadata: ModelMetadata
    table: TableIdentity

    def resolve(self, catalog):
        try:
            metadata = catalog.model(self.name, self.version)
        except CatalogError:
            return None
        if metadata != self.metadata:
            return None
        return self.table.resolve(catalog)


@dataclass(frozen=True, eq=False)
class PlanTemplate:
    """The reusable plan of one statement shape (module docstring)."""

    shape: str
    #: effective planner options the plan was made under
    options: tuple
    statement: SelectStatement
    #: optimized logical tree; tables are TableIdentity records,
    #: pruning ranges and variant selections are cleared
    logical: LogicalNode
    tables: tuple[TableIdentity, ...]
    models: tuple[ModelIdentity, ...]
    #: function registry version the plan was made under
    functions: int
    #: the recorded statement's literal texts, by slot
    texts: tuple[str, ...]
    #: (slot, text) pairs a hit must repeat verbatim; None until the
    #: shape's first hit works them out (see :meth:`analyzed`)
    fixed: tuple[tuple[int, str], ...] | None = None
    #: ids of the objects in ``statement`` and ``logical`` whose
    #: subtree holds a free slot: what instantiation copies
    marked: frozenset = frozenset()
    #: the compile requests of the first lowering of a hit; None
    #: until then (a sharded SELECT lowers on the shards, never here)
    kernels: tuple | None = None

    def analyzed(self) -> "PlanTemplate":
        """This template with its fixed slots and copy marks."""
        if self.fixed is not None:
            return self
        free = _free_slots(self.logical)
        marked: set[int] = set()
        _mark(self.statement, free, marked)
        for node in walk(self.logical):
            for name, value in node.__dict__.items():
                if name in _TABLE_FIELDS or isinstance(value, LogicalNode):
                    continue
                for item in value if isinstance(value, list) else (value,):
                    _mark(item, free, marked)
        return dataclasses.replace(
            self,
            fixed=tuple(
                (slot, text)
                for slot, text in enumerate(self.texts)
                if slot not in free
            ),
            marked=frozenset(marked),
        )

    def instantiate(self, text: SelectText, catalog, options: tuple):
        """``(statement, logical, values)`` for *text* against *catalog*,
        or None when this (analyzed) template cannot serve it.  Never
        mutates the template: the copies share only the parts no free
        slot reaches."""
        if options != self.options or registry_version() != self.functions:
            return None
        literals = text.lexed.literals
        for slot, fixed in self.fixed:
            if literals[slot].text != fixed:
                return None
        bound = {}
        for identity in self.tables:
            bound[identity] = identity.resolve(catalog)
        for model in self.models:
            bound[model.table] = model.resolve(catalog)
        if any(table is None for table in bound.values()):
            return None
        values = text.values()
        marked = self.marked
        statement = self.statement
        if id(statement) in marked:
            statement = _substitute(statement, values, marked)
        logical = _copy_tree(
            self.logical, bound.__getitem__, values, marked
        )
        return statement, logical, values


def record_template(
    text: SelectText,
    statement: SelectStatement,
    logical: LogicalNode,
    options: tuple,
) -> PlanTemplate | None:
    """The template of a cold-planned SELECT, or None if uncacheable."""
    tables: dict[int, TableIdentity] = {}
    models: list[ModelIdentity] = []
    skeleton = _skeleton(logical, tables, models)
    if any(is_system_table_name(table.name) for table in tables.values()):
        return None
    return PlanTemplate(
        shape=text.lexed.shape,
        options=options,
        statement=statement,
        logical=skeleton,
        tables=tuple(tables.values()),
        models=tuple(models),
        functions=registry_version(),
        texts=tuple(token.text for token in text.lexed.literals),
    )


def _skeleton(node: LogicalNode, tables: dict, models: list) -> LogicalNode:
    """A copy of a live logical tree that holds no table: scans and
    model joins point at identities (collected into *tables*, by table
    object, and *models*); ranges and variant selections are cleared."""
    clone = object.__new__(type(node))
    attributes = clone.__dict__
    attributes.update(node.__dict__)
    for name, value in attributes.items():
        if isinstance(value, LogicalNode):
            attributes[name] = _skeleton(value, tables, models)
        elif type(value) is list:
            attributes[name] = value.copy()
    if isinstance(clone, LogicalScan):
        clone.table = tables.setdefault(
            id(node.table), TableIdentity.of(node.table)
        )
        clone.ranges = []
    elif isinstance(clone, LogicalModelJoin):
        model = ModelIdentity(
            node.model_name,
            node.version,
            node.metadata,
            TableIdentity.of(node.model_table, with_version=True),
        )
        models.append(model)
        clone.model_table = model.table
        clone.selection = None
    return clone


# ----------------------------------------------------------------------
# copying with fresh literals
# ----------------------------------------------------------------------
def _copy_tree(
    node: LogicalNode, table, values: tuple, marked: frozenset
) -> LogicalNode:
    """A copy of a template's logical tree: every node and list is new,
    each table identity goes through *table*, and attributes (or list
    items) in *marked* get *values* substituted (:func:`_substitute`)."""
    clone = object.__new__(type(node))
    attributes = clone.__dict__
    for name, value in node.__dict__.items():
        if isinstance(value, LogicalNode):
            value = _copy_tree(value, table, values, marked)
        elif name in _TABLE_FIELDS:
            value = table(value)
        elif isinstance(value, list):
            value = [
                item if id(item) not in marked
                else _substitute(item, values, marked)
                for item in value
            ]
        elif id(value) in marked:
            value = _substitute(value, values, marked)
        attributes[name] = value
    return clone


def _substitute(node, values: tuple, marked: frozenset):
    """A copy of *node* — an AST node, expression, aggregate spec or
    tuple of them, whose id is in *marked* — with every free slot
    literal set to ``values[slot]``.  Objects whose id is not in
    *marked* hold no free slot and are shared, not copied."""
    if isinstance(node, Literal):
        return Literal(values[node.slot], node.sql_type, node.slot)
    if isinstance(node, tuple):
        return tuple(
            item if id(item) not in marked
            else _substitute(item, values, marked)
            for item in node
        )
    clone = object.__new__(type(node))
    clone.__dict__.update({
        name: value if id(value) not in marked
        else _substitute(value, values, marked)
        for name, value in node.__dict__.items()
    })
    return clone


# ----------------------------------------------------------------------
# analysis (a shape's first hit)
# ----------------------------------------------------------------------
def _free_slots(logical: LogicalNode) -> set[int]:
    """Slots whose literal a later statement may change.

    A slot is free when its literal reached the optimized plan, and
    only in positions no planning decision read its value from: not in
    a GROUP BY key, not an operand constant folding could take.
    """
    safe: set[int] = set()
    pinned: set[int] = set()

    def visit(expression: Expression, fixed: bool) -> None:
        if isinstance(expression, Literal):
            if expression.slot is not None:
                (pinned if fixed else safe).add(expression.slot)
            return
        foldable = (
            isinstance(expression, BinaryOp)
            and expression.operator in ("+", "-", "*", "/")
            and isinstance(expression.left, Literal)
            and isinstance(expression.right, Literal)
        ) or (
            isinstance(expression, UnaryOp)
            and expression.operator == "-"
            and isinstance(expression.operand, Literal)
        )

        def child(node: Expression) -> Expression:
            visit(node, fixed or foldable)
            return node

        rebuild(expression, child)

    for node in walk(logical):
        for name, value in node.__dict__.items():
            fixed = name == "group_exprs" and isinstance(
                node, LogicalAggregate
            )
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, AggregateSpec):
                    item = item.argument
                if isinstance(item, Expression):
                    visit(item, fixed)
    return safe - pinned


def _mark(node, free: set[int], marked: set[int]) -> bool:
    """Add to *marked* the id of *node* and of every object inside it
    whose subtree holds a literal of a *free* slot; True if *node* does."""
    if isinstance(node, Literal):
        found = node.slot in free
    elif isinstance(node, tuple):
        found = False
        for item in node:
            found |= _mark(item, free, marked)
    elif hasattr(node, "__dataclass_fields__"):
        found = False
        for value in node.__dict__.values():
            found |= _mark(value, free, marked)
    else:
        return False
    if found:
        marked.add(id(node))
    return found


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
class PlanCache:
    """Engine-lifetime LRU of plan templates keyed by statement shape.

    Counts ``plan_cache.hits`` / ``.misses`` / ``.evictions`` in the
    engine's metrics registry (hence also the Prometheus export).  A
    miss is a SELECT planned cold from its text; re-recording a shape
    replaces its template without counting an eviction.
    """

    def __init__(self, metrics=None):
        self._metrics = metrics
        self._lock = threading.Lock()
        self._templates: OrderedDict[str, PlanTemplate] = OrderedDict()

    def __contains__(self, shape: str) -> bool:
        return shape in self._templates

    def __len__(self) -> int:
        return len(self._templates)

    def get(self, shape: str) -> PlanTemplate | None:
        with self._lock:
            template = self._templates.get(shape)
            if template is not None:
                self._templates.move_to_end(shape)
            return template

    def put(self, template: PlanTemplate) -> None:
        evicted = 0
        with self._lock:
            self._templates[template.shape] = template
            self._templates.move_to_end(template.shape)
            while len(self._templates) > CAPACITY:
                self._templates.popitem(last=False)
                evicted += 1
        if evicted:
            self._count("plan_cache.evictions", evicted)

    def analyzed(self, template: PlanTemplate) -> PlanTemplate:
        """*template* with its fixed slots worked out (kept for the
        shape's later hits)."""
        completed = template.analyzed()
        if completed is not template:
            self._replace(template, completed)
        return completed

    def with_kernels(
        self, template: PlanTemplate, compiler
    ) -> PlanTemplate | None:
        """*template* completed with what *compiler* recorded while
        lowering it — or None, dropping the shape, when that lowering
        did something a replay must not repeat."""
        if not compiler.replayable:
            self._replace(template, None)
            return None
        completed = dataclasses.replace(
            template, kernels=tuple(compiler.records)
        )
        self._replace(template, completed)
        return completed

    def _replace(self, old: PlanTemplate, new: PlanTemplate | None) -> None:
        """Swap *old* for *new* unless the shape was re-recorded since."""
        with self._lock:
            if self._templates.get(old.shape) is not old:
                return
            if new is None:
                del self._templates[old.shape]
            else:
                self._templates[old.shape] = new

    def clear(self) -> None:
        with self._lock:
            self._templates.clear()

    def count_hit(self) -> None:
        self._count("plan_cache.hits")

    def count_miss(self) -> None:
        self._count("plan_cache.misses")

    def _count(self, name: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).increment(amount)
