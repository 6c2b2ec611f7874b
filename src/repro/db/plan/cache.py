"""Auto-parameterized plan cache: a repeated statement shape skips
parse, bind, rewrite, kernel generation and lowering.

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
* the :class:`Prototype` of each kind of lowering a hit asked for: a
  pristine copy of the lowered operator tree, holding identities, no
  context, and kernels with their
  :class:`~repro.db.compile.kernels.KernelRecord`.

A statement whose shape has a template is a hit when its fixed slots
match and the identities still hold in the statement's own catalog (a
served query's snapshot).  A hit builds no tree: it derives each scan's
pruning ranges from its query block's conjuncts with the new values
(:meth:`PlanTemplate.ranges`), estimates each ModelJoin's input
(:meth:`PlanTemplate.model_join_inputs`) and picks its variant, then
clones the prototype with its context, tables, values, ranges and
rebound kernels (:meth:`Prototype.clone`).  The statement and logical
tree are instantiated only when asked for — the fragment planner, or a
value with no compiled form, which lowers cold.  Anything else is a
miss: the ordinary parse → prepare → lower, recording the template as a
by-product.  EXPLAIN, statements reading ``system.*`` and the
interpreted compile-fallback retry are never cached.

A miss records only what needs the live plan (the tree without its
tables, the identities); the fixed slots, the range inputs and the
prototype are worked out by the shape's first hit, so a statement that
never repeats — an ad-hoc query, a fresh engine per operation — pays no
more than a copy of its logical tree.

A template also keeps how its statement splits over partitions (a
:class:`FragmentTemplate` per thread-pipeline bound): the fragment plan
and a partial merge's prototype.  A hit of a sharded or
``parallel=True`` statement copies the plan with its values and clones
a partial merge; the per-partition statement is planned in a plan cache too,
keyed by the fragment's *key* instead of a shape — this engine's for
thread pipelines, each shard's for shards, whose coordinator sends the
key and the literal values (:class:`FragmentText`) and the statement's
AST only to a shard that may not hold the key.  A cold plan of such a
statement works its fixed slots out at once, so that its shards record
the fragment under the key later hits send.

Beside the templates the cache memoizes the lexer by each text's
literal mask (:meth:`PlanCache.lex`, as many masks as templates): a
statement re-run with fresh NUMBER literals reaches its template without
lexing — its tokens are the memoized ones with its literals put in and
the positions after them moved.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

from repro.db.catalog import ModelMetadata, is_system_table_name
from repro.db.compile.kernels import FusedKernel, InterpretedKernel
from repro.db.expressions import BinaryOp, Expression, Literal, UnaryOp
from repro.db.functions import registry_version
from repro.db.operators import PhysicalOperator
from repro.db.operators.aggregate import AggregateSpec
from repro.db.plan.logical import (
    LogicalAggregate,
    LogicalModelJoin,
    LogicalNode,
    LogicalScan,
    estimate_rows,
    extract_ranges,
    rebuild,
    recompute_estimates,
    scan_estimate,
    walk,
)
from repro.db.plan.fragments import FragmentPlan, literal_slots, shard_count
from repro.db.plan.rules import RuleFiring, scan_regions, set_ranges
from repro.db.schema import Schema
from repro.db.sql.ast import SelectStatement
from repro.db.sql.lexer import Lexed, MaskedLexed, lex, mask_literals
from repro.db.sql.parser import literal_value, parse_lexed
from repro.db.table import Table
from repro.errors import CatalogError, PlanError

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

    @property
    def shape(self) -> str | None:
        """The key of the statement's template in a :class:`PlanCache`."""
        return self.lexed.shape

    def literal_text(self, slot: int):
        """What a template's fixed *slot* must repeat: the literal's text."""
        return self.lexed.literals[slot].text

    def literal_texts(self) -> tuple:
        return tuple(token.text for token in self.lexed.literals)

    def statement(self) -> SelectStatement:
        if self._statement is None:
            self._statement = parse_lexed(self.lexed)
        return self._statement

    def values(self) -> tuple:
        """The literal values, by slot."""
        return tuple(literal_value(token) for token in self.lexed.literals)


class UnknownFragment(PlanError):
    """A :class:`FragmentText` came without its statement, and no valid
    template of its key is at hand (evicted, or its tables changed)."""


class FragmentText(SelectText):
    """A fragment's per-partition SELECT known by its key
    (:attr:`FragmentTemplate.key`) and its literal values by slot.

    The key and the values decide the statement, so the AST comes along
    only when the receiver may not hold a template of the key; planning
    one that does not without it raises :class:`UnknownFragment`.  A
    fixed slot repeats its value (there is no text); a None key plans
    cold and records nothing."""

    __slots__ = ("key", "_values")

    def __init__(
        self,
        key: str | None,
        values: tuple,
        statement: SelectStatement | None = None,
    ):
        self.key = key
        self._values = values
        self._statement = statement

    @property
    def shape(self) -> str | None:
        return self.key

    def literal_text(self, slot: int):
        return self._values[slot]

    def literal_texts(self) -> tuple:
        return self._values

    def statement(self) -> SelectStatement:
        if self._statement is None:
            raise UnknownFragment(f"no plan of fragment {self.key!r}")
        return self._statement

    def values(self) -> tuple:
        return self._values


@dataclass(frozen=True, eq=False)
class TableIdentity:
    """What a template bound a table name to; *version* is checked only
    for model weight tables (their kernels embed it).  *shards* tells a
    sharded table from a local one of the same uid: a plan of one never
    serves the other."""

    name: str
    uid: int
    schema: Schema
    version: int | None = None
    shards: int = 0

    @classmethod
    def of(cls, table, with_version: bool = False) -> "TableIdentity":
        version = table.version if with_version else None
        return cls(
            table.name, table.uid, table.schema, version, shard_count(table)
        )

    def resolve(self, catalog):
        """The table *catalog* binds the name to, if it is still this one."""
        try:
            table = catalog.table(self.name)
        except CatalogError:
            return None
        if (
            table.uid != self.uid
            or table.schema != self.schema
            or shard_count(table) != self.shards
        ):
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
    #: the scans of ``logical``, by their ``template_index``
    scans: tuple[LogicalScan, ...] = ()
    #: (slot, text) pairs a hit must repeat verbatim; None until the
    #: shape's first hit works them out (see :meth:`analyzed`)
    fixed: tuple[tuple[int, str], ...] | None = None
    #: the slots a later statement may change
    free: frozenset = frozenset()
    #: ids of the objects in ``statement`` and ``logical`` whose
    #: subtree holds a free slot: what a hit substitutes
    marked: frozenset = frozenset()
    #: per scan (by ``template_index``), the filter conjuncts of its
    #: query block: where a hit derives the scan's pruning ranges from
    regions: tuple[tuple[Expression, ...], ...] = ()
    #: the ModelJoin nodes of ``logical`` in planning order
    model_joins: tuple[LogicalModelJoin, ...] = ()
    #: lowered plans a hit clones, by :func:`prototype_key` (a sharded
    #: SELECT lowers on the shards, never here)
    prototypes: dict = field(default_factory=dict)
    #: how the statement splits over partitions, by thread-pipeline
    #: bound (:class:`FragmentTemplate`); filled in place, shared by the
    #: shape's analyzed and prototype-bearing versions of the template
    fragments: dict = field(default_factory=dict)

    def analyzed(self) -> "PlanTemplate":
        """This template with its fixed slots, copy marks and the
        inputs of its value-dependent planning steps."""
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
        regions: list = [()] * len(self.scans)
        for scan, conjuncts in scan_regions(self.logical):
            regions[scan.template_index] = tuple(conjuncts)
        return dataclasses.replace(
            self,
            fixed=tuple(
                (slot, text)
                for slot, text in enumerate(self.texts)
                if slot not in free
            ),
            free=frozenset(free),
            marked=frozenset(marked),
            regions=tuple(regions),
            model_joins=tuple(
                node
                for node in walk(self.logical)
                if isinstance(node, LogicalModelJoin)
            ),
        )

    def bind(self, text: SelectText, catalog, options: tuple):
        """The tables this (analyzed) template's identities name in
        *catalog*, as an ``identity -> table`` dict, or None when the
        template cannot serve *text*."""
        if options != self.options or registry_version() != self.functions:
            return None
        for slot, fixed in self.fixed:
            if text.literal_text(slot) != fixed:
                return None
        bound = {}
        for identity in self.tables:
            bound[identity] = identity.resolve(catalog)
        for model in self.models:
            bound[model.table] = model.resolve(catalog)
        if any(table is None for table in bound.values()):
            return None
        return bound

    def ranges(self, values: tuple) -> tuple[list, ...]:
        """Each scan's pruning ranges for the literal *values*: rule 4
        over its query block's conjuncts, reading free slots' values."""
        free = self.free

        def value_of(literal: Literal):
            if literal.slot in free:
                return values[literal.slot]
            return literal.value

        return tuple(
            extract_ranges(
                conjuncts, scan.binding, scan.table.schema, value_of
            )
            if conjuncts
            else []
            for scan, conjuncts in zip(self.scans, self.regions)
        )

    def model_join_inputs(self, tables: dict, ranges: tuple) -> list[float]:
        """The estimated input rows of each ModelJoin, with the scans
        reading *tables* under *ranges* (no tree is copied)."""

        def scan_rows(scan: LogicalScan) -> float:
            return scan_estimate(
                tables[scan.table], ranges[scan.template_index]
            )

        return [
            estimate_rows(node.child, scan_rows) for node in self.model_joins
        ]

    def statement_for(self, values: tuple) -> SelectStatement:
        """The statement with the literal *values* (copies only the
        parts a free slot reaches)."""
        if id(self.statement) not in self.marked:
            return self.statement
        return _substitute(self.statement, values, self.marked)

    def instantiate(
        self, tables: dict, values: tuple, ranges: tuple, selections: list
    ) -> tuple[LogicalNode, list[RuleFiring]]:
        """The optimized logical tree of a hit and its range firings —
        what a cold plan of the statement holds — for the fragment
        planner and for a hit that lowers cold.  Never mutates the
        template: the copy shares only the parts no free slot reaches."""
        logical = _copy_tree(
            self.logical, tables.__getitem__, values, self.marked
        )
        firings: list[RuleFiring] = []
        for scan, _ in scan_regions(logical):
            set_ranges(scan, list(ranges[scan.template_index]), firings)
        recompute_estimates(logical)
        model_joins = [
            node
            for node in walk(logical)
            if isinstance(node, LogicalModelJoin)
        ]
        for node, selection in zip(model_joins, selections):
            node.selection = selection
        return logical, firings


def record_template(
    text: SelectText,
    statement: SelectStatement,
    logical: LogicalNode,
    options: tuple,
) -> PlanTemplate | None:
    """The template of a cold-planned SELECT, or None if uncacheable."""
    tables: dict[int, TableIdentity] = {}
    models: list[ModelIdentity] = []
    scans: list[LogicalScan] = []
    skeleton = _skeleton(logical, tables, models, scans)
    if any(is_system_table_name(table.name) for table in tables.values()):
        return None
    return PlanTemplate(
        shape=text.shape,
        options=options,
        statement=statement,
        logical=skeleton,
        tables=tuple(tables.values()),
        models=tuple(models),
        functions=registry_version(),
        texts=text.literal_texts(),
        scans=tuple(scans),
    )


def _skeleton(
    node: LogicalNode, tables: dict, models: list, scans: list
) -> LogicalNode:
    """A copy of a live logical tree that holds no table: scans and
    model joins point at identities (collected into *tables*, by table
    object, and *models*), scans are numbered (collected into *scans*);
    ranges and variant selections are cleared."""
    clone = object.__new__(type(node))
    attributes = clone.__dict__
    attributes.update(node.__dict__)
    for name, value in attributes.items():
        if isinstance(value, LogicalNode):
            attributes[name] = _skeleton(value, tables, models, scans)
        elif type(value) is list:
            attributes[name] = value.copy()
    if isinstance(clone, LogicalScan):
        clone.table = tables.setdefault(
            id(node.table), TableIdentity.of(node.table)
        )
        clone.ranges = []
        clone.template_index = len(scans)
        scans.append(clone)
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
# prototypes: lowered plans a hit clones
# ----------------------------------------------------------------------
def prototype_key(
    partition_index: int | None, vector_size: int, selections
) -> tuple:
    """What a lowered plan's shape depends on beyond its template: a
    serial plan or one partition pipeline (scan orderings differ), the
    scan-vector length, and each ModelJoin's variant (its device)."""
    return (
        partition_index is None,
        vector_size,
        tuple(selection.chosen for selection in selections),
    )


#: how :class:`Prototype` copies an operator attribute
_OPERATOR, _CONTEXT, _TABLE, _KERNEL, _LIST, _COPY, _SUBSTITUTE = range(7)


def _attribute_kinds(operator, marked) -> tuple[tuple[str, int], ...]:
    """The attributes of *operator* a copy does not simply share."""
    kinds = []
    for name, value in operator.__dict__.items():
        if isinstance(value, PhysicalOperator):
            kind = _OPERATOR
        elif name == "context":
            kind = _CONTEXT
        elif isinstance(value, (Table, TableIdentity)):
            kind = _TABLE
        elif isinstance(value, (FusedKernel, InterpretedKernel)):
            kind = _KERNEL
        elif isinstance(value, list):
            kind = _LIST
        elif isinstance(value, (set, dict)):
            kind = _COPY
        elif id(value) in marked:
            kind = _SUBSTITUTE
        else:
            continue
        kinds.append((name, kind))
    return tuple(kinds)


class _Binding:
    """What a copy of an operator tree binds: *context*, the tables,
    kernels and literal values, the partition and the scans' ranges.

    Capturing a prototype binds tables to identities and keeps kernels,
    literals and ranges; cloning one binds them all for a hit, with the
    attribute *kinds* worked out at capture."""

    def __init__(
        self,
        context,
        partition_index: int | None,
        tables: dict,
        values: tuple = (),
        marked: frozenset = frozenset(),
        ranges: tuple | None = None,
        compiler=None,
        kinds: dict | None = None,
    ):
        self.context = context
        self.partition_index = partition_index
        self.tables = tables
        self.values = values
        self.marked = marked
        self._ranges = ranges
        self._compiler = compiler
        self._kinds = kinds

    def scan_ranges(self, scan) -> list:
        if self._ranges is None:
            return list(scan.ranges)
        return list(self._ranges[scan.template_index])

    def substitute(self, value):
        return _substitute(value, self.values, self.marked)

    def kernel(self, kernel):
        if self._compiler is None:
            return kernel
        spec = kernel.spec
        if not kernel.generated:
            if id(spec) in self.marked:
                spec = self.substitute(spec)
            return InterpretedKernel(spec)
        if id(spec) in self.marked:
            spec = partial(_substitute, spec, self.values, self.marked)
        return self._compiler.rebind(kernel, spec, self.values)

    def copy(self, operator, kinds: tuple):
        """A fresh copy of *operator* whose *kinds* attributes are bound."""
        twin = object.__new__(type(operator))
        state = operator.__dict__.copy()
        marked = self.marked
        for name, kind in kinds:
            value = state[name]
            if kind == _OPERATOR:
                state[name] = self.copy(value, self.kinds(value))
            elif kind == _CONTEXT:
                state[name] = self.context
            elif kind == _TABLE:
                state[name] = self.tables[value]
            elif kind == _KERNEL:
                state[name] = self.kernel(value)
            elif kind == _LIST:
                state[name] = [
                    item if id(item) not in marked else self.substitute(item)
                    for item in value
                ]
            elif kind == _COPY:
                state[name] = value.copy()
            else:
                state[name] = self.substitute(value)
        twin.__dict__ = state
        twin.cloned(self)
        return twin

    def kinds(self, operator) -> tuple:
        if self._kinds is None:
            return _attribute_kinds(operator, self.marked)
        return self._kinds[id(operator)]


@dataclass(frozen=True, eq=False)
class Prototype:
    """A pristine, never-opened copy of a lowered plan, kept by a
    template: its tables are identities, it has no context, and its
    kernels and expressions carry the literals of the hit it was
    captured from.  :meth:`clone` gives each later hit its own plan."""

    root: PhysicalOperator
    #: ids of the objects in the tree whose subtree holds a free slot
    marked: frozenset
    #: per operator id, the attributes a clone binds (_attribute_kinds)
    kinds: dict

    @classmethod
    def capture(
        cls,
        plan: PhysicalOperator,
        partition_index: int | None,
        tables: dict,
        free: frozenset,
    ) -> "Prototype":
        """The prototype of *plan*, lowered for *partition_index* by a
        hit that bound *tables* (``identity -> table``)."""
        capture = _Binding(
            None,
            partition_index,
            {table: identity for identity, table in tables.items()},
        )
        root = capture.copy(plan, capture.kinds(plan))
        marked: set[int] = set()
        operators = []
        stack = [root]
        while stack:
            operator = stack.pop()
            operators.append(operator)
            for value in operator.__dict__.values():
                if isinstance(value, PhysicalOperator):
                    stack.append(value)
                elif isinstance(value, (FusedKernel, InterpretedKernel)):
                    _mark(value.spec, free, marked)
                elif isinstance(value, list):
                    for item in value:
                        _mark(item, free, marked)
                else:
                    _mark(value, free, marked)
        marked = frozenset(marked)
        return cls(
            root,
            marked,
            {
                id(operator): _attribute_kinds(operator, marked)
                for operator in operators
            },
        )

    def clone(
        self,
        context,
        partition_index: int | None,
        tables: dict,
        values: tuple,
        ranges: tuple,
        compiler,
    ) -> PhysicalOperator:
        """A fresh plan for one hit: its *context* and partition, the
        *tables* it bound (``identity -> table``), its literal *values*
        in every expression and kernel spec, its scans' *ranges*, and
        kernels rebound by *compiler* (raises NonCompilableLiteral for
        a value with no compiled form)."""
        binding = _Binding(
            context,
            partition_index,
            tables,
            values,
            self.marked,
            ranges,
            compiler,
            self.kinds,
        )
        return binding.copy(self.root, self.kinds[id(self.root)])


@dataclass(eq=False)
class FragmentTemplate:
    """How a template's statement splits over partitions, kept by the
    template so that a hit runs neither the fragment planner nor the
    merge's code generation.

    *plan* is the :class:`~repro.db.plan.fragments.FragmentPlan` of the
    statement that worked it out, its literals slotted; each hit gets a
    copy with its own values (:meth:`instantiate`).  *key* names the
    per-partition statement in a plan cache: the merge, the shape and the
    fixed slots' texts decide that statement up to the free values.  The
    first partial merge keeps its pipeline, whose kernels are generated,
    as *merge*: a :class:`Prototype` later hits clone.
    """

    plan: FragmentPlan
    #: None for a declined plan (nothing runs per partition)
    key: str | None
    #: the template's free slots (what a merge clone substitutes)
    free: frozenset
    #: ids of the objects in ``plan`` whose subtree holds a free slot
    marked: frozenset
    #: the slots the per-partition statement reads
    slots: frozenset
    merge: Prototype | None = None

    @classmethod
    def of(cls, plan: FragmentPlan, template: PlanTemplate):
        """The fragment template of *plan*, split from a statement of
        the (analyzed) *template*."""
        marked: set[int] = set()
        for part in (plan.statement, plan.having, plan.final_exprs):
            _mark(part, template.free, marked)
        key = None
        if plan.merge != "decline":
            key = (
                f"\x00{plan.merge}\x00{template.shape}\x00{template.fixed!r}"
            )
        return cls(
            plan,
            key,
            template.free,
            frozenset(marked),
            frozenset(literal_slots(plan.statement)),
        )

    def instantiate(
        self, values: tuple, tables: dict | None = None
    ) -> FragmentPlan:
        """The fragment plan of a statement with the literal *values*
        that bound *tables* (``identity -> table``; None: the tables the
        plan was worked out on).  A declined plan is shared as it is."""
        if self.key is None:
            return self.plan
        plan = object.__new__(FragmentPlan)
        plan.__dict__.update(self.plan.__dict__)
        marked = self.marked
        if marked:
            if id(plan.statement) in marked:
                plan.statement = _substitute(plan.statement, values, marked)
            if id(plan.having) in marked:
                plan.having = _substitute(plan.having, values, marked)
            if id(plan.final_exprs) in marked:
                plan.final_exprs = _substitute(
                    plan.final_exprs, values, marked
                )
        if tables is not None and plan.sharded:
            plan.estimated_rows = max(
                table.row_count
                for table in tables.values()
                if shard_count(table)
            )
        slots = self.slots
        plan.key = self.key
        plan.values = values
        plan.statement_values = tuple(
            value if slot in slots else None
            for slot, value in enumerate(values)
        )
        plan.template = self
        return plan


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
    replaces its template without counting an eviction.  The lexer memo
    counts ``plan_cache.text_hits`` (a text served from the memo:
    verbatim, or a masked text with other NUMBER literals) /
    ``.text_misses`` (a text lexed).
    """

    def __init__(self, metrics=None):
        self._metrics = metrics
        self._lock = threading.Lock()
        self._templates: OrderedDict[str, PlanTemplate] = OrderedDict()
        #: the last CAPACITY literal masks lexed, least recent first: a
        #: masked text's pieces -> MaskedLexed, any other text -> Lexed
        self._texts: OrderedDict = OrderedDict()

    def lex(self, text: str) -> Lexed:
        """:func:`~repro.db.sql.lexer.lex` of *text*, memoized by its
        literal mask (:func:`~repro.db.sql.lexer.mask_literals`): a text
        whose mask is among the last ``CAPACITY`` lexed is not lexed
        again — it gets the memoized tokens with its own NUMBER literals
        and positions (:meth:`MaskedLexed.relex`), equal to what
        :func:`lex` returns.  A text the mask cannot vouch for is
        memoized by its whole text.  Callers only read a
        :class:`Lexed`, so one is shared by every verbatim repeat."""
        pieces = mask_literals(text)
        key = text if pieces is None else tuple(pieces[0::2])
        with self._lock:
            memo = self._texts.get(key)
            if memo is not None:
                self._texts.move_to_end(key)
        if memo is not None:
            lexed = memo if pieces is None else memo.relex(pieces[1::2])
            if lexed is not None:
                self._count("plan_cache.text_hits")
                return lexed
        lexed = lex(text)
        memo = lexed if pieces is None else MaskedLexed.of(lexed, pieces)
        if memo is not None:
            with self._lock:
                self._texts[key] = memo
                if len(self._texts) > CAPACITY:
                    self._texts.popitem(last=False)
        self._count("plan_cache.text_misses")
        return lexed

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

    def with_prototype(
        self, template: PlanTemplate, key: tuple, prototype
    ) -> PlanTemplate | None:
        """*template* with *prototype* kept for its later hits under
        *key* — or None, dropping the shape, when *prototype* is None:
        the lowering did something a clone must not repeat."""
        if prototype is None:
            self._replace(template, None)
            return None
        completed = dataclasses.replace(
            template, prototypes={**template.prototypes, key: prototype}
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
