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
* the *compiled plan* of each kind of lowering (:attr:`PlanTemplate.
  prototypes`, by :func:`prototype_key`): the tree lowered once, never
  opened, holding table identities, kernels and slotted expressions.

Every SELECT runs an instance of a compiled plan
(:meth:`~repro.db.operators.PhysicalOperator.instance`) bound to its
context, literal values, tables and pruning ranges; its kernels and
expressions read the values by slot.  A cold statement is the miss of
that path: it is parsed, bound and rewritten, its template recorded
(or, uncacheable, only made) and compiled, and then instanced.

A statement whose shape has a template is a hit when its fixed slots
match and the identities still hold in the statement's own catalog (a
served query's snapshot).  A hit builds no tree: it derives each scan's
pruning ranges from its query block's conjuncts with the new values
(:meth:`PlanTemplate.ranges`), estimates each ModelJoin's input
(:meth:`PlanTemplate.model_join_inputs`) and picks its variant, then
instances the compiled plan.  EXPLAIN, statements reading ``system.*``
and the interpreted compile-fallback retry are never cached.

A miss records only what needs the live plan (the tree without its
tables, the identities) and its compiled plan; the fixed slots and the
range inputs are worked out by the shape's first hit, so a statement
that never repeats — an ad-hoc query, a fresh engine per operation —
pays no more than a copy of its logical tree.

A template also keeps how its statement splits over partitions (a
:class:`FragmentTemplate` per thread-pipeline bound): the fragment plan
and its compiled merge.  A hit of a sharded or ``parallel=True``
statement takes the plan with its values and instances the merge; the
per-partition statement is planned in a plan cache too, keyed by the
fragment's *key* instead of a shape — this engine's for thread
pipelines, each shard's for shards, whose coordinator sends the key and
the literal values (:class:`FragmentText`) and the statement's AST only
to a shard that may not hold the key.  A cold plan of such a statement
works its fixed slots out at once, so that its shards record the
fragment under the key later hits send.

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

from repro.db.catalog import ModelMetadata, is_system_table_name
from repro.db.expressions import (
    BinaryOp,
    Expression,
    Literal,
    UnaryOp,
    with_values,
)
from repro.db.functions import registry_version
from repro.db.operators.aggregate import AggregateSpec
from repro.db.plan.logical import (
    LogicalAggregate,
    LogicalModelJoin,
    LogicalNode,
    LogicalScan,
    estimate_rows,
    extract_ranges,
    rebuild,
    scan_estimate,
    walk,
)
from repro.db.plan.fragments import (
    FragmentPlan,
    literal_slots,
    shard_count,
    sharded_rows,
)
from repro.db.plan.rules import scan_regions
from repro.db.schema import Schema
from repro.db.sql.ast import SelectStatement
from repro.db.sql.lexer import Lexed, MaskedLexed, lex, mask_literals
from repro.db.sql.parser import literal_value, parse_lexed
from repro.errors import CatalogError, PlanError

#: templates one engine keeps (least recently used evicted first)
CAPACITY = 256


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
    one that does not without it raises :class:`UnknownFragment`.  The
    AST is the fragment template's, so a cold plan of it reads it with
    these values put in: binding and pruning read literal values.  A
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
        return with_values(self._statement, self._values)

    def values(self) -> tuple | None:
        return self._values


@dataclass(frozen=True, eq=False)
class TableIdentity:
    """What a template bound a table name to; *version* is checked only
    for model weight tables (their kernels embed it).  *shard_count*
    tells a sharded table from a local one of the same uid: a plan of
    one never serves the other.  The partitioning and sort key, fixed
    for a uid, are what planning reads of the table."""

    name: str
    uid: int
    schema: Schema
    version: int | None = None
    shard_count: int = 0
    num_partitions: int = 1
    partition_key: str | None = None
    sort_key: tuple = ()

    @classmethod
    def of(cls, table, with_version: bool = False) -> "TableIdentity":
        version = table.version if with_version else None
        return cls(
            table.name,
            table.uid,
            table.schema,
            version,
            shard_count(table),
            table.num_partitions,
            table.partition_key,
            tuple(table.sort_key),
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
            or shard_count(table) != self.shard_count
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

    #: None for a template made for one statement only (not cached)
    shape: str | None
    #: effective planner options the plan was made under
    options: tuple
    #: the statement, with the recorded statement's literal values
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
    #: the ModelJoin nodes of ``logical`` in planning order
    model_joins: tuple[LogicalModelJoin, ...] = ()
    #: (slot, text) pairs a hit must repeat verbatim; None until the
    #: shape's first hit works them out (see :meth:`analyzed`)
    fixed: tuple[tuple[int, str], ...] | None = None
    #: the slots a later statement may change
    free: frozenset = frozenset()
    #: per scan (by ``template_index``), the filter conjuncts of its
    #: query block: where a hit derives the scan's pruning ranges from
    regions: tuple[tuple[Expression, ...], ...] = ()
    #: compiled plans every statement instances, by
    #: :func:`prototype_key`; filled in place, shared with the analyzed
    #: version of the template (a sharded SELECT lowers on the shards,
    #: never here)
    prototypes: dict = field(default_factory=dict)
    #: how the statement splits over partitions, by thread-pipeline
    #: bound (:class:`FragmentTemplate`); filled and shared likewise
    fragments: dict = field(default_factory=dict)

    def analyzed(self) -> "PlanTemplate":
        """This template with its fixed slots and the inputs of its
        value-dependent planning steps."""
        if self.fixed is not None:
            return self
        free = _free_slots(self.logical)
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
            regions=tuple(regions),
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


def record_template(
    text: SelectText | None,
    statement: SelectStatement,
    logical: LogicalNode,
    options: tuple,
) -> tuple[PlanTemplate, dict, tuple]:
    """The template of a cold-planned SELECT, the tables it bound
    (``identity -> table``) and its scans' pruning ranges.  A statement
    without a text, or one reading ``system.*``, gets a template made
    for it alone (shape None): it is compiled, never cached."""
    identities: dict[int, TableIdentity] = {}
    walked = _Walked()
    skeleton = _skeleton(logical, identities, walked)
    shape = texts = None
    if text is not None and not any(
        is_system_table_name(identity.name)
        for identity in identities.values()
    ):
        shape, texts = text.shape, text.literal_texts()
    template = PlanTemplate(
        shape=shape,
        options=options,
        statement=statement,
        logical=skeleton,
        tables=tuple(identities.values()),
        models=tuple(walked.models),
        functions=registry_version(),
        texts=texts,
        scans=tuple(walked.scans),
        model_joins=tuple(
            node
            for node in walk(skeleton)
            if isinstance(node, LogicalModelJoin)
        ),
    )
    return template, walked.tables, tuple(walked.ranges)


class _Walked:
    """What :func:`_skeleton` collects from a live logical tree."""

    def __init__(self):
        self.tables: dict = {}
        self.models: list[ModelIdentity] = []
        self.scans: list[LogicalScan] = []
        self.ranges: list = []


def _skeleton(
    node: LogicalNode, identities: dict, walked: _Walked
) -> LogicalNode:
    """A copy of a live logical tree that holds no table: scans and
    model joins point at identities (*identities*, by table object;
    ``walked.tables`` maps each identity back to its table), scans are
    numbered; ranges (collected in scan order) and variant selections
    are cleared."""
    clone = object.__new__(type(node))
    attributes = clone.__dict__
    attributes.update(node.__dict__)
    for name, value in attributes.items():
        if isinstance(value, LogicalNode):
            attributes[name] = _skeleton(value, identities, walked)
        elif type(value) is list:
            attributes[name] = value.copy()
    if isinstance(clone, LogicalScan):
        clone.table = identities.setdefault(
            id(node.table), TableIdentity.of(node.table)
        )
        walked.tables[clone.table] = node.table
        walked.ranges.append(node.ranges)
        clone.ranges = []
        clone.template_index = len(walked.scans)
        walked.scans.append(clone)
    elif isinstance(clone, LogicalModelJoin):
        model = ModelIdentity(
            node.model_name,
            node.version,
            node.metadata,
            TableIdentity.of(node.model_table, with_version=True),
        )
        walked.models.append(model)
        walked.tables[model.table] = node.model_table
        clone.model_table = model.table
        clone.selection = None
    return clone


# ----------------------------------------------------------------------
# compiled plans
# ----------------------------------------------------------------------
def prototype_key(
    partition_index: int | None, vector_size: int, selections
) -> tuple:
    """What a compiled plan's shape depends on beyond its template: a
    serial plan or one partition pipeline (scan orderings differ), the
    scan-vector length, and each ModelJoin's variant (its device)."""
    return (
        partition_index is None,
        vector_size,
        tuple(selection.chosen for selection in selections),
    )


@dataclass(eq=False)
class FragmentTemplate:
    """How a template's statement splits over partitions, kept by the
    template so that a hit runs neither the fragment planner nor the
    merge's lowering.

    *plan* is the :class:`~repro.db.plan.fragments.FragmentPlan` of the
    statement that worked it out, its literals slotted; each hit gets a
    copy with its own key, values and row estimate (:meth:`instantiate`).
    *key* names the per-partition statement in a plan cache: the merge,
    the shape and the fixed slots' texts decide that statement up to the
    free values.  The first merge keeps its compiled plan as *merge*,
    which every later one instances.
    """

    plan: FragmentPlan
    #: None for a declined plan (nothing runs per partition)
    key: str | None
    #: the slots the per-partition statement reads
    slots: frozenset
    merge: object = None

    @classmethod
    def of(cls, plan: FragmentPlan, template: PlanTemplate):
        """The fragment template of *plan*, split from a statement of
        the (analyzed) *template*."""
        key = None
        if plan.merge != "decline":
            key = (
                f"\x00{plan.merge}\x00{template.shape}\x00{template.fixed!r}"
            )
        return cls(plan, key, frozenset(literal_slots(plan.statement)))

    def instantiate(self, values: tuple, tables: dict) -> FragmentPlan:
        """The fragment plan of a statement with the literal *values*
        that bound *tables* (``identity -> table``).  A declined plan is
        shared as it is."""
        if self.key is None:
            return self.plan
        plan = object.__new__(FragmentPlan)
        plan.__dict__.update(self.plan.__dict__)
        if plan.sharded:
            plan.estimated_rows = sharded_rows(tables.values())
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

    def _replace(self, old: PlanTemplate, new: PlanTemplate) -> None:
        """Swap *old* for *new* unless the shape was re-recorded since."""
        with self._lock:
            if self._templates.get(old.shape) is old:
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
