"""Ordered rewrite rules over the logical plan.

Every rule is a function ``(root, firings) -> root`` that mutates or
replaces parts of the tree and records a :class:`RuleFiring` for every
change it makes, so EXPLAIN can show exactly what the optimizer did.

Rule order matters and is fixed:

1. ``constant-folding``      — evaluate literal arithmetic at plan time.
2. ``predicate-pushdown``    — sink filter conjuncts below joins and
   below ModelJoin when they only touch pass-through columns (the
   Raven-style early-pruning optimization: filtered-out tuples are
   never scored by the model).
3. ``join-key-extraction``   — classify join conjuncts into hash-key
   equality pairs and a residual predicate.
4. ``sma-range-derivation``  — derive SMA/zone-map pruning ranges on
   base-table scans from pushed comparison predicates (paper §4.4).
5. ``projection-pushdown``   — restrict every base-table scan to the
   columns the query actually references.

Subqueries are optimized as independent regions first and then treated
as opaque leaves, mirroring the recursive structure of binding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.expressions import BinaryOp, Expression, Literal, UnaryOp
from repro.db.plan.logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalModelJoin,
    LogicalNode,
    LogicalOrderBy,
    LogicalProject,
    LogicalScan,
    LogicalSubquery,
    bindings_of,
    equi_key_pair,
    extract_ranges,
    rebuild,
    recompute_estimates,
    walk,
)


@dataclass(frozen=True)
class RuleFiring:
    """One recorded application of a rewrite rule."""

    rule: str
    detail: str


class RuleEngine:
    """Applies the ordered rule list to a bound logical tree."""

    def __init__(self, options) -> None:
        self.options = options

    def run(
        self, root: LogicalNode
    ) -> tuple[LogicalNode, list[RuleFiring]]:
        firings: list[RuleFiring] = []
        if not self.options.use_optimizer_rules:
            return root, firings
        root = self._run_region(root, firings)
        recompute_estimates(root)
        return root, firings

    def _run_region(
        self, root: LogicalNode, firings: list[RuleFiring]
    ) -> LogicalNode:
        # Optimize nested query blocks first, each in its own region so
        # binding names cannot collide across nesting levels.
        for node in walk(root, into_subqueries=False):
            if isinstance(node, LogicalSubquery):
                node.inner = self._run_region(node.inner, firings)
        root = _fold_constants(root, firings)
        root = _push_predicates(root, firings)
        _extract_join_keys(root, firings)
        if self.options.use_block_pruning:
            _derive_sma_ranges(root, firings)
        _push_projections(root, firings)
        return root


# ----------------------------------------------------------------------
# rule 1: constant folding
# ----------------------------------------------------------------------
def _fold_constants(
    root: LogicalNode, firings: list[RuleFiring]
) -> LogicalNode:
    def fold(expression: Expression) -> Expression:
        expression = rebuild(expression, fold)
        if (
            isinstance(expression, BinaryOp)
            and isinstance(expression.left, Literal)
            and isinstance(expression.right, Literal)
            and expression.operator in ("+", "-", "*", "/")
            and _is_number(expression.left.value)
            and _is_number(expression.right.value)
        ):
            if expression.operator == "/" and expression.right.value == 0:
                return expression
            value = _evaluate(
                expression.operator,
                expression.left.value,
                expression.right.value,
            )
            if isinstance(value, int) and not -(2**63) <= value < 2**63:
                return expression  # raises IntegerOverflowError at run time
            folded = Literal.of(value)
            firings.append(
                RuleFiring(
                    "constant-folding", f"{expression} -> {folded}"
                )
            )
            return folded
        if (
            isinstance(expression, UnaryOp)
            and expression.operator == "-"
            and isinstance(expression.operand, Literal)
            and _is_number(expression.operand.value)
        ):
            folded = Literal.of(-expression.operand.value)
            firings.append(
                RuleFiring(
                    "constant-folding", f"{expression} -> {folded}"
                )
            )
            return folded
        return expression

    for node in walk(root, into_subqueries=False):
        if isinstance(node, LogicalFilter):
            node.conjuncts = [fold(c) for c in node.conjuncts]
        elif isinstance(node, LogicalJoin):
            node.conjuncts = [fold(c) for c in node.conjuncts]
        elif isinstance(node, LogicalProject):
            node.expressions = [fold(e) for e in node.expressions]
        elif isinstance(node, LogicalAggregate):
            node.group_exprs = [fold(e) for e in node.group_exprs]
    return root


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _evaluate(operator: str, left, right):
    if operator == "+":
        return left + right
    if operator == "-":
        return left - right
    if operator == "*":
        return left * right
    return left / right


# ----------------------------------------------------------------------
# rule 2: predicate pushdown
# ----------------------------------------------------------------------
def _push_predicates(
    root: LogicalNode, firings: list[RuleFiring]
) -> LogicalNode:
    def visit(node: LogicalNode) -> LogicalNode:
        for index, child in enumerate(list(node.children())):
            replaced = visit(child)
            if replaced is not child:
                _replace_child(node, index, replaced)
        if isinstance(node, LogicalFilter):
            kept: list[Expression] = []
            for conjunct in node.conjuncts:
                if not _sink(node.child, conjunct, firings):
                    kept.append(conjunct)
            if not kept:
                return node.child
            node.conjuncts = kept
        return node

    return visit(root)


def _sink(
    node: LogicalNode, conjunct: Expression, firings: list[RuleFiring]
) -> bool:
    """Try to absorb *conjunct* at or below *node*; True on success."""
    references = bindings_of(conjunct)
    if not references:
        return False
    if isinstance(node, LogicalFilter):
        if _sink(node.child, conjunct, firings):
            return True
        node.conjuncts.append(conjunct)
        return True
    if isinstance(node, LogicalJoin):
        left_names = _binding_set(node.left)
        right_names = _binding_set(node.right)
        if references <= left_names:
            _sink_or_wrap(node, 0, node.left, conjunct, firings)
            firings.append(
                RuleFiring(
                    "predicate-pushdown",
                    f"pushed {conjunct} below join (left side)",
                )
            )
            return True
        if references <= right_names:
            _sink_or_wrap(node, 1, node.right, conjunct, firings)
            firings.append(
                RuleFiring(
                    "predicate-pushdown",
                    f"pushed {conjunct} below join (right side)",
                )
            )
            return True
        if references <= (left_names | right_names):
            node.conjuncts.append(conjunct)
            firings.append(
                RuleFiring(
                    "predicate-pushdown",
                    f"merged {conjunct} into join condition",
                )
            )
            return True
        return False
    if isinstance(node, LogicalModelJoin):
        # Pass-through-column predicates run *before* inference so the
        # filtered-out tuples are never scored (Raven early pruning).
        pass_through = {
            name.split(".", 1)[0].lower()
            for name in node.child.output_names()
            if "." in name
        }
        if references <= pass_through:
            _sink_or_wrap(node, 0, node.child, conjunct, firings)
            firings.append(
                RuleFiring(
                    "predicate-pushdown",
                    f"pushed {conjunct} below "
                    f"ModelJoin({node.metadata.model_name})",
                )
            )
            return True
        return False
    return False


def _sink_or_wrap(
    parent: LogicalNode,
    child_index: int,
    child: LogicalNode,
    conjunct: Expression,
    firings: list[RuleFiring],
) -> None:
    if not _sink(child, conjunct, firings):
        _replace_child(
            parent, child_index, LogicalFilter(child, [conjunct])
        )


def _replace_child(
    parent: LogicalNode, index: int, replacement: LogicalNode
) -> None:
    if isinstance(parent, LogicalJoin):
        if index == 0:
            parent.left = replacement
        else:
            parent.right = replacement
    elif isinstance(parent, LogicalSubquery):
        parent.inner = replacement
    elif hasattr(parent, "child"):
        parent.child = replacement
    else:  # pragma: no cover - all parent node types are covered above
        raise AssertionError(f"cannot replace child of {parent!r}")


def _binding_set(node: LogicalNode) -> set[str]:
    return {
        name.split(".", 1)[0].lower()
        for name in node.output_names()
        if "." in name
    }


# ----------------------------------------------------------------------
# rule 3: join-key extraction
# ----------------------------------------------------------------------
def _extract_join_keys(
    root: LogicalNode, firings: list[RuleFiring]
) -> None:
    for node in walk(root, into_subqueries=False):
        if not isinstance(node, LogicalJoin) or not node.conjuncts:
            continue
        left_bindings = _binding_set(node.left)
        right_bindings = _binding_set(node.right)
        residual: list[Expression] = []
        for conjunct in node.conjuncts:
            pair = equi_key_pair(conjunct, left_bindings, right_bindings)
            if pair is not None:
                node.left_keys.append(pair[0])
                node.right_keys.append(pair[1])
                firings.append(
                    RuleFiring(
                        "join-key-extraction",
                        f"hash key {pair[0]} = {pair[1]}",
                    )
                )
            else:
                residual.append(conjunct)
        node.residual = residual
        node.conjuncts = []


# ----------------------------------------------------------------------
# rule 4: SMA range derivation
# ----------------------------------------------------------------------
def scan_regions(root: LogicalNode) -> list[tuple[LogicalScan, list]]:
    """Every scan with the filter conjuncts of its query block — rule
    4's inputs, region by region as :meth:`RuleEngine.run` applies it,
    nested blocks first.  A plan-cache template keeps them so a hit
    derives its ranges from the literal values alone."""
    nodes = walk(root, into_subqueries=False)
    pairs = []
    for node in nodes:
        if isinstance(node, LogicalSubquery):
            pairs.extend(scan_regions(node.inner))
    return pairs + _region_scans(nodes)


def _region_scans(nodes: list[LogicalNode]) -> list[tuple[LogicalScan, list]]:
    conjuncts: list[Expression] = []
    for node in nodes:
        if isinstance(node, LogicalFilter):
            conjuncts.extend(node.conjuncts)
    return [
        (node, conjuncts) for node in nodes if isinstance(node, LogicalScan)
    ]


def set_ranges(
    scan: LogicalScan, ranges: list, firings: list[RuleFiring]
) -> None:
    """Give *scan* its derived pruning *ranges*, recording the firing
    (no ranges: the scan keeps none)."""
    if ranges:
        scan.ranges = ranges
        rendered = ", ".join(str(r) for r in ranges)
        firings.append(
            RuleFiring(
                "sma-range-derivation", f"scan {scan.binding}: {rendered}"
            )
        )


def _derive_sma_ranges(
    root: LogicalNode, firings: list[RuleFiring]
) -> None:
    for scan, conjuncts in _region_scans(walk(root, into_subqueries=False)):
        if conjuncts:
            set_ranges(
                scan,
                extract_ranges(conjuncts, scan.binding, scan.table.schema),
                firings,
            )


# ----------------------------------------------------------------------
# rule 5: projection pushdown
# ----------------------------------------------------------------------
def _push_projections(
    root: LogicalNode, firings: list[RuleFiring]
) -> None:
    _require(root, None, firings)


def _require(
    node: LogicalNode,
    required: set[str] | None,
    firings: list[RuleFiring],
) -> None:
    """Propagate the set of required qualified names (lower-cased) down
    the tree; ``None`` means "everything" (e.g. below Distinct of *)."""
    if isinstance(node, LogicalProject):
        needed = _refs(node.expressions)
        _require(node.child, needed, firings)
    elif isinstance(node, LogicalFilter):
        needed = _union(required, _refs(node.conjuncts))
        _require(node.child, needed, firings)
    elif isinstance(node, LogicalOrderBy):
        needed = _union(
            required, {key.lower() for key in node.keys}
        )
        _require(node.child, needed, firings)
    elif isinstance(node, LogicalAggregate):
        needed = _refs(node.group_exprs)
        for spec in node.aggregates:
            if spec.argument is not None:
                needed |= _refs([spec.argument])
        _require(node.child, needed, firings)
    elif isinstance(node, LogicalJoin):
        needed = _union(required, _refs(node.left_keys))
        needed = _union(needed, _refs(node.right_keys))
        needed = _union(needed, _refs(node.residual))
        needed = _union(needed, _refs(node.conjuncts))
        _require(node.left, needed, firings)
        _require(node.right, needed, firings)
    elif isinstance(node, LogicalModelJoin):
        if node.input_columns is None:
            # The physical operator picks its input columns from the
            # child schema (first FLOAT columns), so the child must
            # keep every column it produces today.
            _require(node.child, None, firings)
        else:
            needed = _union(
                required,
                {name.lower() for name in node.input_columns},
            )
            _require(node.child, needed, firings)
    elif isinstance(node, LogicalSubquery):
        # The inner region was already optimized independently; its
        # projection list defines the subquery's contract.
        return
    elif isinstance(node, LogicalScan):
        if required is None:
            return
        keep = [
            name
            for name in node.columns
            if f"{node.binding}.{name}".lower() in required
        ]
        if not keep:
            keep = [node.columns[0]]
        if len(keep) < len(node.columns):
            firings.append(
                RuleFiring(
                    "projection-pushdown",
                    f"scan {node.binding}: fetch {len(keep)}/"
                    f"{len(node.columns)} columns",
                )
            )
            node.columns = keep
    else:
        for child in node.children():
            _require(child, required, firings)


def _refs(expressions: list[Expression]) -> set[str]:
    names: set[str] = set()
    for expression in expressions:
        names |= {
            name.lower() for name in expression.referenced_columns()
        }
    return names


def _union(
    required: set[str] | None, extra: set[str]
) -> set[str] | None:
    if required is None:
        return None
    return required | extra
