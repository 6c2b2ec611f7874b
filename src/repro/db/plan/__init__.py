"""The planning pipeline: logical plan IR, rewrite rules, lowering.

Planning is split into three layers (see docs/ARCHITECTURE.md):

1. :mod:`repro.db.plan.logical` — the binder turns a parsed
   ``SelectStatement`` into a typed logical-operator tree whose column
   references are fully resolved against the complete scope and whose
   nodes carry output names and estimated cardinalities.
2. :mod:`repro.db.plan.rules` — an ordered rewrite-rule engine
   (constant folding, predicate pushdown through joins *and* through
   ModelJoin, join-key extraction, SMA range derivation, projection
   pushdown into scans).  Every firing is recorded so EXPLAIN can show
   what the optimizer did.
3. :mod:`repro.db.plan.physical` — lowering to physical operators,
   including cost-based selection of the ModelJoin execution variant.

:mod:`repro.db.plan.fragments` decides how an optimized plan splits
over partitions (thread pipelines or shard processes) and builds the
merge that finishes it.
"""

from repro.db.plan.logical import LogicalBinder, LogicalNode
from repro.db.plan.physical import (
    IN_PLAN_VARIANTS,
    VariantEstimate,
    VariantSelection,
)
from repro.db.plan.rules import RuleEngine, RuleFiring

__all__ = [
    "IN_PLAN_VARIANTS",
    "LogicalBinder",
    "LogicalNode",
    "RuleEngine",
    "RuleFiring",
    "VariantEstimate",
    "VariantSelection",
]
