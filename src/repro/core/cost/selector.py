"""Cost-based ModelJoin execution-variant selection.

The selector ranks every execution variant the system implements by
predicted runtime, using one calibrated :class:`InferenceCostModel`
per variant (``seconds = a * tuples * flops + b * tuples + c``) — the
coefficients differ by orders of magnitude between variants, which is
the paper's central measurement.  ``repro.core.attach`` installs a
selector on every connected database; the planner consults it per
query with the optimizer's input-cardinality estimate, EXPLAIN prints
the full ranking, and the resilience layer executes the ranking as its
fallback chain.

``DEFAULT_COEFFICIENTS`` were fitted offline with
:meth:`CostBasedVariantSelector.calibrate` (least squares over measured
dense-grid cells on the reference container); recalibrate per
deployment the same way.
"""

from __future__ import annotations

from repro.core.cost.model import (
    InferenceCostModel,
    flops_per_tuple_of_metadata,
)
from repro.db.catalog import ModelMetadata
from repro.db.plan.physical import (
    ALL_VARIANTS,
    IN_PLAN_VARIANTS,
    VariantEstimate,
    VariantSelection,
)

#: per-variant (a, b, c) of ``seconds = a*tuples*flops + b*tuples + c``,
#: fitted from measured dense-grid cells (see module docstring); the
#: orders-of-magnitude spread between the in-engine operator and the
#: ML-To-SQL / external paths mirrors the paper's Figure 8.
DEFAULT_COEFFICIENTS: dict[str, tuple[float, float, float]] = {
    "native-cpu": (1.06e-11, 1.17e-7, 2.1e-4),
    "native-gpu": (3.6e-13, 1.46e-7, 2.4e-4),
    "runtime-api": (1.12e-11, 1.40e-7, 1.2e-4),
    "udf": (9.3e-12, 1.66e-6, 3.2e-4),
    "ml-to-sql": (2.15e-7, 1.0e-6, 4.0e-3),
    "external": (1.2e-11, 2.5e-6, 1.2e-2),
}


#: decisions one selector remembers before it starts over
RANK_MEMO_CAPACITY = 1024


class CostBasedVariantSelector:
    """Ranks ModelJoin execution variants by predicted runtime.

    A ranking, and the decision made from it, depend only on the
    model's metadata, the tuple count and the coefficients, so
    :meth:`select` remembers the decision per (metadata, tuples) until
    :meth:`calibrate` changes a coefficient: a repeated point statement
    ranks and decides once.
    """

    def __init__(
        self,
        coefficients: dict[str, tuple[float, float, float]] | None = None,
    ):
        self.models: dict[str, InferenceCostModel] = {}
        table = dict(DEFAULT_COEFFICIENTS)
        if coefficients:
            table.update(coefficients)
        import numpy as np

        for variant, (a, b, c) in table.items():
            model = InferenceCostModel()
            model.coefficients = np.array([a, b, c], dtype=np.float64)
            self.models[variant] = model
        self._rankings: dict[tuple, VariantSelection] = {}

    # -- planner protocol ------------------------------------------------
    def flops_per_tuple(self, metadata: ModelMetadata) -> float:
        return flops_per_tuple_of_metadata(metadata)

    def rank(
        self, metadata: ModelMetadata, tuples: int
    ) -> list[VariantEstimate]:
        """All variants, cheapest predicted runtime first."""
        return list(self.select(metadata, tuples).estimates)

    def select(
        self, metadata: ModelMetadata, tuples: int
    ) -> VariantSelection:
        """The cost-based decision for a ModelJoin over *tuples*: every
        variant ranked, the cheapest in-plan one chosen."""
        key = (metadata, tuples)
        selection = self._rankings.get(key)
        if selection is None:
            flops = flops_per_tuple_of_metadata(metadata)
            ranking = tuple(
                sorted(
                    (
                        VariantEstimate(
                            variant=variant,
                            predicted_seconds=float(
                                self.models[variant].predict(flops, tuples)
                            ),
                            in_plan=variant in IN_PLAN_VARIANTS,
                        )
                        for variant in ALL_VARIANTS
                        if variant in self.models
                    ),
                    key=lambda e: e.predicted_seconds,
                )
            )
            best = min(
                (e for e in ranking if e.in_plan),
                key=lambda e: e.predicted_seconds,
            )
            selection = VariantSelection(
                model_name=metadata.model_name,
                tuples=tuples,
                flops_per_tuple=flops,
                estimates=ranking,
                chosen=best.variant,
                reason=(
                    f"lowest predicted cost among in-plan variants "
                    f"({best.predicted_seconds * 1e3:.3f} ms for "
                    f"~{tuples} tuples)"
                ),
            )
            if len(self._rankings) >= RANK_MEMO_CAPACITY:
                self._rankings.clear()
            self._rankings[key] = selection
        return selection

    def predict(
        self, variant: str, metadata: ModelMetadata, tuples: int
    ) -> float:
        return float(
            self.models[variant]
            .estimate(metadata, tuples)
            .predicted_seconds
        )

    # -- calibration -----------------------------------------------------
    def calibrate(
        self,
        variant: str,
        observations: list[tuple[int, float, float]],
    ) -> None:
        """Refit one variant from (tuples, flops_per_tuple, seconds)."""
        model = self.models.setdefault(variant, InferenceCostModel())
        model.calibrate(observations)
        self._rankings.clear()
