"""Variant-level fallback chain for in-database inference.

The paper evaluates several interchangeable inference approaches
(native ModelJoin on CPU or GPU, ML-To-SQL, runtime API, external
Python).  Because they compute the same function, a failing variant can
be *substituted* instead of failing the query — the robustness
counterpart of the paper's performance comparison.

:class:`ResilientModelJoin` runs the preferred variant and degrades
along the optimizer's ranked variant list when it fails:

1. native ModelJoin on the preferred device (skipped up front when the
   device's circuit breaker is open from earlier failures);
2. the remaining usable variants — native host CPU (when the preferred
   device is a GPU; bit-exact, same NumPy kernels), runtime API and
   ML-To-SQL — ordered cheapest-first by the database's cost-based
   variant selector (see :mod:`repro.core.cost.selector`); without a
   selector the legacy fixed order applies.

Query deadlines are honored across the chain: a
:class:`~repro.errors.QueryTimeoutError` aborts immediately (trying a
slower variant cannot beat a deadline the fast one already missed).
When every variant fails, :class:`~repro.errors.FallbackExhaustedError`
is raised with the last variant's error as its cause.
"""

from __future__ import annotations

import numpy as np

from repro.core.modeljoin.runner import DirectRunner, NativeModelJoin
from repro.core.runtime_api.runner import RuntimeApiModelJoin
from repro.db.engine import Database
from repro.db.resilience import breaker_for
from repro.device.base import Device
from repro.device.host import HostDevice
from repro.errors import FallbackExhaustedError, QueryTimeoutError
from repro.nn.model import Sequential


class ResilientModelJoin:
    """Inference with automatic variant fallback.

    Parameters: *model_name* is the registered native model; *model*
    (the trained :class:`Sequential`) additionally enables the
    ML-To-SQL leg of the chain, which regenerates its model table from
    the network itself.  ``engaged`` records the fallback steps of the
    last :meth:`predict` call.

    Compiled-kernel failures are handled one layer below this chain:
    when a generated pipeline kernel raises, the engine catches
    :class:`~repro.errors.CompiledKernelError`, records a failure on
    its compile circuit breaker, and transparently re-executes the
    statement interpreted (``use_compiled_kernels=False``) — so the
    legs here never see a compiled-path error, only genuine variant
    failures.
    """

    def __init__(
        self,
        database: Database,
        model_name: str,
        model: Sequential | None = None,
        device: Device | None = None,
        enable_mltosql: bool = True,
        enable_runtime_api: bool = True,
        replicate_bias: bool = True,
    ):
        self.database = database
        self.model_name = model_name
        self.model = model
        self.device = device or HostDevice()
        self.enable_mltosql = enable_mltosql
        self.enable_runtime_api = enable_runtime_api
        self.replicate_bias = replicate_bias
        self.engaged: list[str] = []
        self._mltosql = None

    # ------------------------------------------------------------------
    # chain construction
    # ------------------------------------------------------------------
    def _variants(self, tuples: int | None = None):
        """(name, runner) pairs in degradation order for this call.

        The preferred device stays first (it is what the caller asked
        for); every *fallback* leg behind it is ordered by the
        database's cost-based variant selector — the optimizer's
        ranked variant list doubles as the degradation chain.
        """
        chain = []
        breaker = breaker_for(self.device)
        if not (self.device.is_gpu and breaker.is_open):
            chain.append((f"native-{self.device.name}", self.device))
        else:
            self._note(
                "circuit-breaker",
                f"skipping {self.device.name}: breaker open",
            )
        fallbacks: dict[str, tuple[str, object]] = {}
        if self.device.is_gpu:
            fallbacks["native-cpu"] = ("native-cpu", HostDevice())
        if self.enable_runtime_api and self.model is not None:
            fallbacks["runtime-api"] = ("runtime-api", "runtime-api")
        if self.enable_mltosql and self.model is not None:
            fallbacks["ml-to-sql"] = ("ml-to-sql", None)
        chain.extend(
            fallbacks[name]
            for name in self._fallback_order(list(fallbacks), tuples)
        )
        return chain

    def _fallback_order(
        self, names: list[str], tuples: int | None
    ) -> list[str]:
        selector = getattr(self.database, "variant_selector", None)
        if selector is None or not names:
            return names
        try:
            metadata = self.database.catalog.model(self.model_name)
            ranked = [
                estimate.variant
                for estimate in selector.rank(metadata, tuples or 1)
            ]
        except Exception:
            return names
        ordered = [name for name in ranked if name in names]
        ordered.extend(name for name in names if name not in ordered)
        return ordered

    def _mltosql_runner(self):
        if self._mltosql is None:
            from repro.core.ml_to_sql.generator import MlToSqlModelJoin

            self._mltosql = MlToSqlModelJoin(
                self.database,
                self.model,
                model_table=f"{self.model_name}_fallback_mlsql",
            )
        return self._mltosql

    def _direct_runner(self, device) -> DirectRunner:
        if device == "runtime-api":
            return RuntimeApiModelJoin(self.database, self.model)
        return NativeModelJoin(
            self.database,
            self.model_name,
            device=device,
            replicate_bias=self.replicate_bias,
        )

    def _note(self, kind: str, note: str) -> None:
        self.engaged.append(note)
        metrics = self.database.metrics
        metrics.counter("fallback.engaged").increment()
        metrics.counter(f"fallback.{kind}").increment()
        self.database.tracer.instant(
            "fallback",
            category="fallback",
            args={"kind": kind, "note": note},
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def predict(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str],
        parallel: bool = False,
        timeout_seconds: float | None = None,
    ) -> np.ndarray:
        """Predictions ordered by ID, surviving variant failures."""
        self.engaged = []
        try:
            tuples = self.database.table(fact_table).row_count
        except Exception:
            tuples = None
        chain = self._variants(tuples)
        if not chain:
            raise FallbackExhaustedError(
                f"no usable inference variant for model "
                f"'{self.model_name}' (circuit breaker open and no "
                "fallback enabled)"
            )
        last_error: BaseException | None = None
        for position, (name, device) in enumerate(chain):
            try:
                if device is None:
                    result = self._mltosql_runner().predict(
                        fact_table,
                        id_column,
                        input_columns,
                        parallel=parallel,
                    )
                else:
                    result = self._direct_runner(device).predict(
                        fact_table,
                        id_column,
                        input_columns,
                        parallel,
                        timeout_seconds,
                    )
                if isinstance(device, Device) and device.is_gpu:
                    breaker_for(device).record_success()
                return result
            except QueryTimeoutError:
                # A slower variant cannot rescue a missed deadline.
                raise
            except Exception as error:
                last_error = error
                if isinstance(device, Device) and device.is_gpu:
                    breaker_for(device).record_failure()
                if position + 1 < len(chain):
                    next_name = chain[position + 1][0]
                    self._note("variant", f"{name}->{next_name}")
        raise FallbackExhaustedError(
            f"all {len(chain)} inference variant(s) failed for model "
            f"'{self.model_name}'; last: {type(last_error).__name__}: "
            f"{last_error}"
        ) from last_error
