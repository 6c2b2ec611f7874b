"""Nested-query generation for the ModelJoin (paper Listing 1).

:class:`SqlGenerator` composes the templates of
:mod:`repro.core.ml_to_sql.templates` into one inference query::

    Output(Activate(Layer_forward( ... Input(R, model) ... )))

and :class:`MlToSqlModelJoin` is the user-facing convenience that loads
the model table, generates the query and runs it.
"""

from __future__ import annotations

import numpy as np

from repro.core.ml_to_sql import templates
from repro.core.ml_to_sql.loader import load_model_table
from repro.core.ml_to_sql.representation import (
    MlToSqlOptions,
    RelationalModel,
    build_relational_model,
)
from repro.core.predictions import predictions_by_id
from repro.db.engine import Database, Result
from repro.errors import UnsupportedModelError
from repro.nn.model import Sequential


def dense_join_work(rows: int, width: int, depth: int, inputs: int) -> int:
    """Join-output volume of the generated dense inference query.

    Each layer materializes ``rows * fan_in * fan_out`` intermediate
    tuples; this is the dominant cost of the ML-To-SQL approach and
    what the bench harness uses to skip cells that would exceed its
    work budget.
    """
    total = rows * inputs  # input function
    previous = inputs
    for _ in range(depth):
        total += rows * previous * width
        previous = width
    total += rows * previous * 1
    return total


def lstm_join_work(rows: int, width: int, steps: int) -> int:
    """Join-output volume of the generated LSTM inference query."""
    return rows * width * width * max(steps - 1, 1) + rows * width


class SqlGenerator:
    """Generates the inference SQL for one (model, fact table) pair."""

    def __init__(
        self,
        relational: RelationalModel,
        fact_table: str,
        id_column: str,
        input_columns: list[str],
        payload_columns: list[str] | None = None,
        prediction_prefix: str = "prediction",
    ):
        if relational.table_name is None:
            raise UnsupportedModelError(
                "the relational model has not been loaded into a table; "
                "call load_model_table first"
            )
        expected = (
            relational.time_steps
            if relational.has_lstm
            else relational.input_width
        )
        if len(input_columns) != expected:
            raise UnsupportedModelError(
                f"model expects {expected} input columns, "
                f"got {len(input_columns)}"
            )
        if relational.has_lstm and not relational.options.optimized_node_ids:
            raise UnsupportedModelError(
                "LSTM generation requires the optimized node-id scheme"
            )
        self.relational = relational
        self.options = relational.options
        self.fact_table = fact_table
        self.id_column = id_column
        self.input_columns = list(input_columns)
        self.payload_columns = list(payload_columns or [])
        self.prediction_prefix = prediction_prefix

    # ------------------------------------------------------------------
    # query generation
    # ------------------------------------------------------------------
    def inference_query(self, order_by_id: bool = False) -> str:
        """The full nested ModelJoin query."""
        if self.relational.has_lstm:
            query = self._lstm_prefix()
            remaining = [
                block
                for block in self.relational.blocks
                if block.kind == "dense"
            ]
        else:
            query = self._dense_input()
            remaining = [
                block
                for block in self.relational.blocks
                if block.kind == "dense"
            ]
        for block in remaining:
            query = self._dense_layer(query, block)
        query = self._output(query)
        if order_by_id:
            query += f" ORDER BY {self.id_column}"
        return query

    def building_blocks(self) -> list[tuple[str, str]]:
        """(name, SQL) of each nesting level, for inspection/debugging."""
        blocks: list[tuple[str, str]] = []
        if self.relational.has_lstm:
            query = self._lstm_prefix()
            blocks.append(("lstm", query))
        else:
            query = self._dense_input()
            blocks.append(("input", query))
        for block in self.relational.blocks:
            if block.kind != "dense":
                continue
            query = self._dense_layer(query, block)
            blocks.append((f"dense@{block.first_node}", query))
        blocks.append(("output", self._output(query)))
        return blocks

    def _dense_input(self) -> str:
        input_block = self.relational.block("input")
        if self.options.optimized_node_ids:
            return templates.dense_input_optimized(
                self.fact_table,
                self.id_column,
                self.input_columns,
                self.relational.table_name,
                input_block.first_node,
            )
        return templates.dense_input_classic(
            self.fact_table,
            self.id_column,
            self.input_columns,
            self.relational.table_name,
            input_block.layer_index,
        )

    def _dense_layer(self, previous_query: str, block) -> str:
        if self.options.optimized_node_ids:
            forward = templates.dense_forward_optimized(
                previous_query,
                self.relational.table_name,
                block.first_node,
                block.last_node,
            )
        else:
            forward = templates.dense_forward_classic(
                previous_query,
                self.relational.table_name,
                block.layer_index,
            )
        return templates.activate(
            forward,
            block.activation,
            self.options.native_activation_functions,
            carry_layer=not self.options.optimized_node_ids,
        )

    def _lstm_prefix(self) -> str:
        block = self.relational.block("lstm_state")
        steps = self.relational.time_steps
        # Carried columns: the not-yet-consumed time steps (named after
        # their 1-based step index so nesting levels stay readable).
        carried_names = [f"x{step}" for step in range(2, steps + 1)]
        query = templates.lstm_first_step(
            self.fact_table,
            self.id_column,
            self.input_columns[0],
            carried_names,
            self.input_columns[1:],
            self.relational.table_name,
            block.first_node,
            block.last_node,
            block.activation,
            block.recurrent_activation,
            self.options.native_activation_functions,
        )
        for step in range(2, steps + 1):
            remaining = [f"x{later}" for later in range(step + 1, steps + 1)]
            query = templates.lstm_step(
                query,
                f"x{step}",
                remaining,
                self.relational.table_name,
                block.first_node,
                block.last_node,
                block.activation,
                block.recurrent_activation,
                self.options.native_activation_functions,
            )
        return templates.lstm_to_dense_bridge(query)

    def _output(self, previous_query: str) -> str:
        output_block = self.relational.forward_blocks()[-1]
        if self.options.optimized_node_ids:
            nodes = list(
                range(output_block.first_node, output_block.last_node + 1)
            )
        else:
            nodes = list(range(output_block.units))
        return templates.output_join(
            previous_query,
            self.fact_table,
            self.id_column,
            self.payload_columns,
            nodes,
            self.prediction_prefix,
        )


class MlToSqlModelJoin:
    """End-to-end ML-To-SQL runner: load model table, generate, execute.

    This is the framework's "simple API" (paper Section 4): given a
    trained model and a database connection, it creates the model table
    and performs inference with one generated SQL query.
    """

    def __init__(
        self,
        database: Database,
        model: Sequential,
        options: MlToSqlOptions | None = None,
        model_table: str = "model_table",
    ):
        self.database = database
        self.model = model
        self.options = options or MlToSqlOptions()
        self.relational = build_relational_model(model, self.options)
        load_model_table(
            database, model_table, self.relational, replace=True
        )

    def generator(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str],
        payload_columns: list[str] | None = None,
    ) -> SqlGenerator:
        return SqlGenerator(
            self.relational,
            fact_table,
            id_column,
            input_columns,
            payload_columns,
        )

    def predict(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str],
        parallel: bool = False,
    ) -> np.ndarray:
        """Inference results ordered by the fact table's unique ID."""
        result = self.execute(
            fact_table, id_column, input_columns, parallel=parallel
        )
        return predictions_by_id(
            result, id_column, self.relational.output_width
        )

    def execute(
        self,
        fact_table: str,
        id_column: str,
        input_columns: list[str],
        payload_columns: list[str] | None = None,
        parallel: bool = False,
    ) -> Result:
        query = self.generator(
            fact_table, id_column, input_columns, payload_columns
        ).inference_query()
        return self.database.execute(query, parallel=parallel)
