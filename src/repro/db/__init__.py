"""Columnar, vectorized, partition-parallel SQL engine substrate.

This package is the stand-in for the Actian Vector (x100) engine used by
the paper.  It provides:

- block-wise columnar storage with Small Materialized Aggregates
  (min/max zone maps) enabling block pruning (:mod:`repro.db.column`),
- a Volcano-style vectorized executor working on batches of up to one
  4096-row storage block, made of the paper's 1024-value vectors
  (:mod:`repro.db.operators`),
- a SQL frontend (lexer, parser, planner) for the dialect needed by the
  ML-To-SQL code generator plus the ``MODEL JOIN`` extension
  (:mod:`repro.db.sql`, :mod:`repro.db.planner`),
- vectorized Python UDFs with an explicit marshalling boundary
  (:mod:`repro.db.udf`),
- partitioned parallel execution (:mod:`repro.db.parallel`) and
- engine-side memory accounting (:mod:`repro.db.profiler`).

The public entry point is :class:`repro.db.engine.Database`.
"""

from repro.db.engine import Database, Result
from repro.db.schema import Column, Schema
from repro.db.types import SqlType

__all__ = ["Database", "Result", "Schema", "Column", "SqlType"]
