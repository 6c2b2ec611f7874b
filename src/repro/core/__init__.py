"""The paper's contribution: five ways to run model inference in-DBMS.

- :mod:`repro.core.ml_to_sql` — relational model representation + SQL
  generation (paper Section 4),
- :mod:`repro.core.modeljoin` — the native ModelJoin operator, CPU and
  simulated-GPU variants (Section 5),
- :mod:`repro.core.runtime_api` — Raven-like integration of an ML
  runtime over its C-API (approach 2),
- :mod:`repro.core.udf_integration` — vectorized Python UDF inference
  (approach 1),
- :mod:`repro.core.client` — the baseline: ship data to an external
  Python process over (simulated) ODBC and infer there,
- :mod:`repro.core.cost` — the inference cost model sketched as future
  work in Section 7,
- :mod:`repro.core.encoding` — SQL feature encodings, an adjacent
  technique the paper points to.

Importing this package registers the MODEL JOIN operator factory, so
use :func:`repro.core.attach` (or the top-level :func:`repro.connect`)
to get a database with the full feature set.
"""

from repro.core.attach import attach

__all__ = ["attach"]
