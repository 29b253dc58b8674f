"""Embedded relational storage engine.

A small database: typed schemas, column-oriented tables with
primary-key/unique/secondary hash indexes and foreign keys, a fluent
query builder with hash joins and grouping, a SQL dialect with prepared
statements and a per-database plan cache, and CSV+JSON persistence.
Supported queries run on a vectorised columnar executor
(:mod:`repro.db.columnar`, numpy-backed) with the row-at-a-time
reference executor retained behind ``Query.reference()`` /
``sql(..., reference=True)``. It hosts the reproduction's CulinaryDB
(:mod:`repro.culinarydb`) and is usable on its own.
"""

from .aggregates import (
    Aggregate,
    avg,
    collect,
    count,
    count_distinct,
    max_,
    min_,
    stddev,
    sum_,
    variance,
)
from .database import Database
from .errors import (
    ConstraintViolation,
    DatabaseError,
    QueryError,
    SchemaError,
    SqlSyntaxError,
)
from .expressions import Expression, Parameter, col, fold_constants, lit, transform
from .persistence import load_database, save_database
from .query import Query
from .schema import Column, ColumnType, ForeignKey, Schema
from .table import Table
from .transactions import TransactionError, transaction

__all__ = [
    "Aggregate",
    "avg",
    "collect",
    "count",
    "count_distinct",
    "max_",
    "min_",
    "stddev",
    "sum_",
    "variance",
    "Database",
    "ConstraintViolation",
    "DatabaseError",
    "QueryError",
    "SchemaError",
    "SqlSyntaxError",
    "Expression",
    "Parameter",
    "col",
    "fold_constants",
    "lit",
    "transform",
    "load_database",
    "save_database",
    "Query",
    "Column",
    "ColumnType",
    "ForeignKey",
    "Schema",
    "Table",
    "TransactionError",
    "transaction",
]
