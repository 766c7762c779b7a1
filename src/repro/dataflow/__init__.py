"""Pig-style dataflow substrate: schemas, expressions, logical plans,
the Pig Latin subset parser (the one front end: every plan a client or
the control tier runs is parsed from Pig text), a rewrite-rule
optimizer, and a local reference interpreter."""

from repro.dataflow.interpreter import interpret
from repro.dataflow.optimizer import OptimizeReport, optimize
from repro.dataflow.piglatin import parse_script
from repro.dataflow.plan import LogicalPlan
from repro.dataflow.schema import Field, Schema
from repro.dataflow.unparse import unparse

__all__ = [
    "Field",
    "LogicalPlan",
    "OptimizeReport",
    "Schema",
    "interpret",
    "optimize",
    "parse_script",
    "unparse",
]
