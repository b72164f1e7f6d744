"""Flat-file substrate: dialects, writing, tokenization, parsing, schema.

This package is the part of the system that understands raw data files.
Everything above it (the adaptive loader, the baselines) goes through these
primitives, so the cost model of the whole reproduction — "touching the flat
file is expensive, touching loaded columns is cheap" — lives here.  The
dialect layer (:mod:`repro.flatfile.dialects`) maps real-world formats —
quoted CSV, escaped TSV, JSON-lines, fixed-width — onto the same substrate.
"""

from repro.flatfile.dialects import (
    FORMATS,
    DelimitedAdapter,
    FixedWidthAdapter,
    FormatAdapter,
    JsonLinesAdapter,
    QuotedCsvAdapter,
    TsvAdapter,
    make_adapter,
    sniff_format,
)
from repro.flatfile.files import FileFingerprint, FlatFile
from repro.flatfile.parser import parse_fields
from repro.flatfile.schema import ColumnSchema, DataType, TableSchema, infer_schema
from repro.flatfile.tokenizer import (
    TokenizerStats,
    tokenize_bytes,
    tokenize_dialect,
)
from repro.flatfile.writer import write_csv

__all__ = [
    "FORMATS",
    "ColumnSchema",
    "DataType",
    "DelimitedAdapter",
    "FileFingerprint",
    "FixedWidthAdapter",
    "FlatFile",
    "FormatAdapter",
    "JsonLinesAdapter",
    "QuotedCsvAdapter",
    "TableSchema",
    "TokenizerStats",
    "TsvAdapter",
    "infer_schema",
    "make_adapter",
    "parse_fields",
    "sniff_format",
    "tokenize_bytes",
    "tokenize_dialect",
    "write_csv",
]
