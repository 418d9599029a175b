"""Shared utilities: size parsing, result records, tables."""

from repro.util.sizes import (
    format_size,
    parse_size,
    power_of_two_sizes,
    DEFAULT_OMB_SIZES,
)
from repro.util.records import ResultRecord, ResultSet
from repro.util.tables import ascii_table

__all__ = [
    "format_size",
    "parse_size",
    "power_of_two_sizes",
    "DEFAULT_OMB_SIZES",
    "ResultRecord",
    "ResultSet",
    "ascii_table",
]
