"""The one file dialect of the pipeline: JSON documents and CSV tables.

A JSON document is an object, written with an indent of 2 and a trailing
newline. A CSV table has one header row; blank lines are skipped. Every field
and cell is read through ``Fields``; every read error starts with the file's path.
``is_int`` and ``is_real`` are the number rules of the settings that code builds instead of reading.
"""
from __future__ import annotations

import csv
import io
import json
import reprlib
import sys
from contextlib import contextmanager

import numpy as np


@contextmanager
def naming(prefix):
    """Re-raise a ValueError raised inside, its message prefixed with ``prefix: ``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def is_int(value) -> bool:
    """An int or a numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """An int, a float, or a numpy integer or floating number, never a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _kind_name(kind) -> str:
    if isinstance(kind, type):
        return kind.__name__
    return f"list of {_kind_name(kind[0])}" if isinstance(kind, list) else f"[{', '.join(map(_kind_name, kind))}]"


class Fields:
    """Typed reads of one file's fields, raising ValueError as ``<path>: <key path>: expected <kind>, got <value>``.

    A kind is ``str``, ``int``, ``float``, ``bool``, ``list`` or ``dict``; ``[kind]`` is a list of that kind,
    a tuple of kinds a list of exactly those. An ``int`` refuses a bool, a fraction and a non-finite number
    (``30.0`` reads as 30); a ``float`` refuses a bool and a string, but not NaN or ±Infinity: range and
    finiteness are the domain checks' business. A key path looks like ``edges[3].lanes``.
    """

    def __init__(self, path):
        self.path = path

    def __call__(self, obj: dict, key: str, kind, at: str = "", default=None):
        """The field ``key`` of the object ``obj`` at key path ``at``; ``default`` if absent, required if None."""
        name = f"{at}.{key}" if at else key
        if key not in obj:
            if default is None:
                raise ValueError(f"{self.path}: missing key '{name}'")
            return default
        return self.value(obj[key], kind, name)

    def items(self, doc: dict, key: str, kind, default=None) -> list:
        """(key path, item) of each item of the document's list ``key``; each item is of ``kind``."""
        return [(f"{key}[{i}]", item) for i, item in enumerate(self(doc, key, [kind], default=default))]

    def cell(self, text: str, kind, line_no: int, column: str):
        """A CSV cell of kind ``int``, ``float`` or ``str``, its key path ``line <n>: <column>``."""
        try:
            value = kind(text)
        except ValueError:
            value = text
        return self.value(value, kind, f"line {line_no}: {column}")

    def value(self, value, kind, at: str):
        """``value`` read as ``kind``; ``at`` is its key path."""
        if isinstance(kind, list) and isinstance(value, list):
            return [self.value(item, kind[0], f"{at}[{i}]") for i, item in enumerate(value)]
        if isinstance(kind, tuple) and isinstance(value, list) and len(value) == len(kind):
            return tuple(self.value(item, k, f"{at}[{i}]") for i, (item, k) in enumerate(zip(value, kind)))
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind is int and number and (isinstance(value, int) or value.is_integer()):
            return int(value)
        if kind is float and number and not (isinstance(value, int) and abs(value) > sys.float_info.max):
            return float(value)
        if kind in (str, bool, list, dict) and isinstance(value, kind):
            return value
        raise ValueError(f"{self.path}: {at}: expected {_kind_name(kind)}, got {reprlib.repr(value)}")


def _text(path, newline=None) -> str:
    """The whole text of a file; a byte its encoding cannot decode raises ValueError naming the file."""
    with open(path, newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: cannot decode: {exc}") from None


def write_json(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path) -> dict:
    """The object a JSON file holds; a syntax error or any other document raises ValueError."""
    try:
        doc = json.loads(_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: cannot parse JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def write_table(header, records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(records)


def read_table(path, header):
    """(header, rows) of a CSV table: its stripped header cells, and (line number, cells) per non-blank row.

    A row's line number is the physical line it ends on, so a quoted field
    that spans lines does not shift the numbers of the rows after it.

    ``header`` is the required header, or a function from the file's header to
    the required one. Every row must be as wide as the header.
    """
    reader = csv.reader(io.StringIO(_text(path, newline=""), newline=""))
    found = [cell.strip() for cell in next(reader, [])]
    expected = header(found) if callable(header) else header
    if found != list(expected):
        raise ValueError(f"{path}: expected header {','.join(expected)}, got {','.join(found) or 'an empty file'}")
    rows = []
    for cells in reader:
        if not any(cell.strip() for cell in cells):
            continue
        if len(cells) != len(found):
            raise ValueError(f"{path}: line {reader.line_num}: expected {len(found)} columns, got {len(cells)}")
        rows.append((reader.line_num, cells))
    return found, rows
