"""The one file dialect of the pipeline: JSON documents and CSV tables.

A JSON document is an object, written with an indent of 2 and a trailing
newline. A CSV table has one header row; blank lines are skipped. Every read
error starts with the file's path, and a table error also names the line.
"""
from __future__ import annotations

import csv
import json


def write_json(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path, error=ValueError) -> dict:
    """The object a JSON file holds; a syntax error or any other document raises ``error``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: cannot parse JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def write_table(header, records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(records)


def read_table(path, header, error=ValueError):
    """(header, rows) of a CSV table: its stripped header cells, and (line number, cells) per non-blank row.

    A row's line number is the physical line it ends on, so a quoted field
    that spans lines does not shift the numbers of the rows after it.

    ``header`` is the required header, or a function from the file's header to
    the required one. Every row must be as wide as the header.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = [cell.strip() for cell in next(reader, [])]
        expected = header(found) if callable(header) else header
        if found != list(expected):
            raise error(f"{path}: expected header {','.join(expected)}, got {','.join(found) or 'an empty file'}")
        rows = []
        for cells in reader:
            if not any(cell.strip() for cell in cells):
                continue
            if len(cells) != len(found):
                raise error(f"{path}: line {reader.line_num}: expected {len(found)} columns, got {len(cells)}")
            rows.append((reader.line_num, cells))
    return found, rows
