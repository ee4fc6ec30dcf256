#!/usr/bin/env python3
"""How far two output trees differ, file by file, for a written tolerance argument.

Usage: python scripts/output_deltas.py A B

A and B are two directories of portopt outputs, for example the OUTDIRs of
two ``scripts/output_digests.py`` runs (one per version).  Files identical
byte for byte are not listed.  For every other file it prints, tab
separated:

* ``<path>  floats  <max |a - b|>  <changed>/<compared>  <fields>`` for a
  JSON or CSV file: the largest absolute change over the numbers that are
  floats on either side, how many of them changed, and the fields they
  changed in, in order of first change: CSV column headers, or JSON key
  paths with list indices written as ``[]`` (``cells[].solution.kkt_residual``);
* ``<path>  <where>  <a> -> <b>`` for each change that is not a float
  change: an integer such as ``iterations``, a string, a missing key or
  row, a NaN on one side only.  ``<where>`` is a JSON path
  (``cells[3].solution.iterations``) or a CSV row and column
  (``row 4 kkt_residual``);
* ``<path>  bytes differ`` for any other file, and ``only in A`` or
  ``only in B`` for a file the other tree lacks.

The last line counts the files compared and the files identical.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

_ABSENT = "<absent>"


def _number(text: str):
    """``text`` as an int, a float, or None when it is neither."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return None


class _Deltas:
    """The float changes and the other changes of one file."""

    def __init__(self):
        self.compared = 0
        self.changed = 0
        self.largest = 0.0
        self.fields: dict[str, None] = {}    # the fields of the changed floats, in order
        self.other: list[tuple[str, object, object]] = []

    def value(self, where: str, field: str, a, b) -> None:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if numbers and (isinstance(a, float) or isinstance(b, float)):
            if math.isfinite(a) and math.isfinite(b):
                self.compared += 1
                if a != b:
                    self.changed += 1
                    self.largest = max(self.largest, abs(a - b))
                    self.fields[field] = None
                return
            if a == b or (math.isnan(a) and math.isnan(b)):
                return
        if a != b:
            self.other.append((where, a, b))

    def json(self, where: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in list(a) + [k for k in b if k not in a]:
                self.json(f"{where}.{key}" if where else str(key),
                          a.get(key, _ABSENT), b.get(key, _ABSENT))
        elif isinstance(a, list) and isinstance(b, list):
            for i in range(max(len(a), len(b))):
                self.json(f"{where}[{i}]", a[i] if i < len(a) else _ABSENT,
                          b[i] if i < len(b) else _ABSENT)
        else:
            self.value(where, re.sub(r"\[\d+\]", "[]", where), a, b)

    def csv(self, a: list[list[str]], b: list[list[str]]) -> None:
        header = a[0] if a else []
        for i in range(max(len(a), len(b))):
            row_a = a[i] if i < len(a) else []
            row_b = b[i] if i < len(b) else []
            for j in range(max(len(row_a), len(row_b))):
                cell_a = row_a[j] if j < len(row_a) else _ABSENT
                cell_b = row_b[j] if j < len(row_b) else _ABSENT
                field = header[j] if j < len(header) else f"column {j + 1}"
                where = f"row {i + 1} {field}"
                num_a, num_b = _number(cell_a), _number(cell_b)
                if num_a is None or num_b is None:
                    self.value(where, field, cell_a, cell_b)
                else:
                    self.value(where, field, num_a, num_b)

    def lines(self, path: str) -> list[str]:
        out = []
        if self.compared:
            out.append(f"{path}\tfloats\t{self.largest:.3g}\t{self.changed}/{self.compared}"
                       f"\t{', '.join(self.fields)}")
        out += [f"{path}\t{where}\t{a!r} -> {b!r}" for where, a, b in self.other]
        return out


def file_deltas(a: Path, b: Path, path: str) -> list[str]:
    """The listing lines of one file present in both trees ([] if identical)."""
    data_a, data_b = a.read_bytes(), b.read_bytes()
    if data_a == data_b:
        return []
    deltas = _Deltas()
    if a.suffix == ".json":
        deltas.json("", json.loads(data_a), json.loads(data_b))
    elif a.suffix == ".csv":
        deltas.csv(*(list(csv.reader(d.decode("utf-8").splitlines())) for d in (data_a, data_b)))
    else:
        return [f"{path}\tbytes differ"]
    return deltas.lines(path) or [f"{path}\tbytes differ"]


def tree_deltas(a: Path, b: Path) -> list[str]:
    """The listing of two trees, files in path order, with its closing count."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    lines, identical = [], 0
    for path in sorted(files_a | files_b):
        if path not in files_b:
            lines.append(f"{path}\tonly in A")
        elif path not in files_a:
            lines.append(f"{path}\tonly in B")
        else:
            found = file_deltas(a / path, b / path, path)
            identical += not found
            lines += found
    lines.append(f"{len(files_a | files_b)} files, {identical} identical")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(p).is_dir() for p in args):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    print("\n".join(tree_deltas(Path(args[0]), Path(args[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
