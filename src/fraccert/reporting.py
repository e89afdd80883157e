"""Canonical machine-readable reports: versioned JSON and CSV plot data.

Identical inputs produce byte-identical JSON: keys are sorted, floats pass
through repr, and no timestamps or environment data enter the payload.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

SCHEMA_VERSION = 1


def _float(x: float) -> float | str | None:
    """A float as JSON takes it: NaN becomes null and +-inf the strings "inf" and "-inf"."""
    if x != x:
        return None
    if x in (math.inf, -math.inf):
        return "inf" if x > 0 else "-inf"
    return x


def _plain(obj: Any) -> Any:
    if type(obj) is dict and all(type(v) is float for v in obj.values()) and math.isfinite(sum(obj.values())):
        return {str(k): v for k, v in obj.items()}  # plain floats in one pass; a finite sum means no NaN or inf
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _plain(obj.item())
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        if all(type(v) is float for v in obj):  # a float list in one pass; a finite sum means no NaN or inf
            return list(obj) if math.isfinite(sum(obj)) else [_float(v) for v in obj]
        return [_plain(v) for v in obj]
    return obj


def to_json(payload: Any, kind: str = "report") -> str:
    """Serialize a report payload with the schema header, deterministically."""
    document = {"schema_version": SCHEMA_VERSION, "kind": kind, "body": _plain(payload)}
    return json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path: str | Path, payload: Any, kind: str = "report") -> None:
    Path(path).write_text(to_json(payload, kind) + "\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_plain(v) for v in row])
