"""The fitted additive fuel model in plain Python, without numpy.

A prediction is the intercept plus one piecewise-constant shape value per
design column: column j's value at x is ``values[j][bisect_right(cuts[j],
x)]``, the bin ``np.searchsorted(..., side="right")`` gives, so a value on
a cut falls in the bin above it.  Cuts and values are lists of Python
floats; the numpy trainer is ``fleetfuel.gam``.  ``encode``, the one
encoder of a ``DayTable`` (the trainer's included), gathers the table's
columns, and ``row_sums`` adds a day's contributions as numpy's
``sum(axis=1)`` does, so predictions keep their bits.  ``model.json``
(version 2) holds the intercept, the training config and, per design
column in order, its name, kind, origin, level, cuts and values (a
single-bin column: no cuts, the one value 0.0).  Loading accepts only
text names and origins, a numeric column without a level or an indicator
of a ``DEFAULT_CATEGORICALS`` origin at a text level, strictly increasing
finite cuts and one more finite value than cuts.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from itertools import repeat
from operator import add, eq
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DataError, FeedFormatError
from .ingest import DayTable
from .registry import TrainConfig, artifact_file

MODEL_FORMAT = "fleetfuel-additive-model"
MODEL_VERSION = 2

#: DayTable columns treated as categorical context features.
DEFAULT_CATEGORICALS = ("route_type", "vehicle_group", "vehicle_class")

KIND_NUMERIC = "numeric"
KIND_INDICATOR = "indicator"


class FeatureColumn(NamedTuple):
    """One model input: a numeric feature or a one-hot indicator."""

    name: str
    kind: str
    origin: str
    level: str | None = None


def encode(table: DayTable, columns: Sequence[FeatureColumn]) -> list[list[float]]:
    """The (days x columns) design as one list per column: the one encoder.

    A numeric column is the table's own feature column; the first missing
    or non-finite cell among them, row by row, raises (see
    ``DayTable.bad_cell``).  An indicator column is 1.0 where the
    day's categorical column equals the column's level, so a level without
    a column encodes as all zeros.
    """
    bad = table.bad_cell(col.name for col in columns if col.kind == KIND_NUMERIC)
    if bad is not None:
        raise bad[1]
    origins = {col.origin for col in columns if col.kind != KIND_NUMERIC}
    levels = {origin: list(map(str, getattr(table, origin))) for origin in origins}
    return [
        table.features.get(col.name, []) if col.kind == KIND_NUMERIC  # absent only from an empty table
        else list(map(float, map(eq, levels[col.origin], repeat(col.level))))
        for col in columns
    ]


def _pairwise(columns: Sequence[Sequence[float]], n_rows: int) -> list[float]:
    n = len(columns)
    if n < 8:
        res = [0.0] * n_rows
        for col in columns:
            res = list(map(add, res, col))
        return res
    if n <= 128:
        r = list(columns[:8])
        tail = n - n % 8
        for i in range(8, tail, 8):
            r = [list(map(add, acc, col)) for acc, col in zip(r, columns[i : i + 8])]
        res = map(add, map(add, map(add, r[0], r[1]), map(add, r[2], r[3])),
                  map(add, map(add, r[4], r[5]), map(add, r[6], r[7])))
        for col in columns[tail:]:
            res = map(add, res, col)
        return list(res)
    half = n // 2
    half -= half % 8
    return list(map(add, _pairwise(columns[:half], n_rows), _pairwise(columns[half:], n_rows)))


def row_sums(columns: Sequence[Sequence[float]], n_rows: int) -> list[float]:
    """Each row's sum over the columns, bit for bit numpy's ``sum(axis=1)`` of the (rows x columns) matrix.

    numpy adds to 0.0 a row's pairwise sum: under 8 terms left to right; up
    to 128 in eight strided accumulators combined as ``((r0+r1)+(r2+r3))+
    ((r4+r5)+(r6+r7))``, then the tail left to right; above 128 split at
    half the terms rounded down to a multiple of 8.  The built-in ``sum``
    compensates from Python 3.12, so it is not used.
    """
    return list(map(add, repeat(0.0), _pairwise(columns, n_rows)))


def _finite_numbers(cells, what: str) -> list[float]:
    if type(cells) is not list or not all(type(x) in (float, int) and math.isfinite(x) for x in cells):
        raise FeedFormatError(f"{what} must be a list of finite numbers")
    return [float(x) for x in cells]


class AdditiveModel:
    """Fitted additive model: intercept plus one shape function per column."""

    def __init__(self, intercept: float, columns: list[FeatureColumn], cuts: list[list[float]],
                 values: list[list[float]], config: TrainConfig, history: list | None = None):
        self.intercept = intercept
        self.columns = columns
        self.cuts = cuts
        self.values = values
        self.config = config
        self.history = [] if history is None else history  # gam.BagHistory per bag, when trained
        # name -> position; the first of any repeated name wins, as in a scan
        self._index: dict[str, int] = {}
        for j, col in enumerate(columns):
            self._index.setdefault(col.name, j)

    def encode(self, table: DayTable) -> list[list[float]]:
        """The table's design, one list per model column; see ``encode``."""
        return encode(table, self.columns)

    def lookup(self, j: int, xs: Iterable[float]) -> list[float]:
        """Column j's shape values at the raw values xs."""
        return list(map(self.values[j].__getitem__, map(bisect_right, repeat(self.cuts[j]), xs)))

    def contributions(self, X: Sequence[Sequence[float]]) -> list[list[float]]:
        """Per-column shape values f_j(X[j]) of a design given column by column."""
        return [self.lookup(j, xs) for j, xs in enumerate(X)]

    def predict_many(self, table: DayTable) -> list[float]:
        """Per day, the intercept plus the sum of its contributions."""
        sums = row_sums(self.contributions(self.encode(table)), len(table))
        return [self.intercept + s for s in sums]

    def contribution_at(self, column_name: str, value: float) -> float:
        """Shape-function value for one column at a raw feature value."""
        j = self._column_index(column_name)
        return self.values[j][bisect_right(self.cuts[j], value)]

    def shape_curve(self, column_name: str) -> list[tuple[float, float, float]]:
        """Piecewise-constant curve as (bin_lo, bin_hi, value) segments."""
        j = self._column_index(column_name)
        edges = [-math.inf, *self.cuts[j], math.inf]
        return [(edges[k], edges[k + 1], value) for k, value in enumerate(self.values[j])]

    def _column_index(self, name: str) -> int:
        j = self._index.get(name)
        if j is None:
            raise KeyError(f"model has no feature {name!r}")
        return j

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "intercept": self.intercept,
            "config": self.config._asdict(),
            "features": [
                {**col._asdict(), "cuts": cuts, "values": values}
                for col, cuts, values in zip(self.columns, self.cuts, self.values)
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AdditiveModel":
        if data.get("format") != MODEL_FORMAT:
            raise FeedFormatError(f"not a model file (format={data.get('format')!r})")
        if data.get("version") != MODEL_VERSION:
            raise FeedFormatError(f"unsupported model version {data.get('version')!r}")
        columns, cuts, values = [], [], []
        for feat in data["features"]:
            name, kind, origin, level = feat["name"], feat["kind"], feat["origin"], feat["level"]
            # a numeric column has no level; an indicator has a text level of a known categorical
            known = level is None if kind == KIND_NUMERIC else (
                kind == KIND_INDICATOR and type(level) is str and origin in DEFAULT_CATEGORICALS
            )
            if type(name) is not str or type(origin) is not str or not known:
                raise FeedFormatError(f"feature {name!r}: bad kind {kind!r}, origin {origin!r} or level {level!r}")
            columns.append(FeatureColumn(name=name, kind=kind, origin=origin, level=level))
            cuts.append(_finite_numbers(feat["cuts"], f"feature {name!r} cuts"))
            values.append(_finite_numbers(feat["values"], f"feature {name!r} values"))
            if any(a >= b for a, b in zip(cuts[-1], cuts[-1][1:])):
                raise FeedFormatError(f"feature {name!r} cuts are not strictly increasing")
            if len(values[-1]) != len(cuts[-1]) + 1:
                raise FeedFormatError(f"feature {name!r} needs one more value than cuts")
        return cls(
            intercept=_finite_numbers([data["intercept"]], "intercept")[0],
            columns=columns,
            cuts=cuts,
            values=values,
            config=TrainConfig(**data["config"]),
        )

    def save_json(self, path: str | Path) -> None:
        with artifact_file(path) as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load_json(cls, path: str | Path) -> "AdditiveModel":
        """Read a model file; a truncated or malformed one raises FeedFormatError naming it."""
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (ValueError, KeyError, TypeError, AttributeError, DataError, FeedFormatError) as exc:
                raise FeedFormatError(f"{path}: bad model file ({type(exc).__name__}: {exc})") from exc
