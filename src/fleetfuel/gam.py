"""The numpy trainer of the additive fuel model: cyclic residual boosting.

The model itself, ``AdditiveModel`` with its encoder, lookups and
``model.json`` format, is numpy-free and lives in ``fleetfuel.model``; this
module re-exports its names.  Training bins every design column on
quantile cut points, then cycles over the columns that have more than one
bin, fitting a tiny depth-limited regression tree (over contiguous bin
segments) to the current residuals and accumulating each tree's shrunken
leaf values into the column's shape.  A single-bin column cannot split: it
is not boosted and its one value stays exactly 0.  Several bags of
bootstrap samples are trained and their shapes averaged; each bag
early-stops on a held-out validation slice.  After averaging, shapes are
mean-centered over the training data and the removed mass is folded into
the intercept.  The returned model's cuts and values are lists of Python
floats.

All bags train together in one batched state: residuals and validation
predictions are (rows x bags) arrays, and each column's step is one
histogram over flat ``bag * (nb + 1) + bin + 1`` ids, one cumulative sum
and a split search vectorised across bags.  Every bag draws the same rows
and performs the same floating-point operations in the same order as if
it were trained alone, so the model is bit-identical to per-bag training.
A bag that early-stops leaves the batch.  The flat ids are built once per
batch and take 8 bytes per bag, row and boosted column: at most 2.4 MB
for 8 bags, 1,000 rows and 37 columns, linear in rows.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .ingest import DayTable
# the model's names, re-exported for the trainer's callers
from .model import DEFAULT_CATEGORICALS, KIND_INDICATOR, KIND_NUMERIC, AdditiveModel, FeatureColumn, encode
from .registry import FeatureRegistry, Record, TrainConfig, write_table

logger = logging.getLogger(__name__)


def _level_sort_key(levels: set[str]) -> list[str]:
    try:
        return sorted(levels, key=lambda s: (float(s), s))
    except ValueError:
        return sorted(levels)


def build_design(table: DayTable, registry: FeatureRegistry) -> tuple[np.ndarray, list[FeatureColumn]]:
    """(days x columns) float64 design of the shared encoder: registry features in order, then indicators.

    One indicator column per (categorical of ``DEFAULT_CATEGORICALS``,
    level) over the levels observed in the table; encoding an unseen level
    later yields all zeros.
    """
    columns = [FeatureColumn(name=name, kind=KIND_NUMERIC, origin=name) for name in registry.names] + [
        FeatureColumn(name=f"{name}={level}", kind=KIND_INDICATOR, origin=name, level=level)
        for name in DEFAULT_CATEGORICALS
        for level in _level_sort_key(set(map(str, getattr(table, name))))
    ]
    cells = np.array(encode(table, columns), dtype=np.float64)
    return np.ascontiguousarray(cells.reshape(len(columns), len(table)).T), columns


def build_bins(matrix: np.ndarray, max_bins: int = 256) -> list[np.ndarray]:
    """Quantile cut points per column.

    Columns with fewer distinct values than max_bins get one bin per
    distinct value (cuts at midpoints); others get cuts at uniform
    quantiles.  Cut points are strictly increasing.
    """
    if matrix.shape[0] < 1:
        raise DataError("binning needs at least one row")
    cuts: list[np.ndarray] = []
    for j in range(matrix.shape[1]):
        col = matrix[:, j]
        distinct = np.unique(col)
        if distinct.size < max_bins:
            c = (distinct[:-1] + distinct[1:]) / 2.0
        else:
            qs = np.arange(1, max_bins) / max_bins
            c = np.unique(np.quantile(col, qs))
        cuts.append(np.asarray(c, dtype=np.float64))
    return cuts


def _draw_bags(n: int, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Bootstrap and validation rows of every bag, as (bags x rows) arrays.

    Each bag draws from its own spawned seed: a permutation whose head is
    the validation slice, then a bootstrap resample of the rest.
    """
    n_val = max(1, int(round(n * config.validation_fraction)))
    boot, val = [], []
    for seed_seq in np.random.SeedSequence(config.seed).spawn(config.bags):
        rng = np.random.default_rng(seed_seq)
        perm = rng.permutation(n)
        pool = perm[n_val:]
        val.append(perm[:n_val])
        boot.append(rng.choice(pool, size=pool.size, replace=True))
    return np.stack(boot), np.stack(val)


class _Column:
    """One column's flat bin ids and bin counts over the bags of a batch.

    Ids are ``bag * (nb + 1) + bin + 1``: the +1 leaves column 0 of every
    bag's histogram empty, so cumulative sums start at zero and bins
    [lo, hi) sum to C[hi] - C[lo].  Counts never change while the set of
    bags is fixed, so they, and the count-only terms of the first split,
    are built once per batch.
    """

    def __init__(self, boot_bins: np.ndarray, val_bins: np.ndarray, nb: int):
        bags = boot_bins.shape[0]
        self.offsets = np.arange(bags, dtype=np.int64)[:, None] * (nb + 1)
        # ids run row by row, bags side by side, like the residuals
        self.ids = (boot_bins + (self.offsets + 1)).T.ravel()
        self.val_ids = (val_bins + (self.offsets + 1)).T.ravel()
        counts = np.bincount(self.ids, minlength=bags * (nb + 1)).astype(np.float64)
        self.counts = np.cumsum(counts.reshape(bags, nb + 1), axis=1)
        self.first_rc = self.counts[:, -1:] - self.counts
        self.first_empty = (self.counts <= 0) | (self.first_rc <= 0)


def _split_gains(ls, lc, rs, rc, penalty, empty):
    """Position and gain of each bag's best split within one segment.

    Arguments hold, at each split position p (left = bins < p), the left
    and right residual sums and counts of splitting the segment at p, and
    the segment's own sum-of-squares term.  A position with an empty side
    gets -inf, which covers every position outside the segment; np.argmax
    keeps the first maximum, so the lowest position wins ties.
    """
    gain = ls * ls / lc + rs * rs / rc - penalty
    gain[empty] = -np.inf
    return gain.argmax(axis=-1), gain.max(axis=-1)


def _tree_deltas(C: np.ndarray, col: _Column, max_leaves: int, lr: float) -> np.ndarray:
    """One boosting step for one column in every bag: shrunken leaf means.

    C holds each bag's cumulative residual sums over the column's bins, in
    the layout of ``col.counts``.  Each bag's tree greedily splits the
    segment whose best split has the highest gain (the earliest segment
    on a tie), up to max_leaves segments; a best gain <= 0 ends that
    bag's tree.  Segments are kept as sorted bounds [0, cuts..., nb] per
    bag; a bag whose tree has ended pads with empty segments [nb, nb).
    The result is in the layout of C: column b + 1 holds bin b's value.
    """
    N = col.counts
    bags, width = C.shape
    nb = width - 1
    rows = np.arange(bags)
    bounds = np.repeat(np.array([[0, nb]]), bags, axis=0)
    seg_s, seg_c = C[:, -1:], N[:, -1:]
    live = np.ones(bags, dtype=bool)
    for split in range(1, min(max_leaves, nb)):  # nb bins hold at most nb segments
        if split == 1:  # the one segment [0, nb): its count terms are cached
            pos, gain = _split_gains(
                C, N, seg_s - C, col.first_rc, seg_s * seg_s / seg_c, col.first_empty
            )
        else:  # every segment at once, along a middle axis
            ls = C[:, None, :] - start_s[:, :-1, None]
            lc = N[:, None, :] - start_c[:, :-1, None]
            rc = seg_c[:, :, None] - lc
            pos, gain = _split_gains(
                ls, lc, seg_s[:, :, None] - ls, rc, (seg_s * seg_s / seg_c)[:, :, None],
                (lc <= 0) | (rc <= 0),
            )
            best = gain.argmax(axis=1)  # the earliest segment wins ties
            pos, gain = pos[rows, best], gain[rows, best]
        live &= gain > 0
        if not live.any():
            break
        bounds = np.sort(np.concatenate([bounds, np.where(live, pos, nb)[:, None]], axis=1), axis=1)
        at = col.offsets + bounds
        start_s, start_c = C.ravel()[at], N.ravel()[at]
        seg_s = start_s[:, 1:] - start_s[:, :-1]
        seg_c = start_c[:, 1:] - start_c[:, :-1]
    value = np.where(seg_c > 0, lr * seg_s / seg_c, 0.0)
    # each segment's value repeated over its bins; the first also fills column 0
    lengths = bounds[:, 1:] - bounds[:, :-1]
    lengths[:, 0] += 1
    return np.repeat(value.ravel(), lengths.ravel()).reshape(bags, width)


class BagHistory(Record):
    """One bag's training and validation RMSE per round, its best round and the round it stopped after."""

    def __init__(self):
        self.train_rmse: list[float] = []
        self.val_rmse: list[float] = []
        self.best_round = -1
        self.stopped_round = -1


def _fit_bags(
    y: np.ndarray,
    bins: list[np.ndarray],
    n_bins: list[int],
    config: TrainConfig,
) -> tuple[list[float], list[np.ndarray], list[BagHistory]]:
    """Train every bag in one batched state; see the module docstring.

    Every column has more than one bin.  Returns each bag's intercept,
    each column's (bags x nb) best-round shapes, and each bag's history.
    """
    boot, val = _draw_bags(y.shape[0], config)
    intercepts = [float(y[rows].mean()) for rows in boot]
    # State is (rows x bags) in C order, the order of the flat ids, so
    # ravel() stays a view; a bag still sums its own rows in order.
    residual = np.ascontiguousarray(y[boot.T]) - np.asarray(intercepts)
    val_pred = np.repeat(np.asarray(intercepts)[None, :], val.shape[1], axis=0)
    y_val = np.ascontiguousarray(y[val.T])
    starts = np.concatenate([[0], np.cumsum(n_bins)])
    shapes = np.zeros((config.bags, int(starts[-1])), dtype=np.float64)
    best_shapes = shapes.copy()
    histories = [BagHistory() for _ in range(config.bags)]
    best_val = np.full(config.bags, np.inf)
    stale = np.zeros(config.bags, dtype=np.int64)
    lr = config.learning_rate

    def batch(active):
        return [_Column(b[boot[active]], b[val[active]], nb) for b, nb in zip(bins, n_bins)]

    active = np.arange(config.bags)
    columns = batch(active)
    # split positions with an empty side divide by zero; their gain is masked
    with np.errstate(divide="ignore", invalid="ignore"):
        for rnd in range(config.max_rounds):
            res_flat = residual.ravel()
            for j, col in enumerate(columns):
                sums = np.bincount(col.ids, weights=res_flat, minlength=col.counts.size)
                C = np.cumsum(sums.reshape(col.counts.shape), axis=1)
                delta = _tree_deltas(C, col, config.max_leaves, lr)
                shapes[:, starts[j] : starts[j + 1]] += delta[:, 1:]
                flat = delta.ravel()
                residual -= flat[col.ids].reshape(residual.shape)
                val_pred += flat[col.val_ids].reshape(val_pred.shape)

            # each bag's mean over its own contiguous rows, as when trained alone
            sq_train = np.ascontiguousarray((residual * residual).T)
            sq_val = np.ascontiguousarray(((y_val - val_pred) ** 2).T)
            train_rmse = np.sqrt(np.mean(sq_train, axis=1))
            val_rmse = np.sqrt(np.mean(sq_val, axis=1))
            for b, tr, va in zip(active.tolist(), train_rmse.tolist(), val_rmse.tolist()):
                histories[b].train_rmse.append(tr)
                histories[b].val_rmse.append(va)
            improved = val_rmse < best_val[active]
            if improved.any():
                best_shapes[active[improved]] = shapes[improved]
                best_val[active[improved]] = val_rmse[improved]
                for b in active[improved].tolist():
                    histories[b].best_round = rnd
            stale[active] = np.where(improved, 0, stale[active] + 1)

            keep = stale[active] < config.patience
            if not keep.all():  # early-stopped bags leave the batch
                active = active[keep]
                if active.size == 0:
                    break
                residual = np.ascontiguousarray(residual[:, keep])
                val_pred = np.ascontiguousarray(val_pred[:, keep])
                y_val = np.ascontiguousarray(y_val[:, keep])
                shapes = shapes[keep]
                columns = batch(active)
    for h in histories:
        h.stopped_round = len(h.val_rmse) - 1
    bag_shapes = [best_shapes[:, starts[j] : starts[j + 1]] for j in range(len(n_bins))]
    return intercepts, bag_shapes, histories


def fit(table: DayTable, registry: FeatureRegistry, config: TrainConfig = TrainConfig()) -> AdditiveModel:
    """Train on the table's avg fuel; see the module docstring for the loop."""
    if len(table) < 20:
        raise DataError(f"training needs at least 20 records, got {len(table)}")
    y = np.asarray([0.0 if avg is None else avg for avg in table.avg_fuel_consumption], dtype=np.float64)
    if not np.all(np.isfinite(y)) or not np.all(y > 0):
        raise DataError("training target must be finite and positive on every record")

    X, columns = build_design(table, registry)
    return fit_matrix(X, y, columns, config)


def fit_matrix(
    X: np.ndarray,
    y: np.ndarray,
    columns: Sequence[FeatureColumn],
    config: TrainConfig = TrainConfig(),
) -> AdditiveModel:
    """Matrix-level trainer used by fit(); exposed for synthetic studies."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cuts = build_bins(X, config.max_bins)
    bins = [np.searchsorted(cuts[j], X[:, j], side="right").astype(np.int64) for j in range(X.shape[1])]
    values = [np.zeros(c.size + 1, dtype=np.float64) for c in cuts]
    intercept, histories = float(y.mean()), []

    if float(np.var(y)) == 0.0:
        logger.warning("zero-variance training target: constant model")
    else:
        boosted = [j for j, c in enumerate(cuts) if c.size]
        intercepts, bag_shapes, histories = _fit_bags(
            y, [bins[j] for j in boosted], [values[j].size for j in boosted], config
        )
        intercept = float(np.mean(intercepts))
        # center each shape over the training rows; fold the mass into the intercept
        for j, shape in zip(boosted, bag_shapes):
            value = shape.mean(axis=0)
            mass = float(value[bins[j]].mean())
            values[j] = value - mass
            intercept += mass

    return AdditiveModel(
        intercept=intercept,
        columns=list(columns),
        cuts=[c.tolist() for c in cuts],
        values=[v.tolist() for v in values],
        config=config,
        history=histories,
    )


SHAPE_CSV_COLUMNS = ("feature", "bin_lo", "bin_hi", "value")


def write_shape_curves_csv(model: AdditiveModel, path: str | Path) -> None:
    rows = ((col.name, *segment) for col in model.columns for segment in model.shape_curve(col.name))
    write_table(path, SHAPE_CSV_COLUMNS, rows)


HISTORY_CSV_COLUMNS = ("bag", "round", "train_rmse", "val_rmse", "best")


def write_train_history_csv(model: AdditiveModel, path: str | Path) -> None:
    """Each bag's RMSE curves, one row per round up to its stopped round.

    ``best`` is 1 on the round whose shapes the bag contributed, else 0.
    """
    rows = (
        (bag, rnd, train, val, int(rnd == h.best_round))
        for bag, h in enumerate(model.history)
        for rnd, (train, val) in enumerate(zip(h.train_rmse, h.val_rmse))
    )
    write_table(path, HISTORY_CSV_COLUMNS, rows)
