"""The numpy-free model: row sums against numpy, and what the model file may hold."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfuel.errors import FeedFormatError
from fleetfuel.model import AdditiveModel, FeatureColumn, row_sums
from fleetfuel.registry import TrainConfig

_SPECIALS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, -1e-310, math.inf, -math.inf, math.nan,
     -math.nan, 1e308, -1e308]
)
# pairwise sums regroup at 8, 16 and 128 terms and split above 128
_WIDTHS = st.one_of(st.sampled_from([1, 7, 8, 9, 16, 128, 129, 136, 256, 300]), st.integers(1, 300))


def _bits(xs) -> list[bytes]:
    """Each float's bytes, so 0.0 and -0.0 differ; every NaN is one NaN.

    IEEE 754 leaves open which NaN the sum of two NaNs keeps, and numpy's
    compiled loops keep the first operand's in some adds and the second's
    in others, so only a NaN's place is compared, not its sign.
    """
    return [struct.pack("<d", math.nan if x != x else x) for x in xs]


class TestRowSums:
    @settings(max_examples=300, deadline=None)
    @given(
        width=_WIDTHS,
        rows=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
        tenths=st.booleans(),
        specials=st.lists(_SPECIALS, max_size=4),
        share=st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    )
    def test_bits_equal_numpy_sum_axis_1(self, width, rows, seed, tenths, specials, share):
        rng = np.random.default_rng(seed)
        if tenths:  # sums of these round differently when their terms are regrouped
            M = rng.choice([0.1, 0.2, 0.3, 0.7, -0.1, -0.2, -0.3], size=(rows, width))
        else:
            M = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-8, 9, size=(rows, width))
        if specials:
            mask = rng.random((rows, width)) < share
            M[mask] = rng.choice(np.array(specials), size=int(mask.sum()))
        columns = [M[:, j].tolist() for j in range(width)]
        with np.errstate(over="ignore", invalid="ignore"):  # ±inf and NaN sums are the point
            expected = M.sum(axis=1).tolist()
        assert _bits(row_sums(columns, rows)) == _bits(expected)

    @pytest.mark.parametrize("width", [0, 3, 9, 200])
    def test_negative_zeros_sum_to_positive_zero(self, width):
        # numpy adds each pairwise sum to 0.0, and 0.0 + -0.0 is 0.0
        M = np.full((3, width), -0.0)
        assert _bits(row_sums([M[:, j].tolist() for j in range(width)], 3)) == _bits(M.sum(axis=1).tolist())

    def test_not_left_to_right(self):
        # eight or more terms are not added left to right
        terms = [0.2, -0.1, -0.3, -0.3, -0.3, 0.1, 0.3, 0.1, 0.7]
        left_to_right = 0.0
        for t in terms:
            left_to_right += t
        numpy_sum = float(np.array([terms]).sum(axis=1)[0])
        assert numpy_sum != left_to_right
        assert row_sums([[t] for t in terms], 1) == [numpy_sum]


def _model_dict() -> dict:
    model = AdditiveModel(
        intercept=7.0,
        columns=[FeatureColumn("x", "numeric", "x")],
        cuts=[[0.5, 1.5]],
        values=[[-0.25, 0.0, 0.25]],
        config=TrainConfig(),
    )
    return model.to_dict()


class TestModelFile:
    def test_round_trip_keeps_python_floats(self, tmp_path):
        path = tmp_path / "model.json"
        AdditiveModel.from_dict(_model_dict()).save_json(path)
        loaded = AdditiveModel.load_json(path)
        assert loaded.cuts == [[0.5, 1.5]] and loaded.values == [[-0.25, 0.0, 0.25]]
        assert all(type(x) is float for x in loaded.cuts[0] + loaded.values[0])

    def test_integers_load_as_floats(self):
        data = _model_dict()
        data["features"][0]["cuts"] = [0, 1]
        data["intercept"] = 7
        model = AdditiveModel.from_dict(data)
        assert model.cuts == [[0.0, 1.0]] and type(model.cuts[0][0]) is float
        assert type(model.intercept) is float

    @pytest.mark.parametrize(
        "key, cells",
        [
            ("cuts", [1.5, 0.5]),
            ("cuts", [0.5, 0.5]),
            ("cuts", [math.nan, 1.5]),
            ("cuts", [0.5, math.inf]),
            ("cuts", ["0.5", 1.5]),
            ("cuts", [[0.5], 1.5]),
            ("cuts", {"0": 0.5}),
            ("values", [-0.25, math.inf, 0.25]),
            ("values", [-0.25, True, 0.25]),
            ("values", [-0.25, None, 0.25]),
            ("values", [-0.25, 0.0]),
        ],
        ids=["unordered", "repeated", "nan", "inf", "string", "nested", "object", "inf-value", "bool-value",
             "null-value", "value-count"],
    )
    def test_rejects(self, key, cells):
        data = _model_dict()
        data["features"][0][key] = cells
        with pytest.raises(FeedFormatError):
            AdditiveModel.from_dict(data)

    @pytest.mark.parametrize("intercept", [math.nan, "7.0", False])
    def test_rejects_intercept(self, intercept):
        data = _model_dict()
        data["intercept"] = intercept
        with pytest.raises(FeedFormatError):
            AdditiveModel.from_dict(data)
