"""Unit tests for :mod:`repro.utils`."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError, RequestValidationError
from repro.utils import (
    Table,
    bounded_draw,
    format_float,
    format_ratio_cell,
    make_rng,
    spawn_rngs,
)
from repro.utils.validation import require_int, require_real


class TestValidation:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint8(1)])
    def test_require_int_accepts_integral(self, value):
        require_int("x", value, minimum=1)

    @pytest.mark.parametrize(
        "value", [0, -2, 2.0, 2.5, True, False, "3", None, np.float64(2.0)]
    )
    def test_require_int_rejects(self, value):
        with pytest.raises(ConfigurationError, match="x must be an int >= 1"):
            require_int("x", value, minimum=1)

    @pytest.mark.parametrize("value", [0.5, 2, np.float32(0.25), np.int64(4)])
    def test_require_real_accepts_positive(self, value):
        require_real("x", value, allow_zero=False)

    @pytest.mark.parametrize(
        "value", [0.0, -1.0, float("nan"), float("inf"), True, "1", None]
    )
    def test_require_real_rejects(self, value):
        with pytest.raises(ConfigurationError, match="x must be finite and > 0"):
            require_real("x", value, allow_zero=False)

    def test_require_real_allow_zero(self):
        require_real("x", 0.0, allow_zero=True)
        with pytest.raises(ConfigurationError, match=">= 0"):
            require_real("x", -0.1, allow_zero=True)

    def test_error_class_is_the_callers(self):
        with pytest.raises(RequestValidationError):
            require_int("x", True, minimum=0, error=RequestValidationError)
        with pytest.raises(RequestValidationError):
            require_real("x", "1", allow_zero=False, error=RequestValidationError)


class TestTables:
    def test_format_float(self):
        assert format_float(1.2345) == "1.23"
        assert format_float(float("nan")) == "n/a"
        assert format_float(float("inf")) == "inf"

    def test_format_ratio_cell(self):
        assert format_ratio_cell(72.004, 0.456) == "72.00/0.46"

    def test_table_renders_header_and_rows(self):
        table = Table(title="demo", columns=["a", "bb"])
        table.add_row([1, "xy"])
        rendered = table.render()
        assert "demo" in rendered
        assert "a" in rendered and "bb" in rendered
        assert "xy" in rendered

    def test_table_rejects_wrong_row_width(self):
        table = Table(title="demo", columns=["a", "b"])
        with pytest.raises(ConfigurationError):
            table.add_row([1])

    def test_table_column_alignment(self):
        table = Table(title="t", columns=["col", "x"])
        table.add_row(["longvalue", "1"])
        lines = table.render().splitlines()
        header_cells = lines[2].split("|")
        row_cells = lines[4].split("|")
        assert len(header_cells[0]) == len(row_cells[0])


class TestRng:
    def test_make_rng_deterministic(self):
        a = make_rng(7).integers(0, 100, 10)
        b = make_rng(7).integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_make_rng_different_seeds(self):
        a = make_rng(1).integers(0, 1000, 10)
        b = make_rng(2).integers(0, 1000, 10)
        assert not np.array_equal(a, b)

    def test_spawn_rngs_count(self):
        rngs = spawn_rngs(3, 5)
        assert len(rngs) == 5

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(3, 2)
        assert not np.array_equal(rngs[0].integers(0, 1000, 10), rngs[1].integers(0, 1000, 10))

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ConfigurationError):
            spawn_rngs(0, -1)


class TestBoundedDraw:
    def test_rejects_draws_at_or_above_n(self):
        # n = 5 draws 3 bits at a time and discards 7, 6 and 5.
        stream = iter([7, 6, 5, 2, 4])
        widths = []

        def getrandbits(k):
            widths.append(k)
            return next(stream)

        assert bounded_draw(getrandbits, 5) == 2
        assert widths == [3, 3, 3, 3]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 1000, 2**40 + 1])
    def test_draws_stay_in_range_and_reach_the_ends(self, n):
        rng = random.Random(n)
        draws = [bounded_draw(rng.getrandbits, n) for _ in range(2000)]
        assert 0 <= min(draws) and max(draws) < n
        if n <= 9:
            assert set(draws) == set(range(n))

    def test_same_seed_same_stream(self):
        a, b = random.Random(11), random.Random(11)
        assert [bounded_draw(a.getrandbits, 6) for _ in range(50)] == [
            bounded_draw(b.getrandbits, 6) for _ in range(50)
        ]

    def test_draw_is_uniform(self):
        # Chi-square over 6 outcomes, 6000 draws, fixed seed: the 0.1 %
        # critical value for 5 degrees of freedom is 20.5.
        rng = random.Random(3)
        counts = np.bincount([bounded_draw(rng.getrandbits, 6) for _ in range(6000)], minlength=6)
        chi2 = float(((counts - 1000) ** 2 / 1000).sum())
        assert chi2 < 20.5
