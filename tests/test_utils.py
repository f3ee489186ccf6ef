"""Unit tests for :mod:`repro.utils`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, DecodingError, RequestValidationError
from repro.utils import (
    Table,
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    format_float,
    format_ratio_cell,
    hamming_distance,
    hamming_weight,
    int_to_bits,
    make_rng,
    parity,
    spawn_rngs,
)
from repro.utils.validation import require_int, require_real


class TestBitOps:
    def test_int_to_bits_msb_first(self):
        assert int_to_bits(5, 4).tolist() == [0, 1, 0, 1]

    def test_int_to_bits_lsb_first(self):
        assert int_to_bits(5, 4, msb_first=False).tolist() == [1, 0, 1, 0]

    def test_int_to_bits_rejects_negative(self):
        with pytest.raises(DecodingError):
            int_to_bits(-1, 4)

    def test_int_to_bits_rejects_overflow(self):
        with pytest.raises(DecodingError):
            int_to_bits(16, 4)

    def test_int_to_bits_rejects_zero_width(self):
        with pytest.raises(DecodingError):
            int_to_bits(0, 0)

    def test_bits_to_int_roundtrip(self):
        for value in (0, 1, 5, 255, 1023):
            assert bits_to_int(int_to_bits(value, 12)) == value

    def test_bits_to_int_lsb_first(self):
        assert bits_to_int([1, 0, 1], msb_first=False) == 5

    def test_bits_to_int_rejects_non_binary(self):
        with pytest.raises(DecodingError):
            bits_to_int([0, 2, 1])

    def test_bits_to_int_rejects_2d(self):
        with pytest.raises(DecodingError):
            bits_to_int(np.zeros((2, 2)))

    def test_bytes_to_bits_and_back(self):
        data = b"\xa5\x0f"
        bits = bytes_to_bits(data)
        assert bits.tolist() == [1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1]
        assert bits_to_bytes(bits) == data

    def test_bytes_to_bits_empty(self):
        assert bytes_to_bits(b"").size == 0

    def test_bits_to_bytes_rejects_partial_byte(self):
        with pytest.raises(DecodingError):
            bits_to_bytes([1, 0, 1])

    def test_hamming_weight(self):
        assert hamming_weight([0, 1, 1, 0, 1]) == 3

    def test_hamming_distance(self):
        assert hamming_distance([0, 1, 1], [1, 1, 0]) == 2

    def test_hamming_distance_shape_mismatch(self):
        with pytest.raises(DecodingError):
            hamming_distance([0, 1], [0, 1, 1])

    def test_parity(self):
        assert parity([1, 1, 0]) == 0
        assert parity([1, 1, 1]) == 1
        assert parity([]) == 0


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
