"""Unit tests for the LDPC matrix / code-definition layer.

Covers :mod:`repro.ldpc.hmatrix`, :mod:`repro.ldpc.qc`, :mod:`repro.ldpc.wimax`
and :mod:`repro.ldpc.tanner`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CodeDefinitionError
from repro.ldpc import (
    ParityCheckMatrix,
    QCBaseMatrix,
    WIMAX_CODE_RATES,
    WIMAX_EXPANSION_FACTORS,
    check_adjacency_graph,
    expand_base_matrix,
    list_wimax_codes,
    wimax_ldpc_code,
)
from repro.ldpc.qc import scale_shift
from repro.ldpc.wimax import WIMAX_BLOCK_COLUMNS


class TestParityCheckMatrix:
    def test_basic_properties(self):
        h = ParityCheckMatrix([[0, 1, 2], [2, 3], [0, 3]], n_cols=4)
        assert h.n_rows == 3
        assert h.n_cols == 4
        assert h.n_edges == 7
        assert h.design_rate == pytest.approx(0.25)

    def test_row_and_col_access(self):
        h = ParityCheckMatrix([[0, 2], [1, 2]], n_cols=3)
        assert h.row(0).tolist() == [0, 2]
        assert h.col(2).tolist() == [0, 1]
        assert h.to_dense().sum(axis=0).tolist() == [1, 1, 2]
        assert h.row_degrees().tolist() == [2, 2]

    def test_to_dense(self):
        dense = np.array([[1, 0, 1, 0], [0, 1, 1, 1]], dtype=np.int8)
        h = ParityCheckMatrix([[0, 2], [1, 2, 3]], n_cols=4)
        assert np.array_equal(h.to_dense(), dense)

    def test_syndrome_and_codeword_check(self):
        h = ParityCheckMatrix([[0, 1], [1, 2]], n_cols=3)
        assert h.syndrome(np.array([1, 1, 1])).tolist() == [0, 0]
        assert h.is_codeword(np.array([1, 1, 1]))
        assert not h.is_codeword(np.array([1, 0, 0]))

    def test_syndrome_rejects_wrong_length(self):
        h = ParityCheckMatrix([[0, 1]], n_cols=2)
        with pytest.raises(CodeDefinitionError):
            h.syndrome(np.array([1, 0, 0]))

    def test_rejects_empty_row(self):
        with pytest.raises(CodeDefinitionError):
            ParityCheckMatrix([[0], []], n_cols=2)

    def test_rejects_out_of_range_column(self):
        with pytest.raises(CodeDefinitionError):
            ParityCheckMatrix([[0, 5]], n_cols=3)

    def test_rejects_duplicate_columns(self):
        with pytest.raises(CodeDefinitionError):
            ParityCheckMatrix([[1, 1]], n_cols=3)

    def test_rejects_no_rows(self):
        with pytest.raises(CodeDefinitionError):
            ParityCheckMatrix([], n_cols=3)


class TestQCBaseMatrix:
    def test_expansion_dimensions(self):
        base = QCBaseMatrix.from_lists([[0, -1, 1], [-1, 2, 0]], z=3)
        h = expand_base_matrix(base)
        assert h.n_rows == 6
        assert h.n_cols == 9

    def test_expansion_shift_structure(self):
        base = QCBaseMatrix.from_lists([[1]], z=4)
        h = expand_base_matrix(base)
        dense = h.to_dense()
        # Row r has a one in column (r + 1) mod 4.
        for r in range(4):
            assert dense[r].tolist() == [1 if c == (r + 1) % 4 else 0 for c in range(4)]

    def test_zero_block_produces_no_edges(self):
        base = QCBaseMatrix.from_lists([[-1, 0]], z=2)
        h = expand_base_matrix(base)
        assert h.to_dense().sum(axis=0).tolist() == [0, 0, 1, 1]

    def test_rejects_shift_out_of_range(self):
        with pytest.raises(CodeDefinitionError):
            QCBaseMatrix.from_lists([[5]], z=4)
        with pytest.raises(CodeDefinitionError):
            QCBaseMatrix.from_lists([[-2]], z=4)

    def test_rejects_ragged_rows(self):
        with pytest.raises(CodeDefinitionError):
            QCBaseMatrix.from_lists([[0, 1], [0]], z=4)

    def test_scale_shift_floor_rule(self):
        assert scale_shift(94, 24) == (94 * 24) // 96
        assert scale_shift(-1, 24) == -1
        assert scale_shift(0, 24) == 0

    def test_scale_shift_modulo_rule(self):
        assert scale_shift(40, 24, use_modulo=True) == 40 % 24

    def test_scale_shift_rejects_bad_z(self):
        with pytest.raises(CodeDefinitionError):
            scale_shift(3, 0)


class TestWimaxCodes:
    def test_code_rate_table(self):
        assert WIMAX_CODE_RATES == ("1/2", "2/3A", "2/3B", "3/4A", "3/4B", "5/6")
        assert WIMAX_EXPANSION_FACTORS[0] == 24
        assert WIMAX_EXPANSION_FACTORS[-1] == 96

    def test_worst_case_code_dimensions(self, worst_case_ldpc_code):
        code = worst_case_ldpc_code
        assert code.n == 2304
        assert code.m == 1152
        assert code.k == 1152
        assert code.z == 96

    def test_worst_case_row_degrees_are_6_and_7(self, worst_case_ldpc_code):
        degrees = set(worst_case_ldpc_code.h.row_degrees().tolist())
        assert degrees == {6, 7}

    def test_all_rates_expand_with_correct_shape(self):
        expected_rows = {"1/2": 12, "2/3A": 8, "2/3B": 8, "3/4A": 6, "3/4B": 6, "5/6": 4}
        for rate in WIMAX_CODE_RATES:
            code = wimax_ldpc_code(576, rate)
            assert code.n == 576
            assert code.m == expected_rows[rate] * 24
            assert code.base.nb == WIMAX_BLOCK_COLUMNS

    def test_rate_property(self):
        assert wimax_ldpc_code(576, "1/2").rate == pytest.approx(0.5)
        assert wimax_ldpc_code(576, "5/6").rate == pytest.approx(5 / 6)

    def test_codes_are_four_cycle_free(self, small_ldpc_code):
        # A 4-cycle is two checks sharing two or more variables.
        assert max(check_adjacency_graph(small_ldpc_code.h).weights.values()) == 1

    def test_caching_returns_same_object(self):
        assert wimax_ldpc_code(576, "1/2") is wimax_ldpc_code(576, "1/2")

    def test_invalid_rate_rejected(self):
        with pytest.raises(CodeDefinitionError):
            wimax_ldpc_code(576, "7/8")

    def test_invalid_length_rejected(self):
        with pytest.raises(CodeDefinitionError):
            wimax_ldpc_code(600, "1/2")
        with pytest.raises(CodeDefinitionError):
            wimax_ldpc_code(100, "1/2")

    def test_list_wimax_codes_counts(self):
        codes = list_wimax_codes()
        assert len(codes) == len(WIMAX_EXPANSION_FACTORS) * len(WIMAX_CODE_RATES)
        assert (2304, "1/2") in codes

    def test_list_wimax_codes_rejects_unknown_rate(self):
        with pytest.raises(CodeDefinitionError):
            list_wimax_codes(("9/10",))

    def test_describe_mentions_rate_and_length(self, small_ldpc_code):
        text = small_ldpc_code.describe()
        assert "1/2" in text and "576" in text


class TestCheckAdjacencyGraph:
    def test_check_adjacency_graph_edges(self):
        h = ParityCheckMatrix([[0, 1], [1, 2], [3]], n_cols=4)
        graph = check_adjacency_graph(h)
        assert graph.n_checks == 3
        assert graph.weights == {(0, 1): 1}

    def test_check_adjacency_weight_counts_shared_variables(self):
        h = ParityCheckMatrix([[0, 1, 2], [0, 1, 3]], n_cols=4)
        assert check_adjacency_graph(h).weights == {(0, 1): 2}
