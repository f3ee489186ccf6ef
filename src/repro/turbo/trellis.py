"""The 8-state double-binary CRSC trellis used by the WiMAX CTC.

The constituent encoder follows the DVB-RCS / IEEE 802.16e circuit: three
memory cells ``(s1, s2, s3)``, feedback polynomial ``1 + D + D^3``, parity
outputs ``Y`` (``1 + D^2 + D^3``) and ``W`` (``1 + D^3``), with the second
input bit ``B`` additionally injected into the second and third memory cells.

Every trellis step consumes one *couple* ``(A, B)`` — equivalently a symbol
``u = 2A + B`` in ``{0, 1, 2, 3}`` — and produces the parity couple
``(Y, W)``.  The circular (tail-biting) state is computed from the affine
state-update map, as required for CRSC encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CodeDefinitionError

#: Number of trellis states (three memory cells).
NUM_STATES = 8

#: Number of input symbols per trellis step (duo-binary: 2 bits).
NUM_SYMBOLS = 4


@dataclass(frozen=True)
class TrellisTransition:
    """One edge of the trellis section.

    Attributes
    ----------
    from_state / to_state:
        Encoder states before and after consuming the input symbol.
    symbol:
        Input symbol ``u = 2A + B``.
    systematic:
        The systematic couple ``(A, B)``.
    parity:
        The parity couple ``(Y, W)``.
    """

    from_state: int
    to_state: int
    symbol: int
    systematic: tuple[int, int]
    parity: tuple[int, int]


def _state_bits(state: int) -> tuple[int, int, int]:
    return (state >> 2) & 1, (state >> 1) & 1, state & 1


def _bits_state(s1: int, s2: int, s3: int) -> int:
    return (s1 << 2) | (s2 << 1) | s3


def _step(state: int, a: int, b: int) -> tuple[int, int, int]:
    """Advance the constituent encoder by one couple; return (next_state, y, w)."""
    s1, s2, s3 = _state_bits(state)
    feedback = a ^ b ^ s1 ^ s3
    new_s1 = feedback
    new_s2 = s1 ^ b
    new_s3 = s2 ^ b
    y = feedback ^ s2 ^ s3
    w = feedback ^ s3
    return _bits_state(new_s1, new_s2, new_s3), y, w


class DuoBinaryTrellis:
    """Precomputed trellis section of the WiMAX CTC constituent code.

    The same section applies to every step (the code is time-invariant), so a
    single table of ``8 x 4`` transitions describes the whole trellis.
    """

    def __init__(self) -> None:
        transitions: list[TrellisTransition] = []
        next_state = np.zeros((NUM_STATES, NUM_SYMBOLS), dtype=np.int64)
        parity_bits = np.zeros((NUM_STATES, NUM_SYMBOLS, 2), dtype=np.int8)
        for state in range(NUM_STATES):
            for symbol in range(NUM_SYMBOLS):
                a, b = (symbol >> 1) & 1, symbol & 1
                to_state, y, w = _step(state, a, b)
                next_state[state, symbol] = to_state
                parity_bits[state, symbol, 0] = y
                parity_bits[state, symbol, 1] = w
                transitions.append(
                    TrellisTransition(
                        from_state=state,
                        to_state=to_state,
                        symbol=symbol,
                        systematic=(a, b),
                        parity=(y, w),
                    )
                )
        self._transitions = tuple(transitions)
        self._next_state = next_state
        self._parity = parity_bits
        # Incoming edges per destination state, in flat (state, symbol) scan
        # order: the recursive code gives every state exactly four of them.
        in_state = np.zeros((NUM_STATES, NUM_SYMBOLS), dtype=np.int64)
        in_symbol = np.zeros((NUM_STATES, NUM_SYMBOLS), dtype=np.int64)
        fill = [0] * NUM_STATES
        for state in range(NUM_STATES):
            for symbol in range(NUM_SYMBOLS):
                target = int(next_state[state, symbol])
                in_state[target, fill[target]] = state
                in_symbol[target, fill[target]] = symbol
                fill[target] += 1
        self._in_state = in_state
        self._in_symbol = in_symbol
        # The state-update map is affine over GF(2)^3: s' = A s + B u.
        self._state_matrix = self._compute_state_matrix()
        self._circulation_inverse_cache: dict[int, np.ndarray | None] = {}
        self._zero_input_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #

    @property
    def transitions(self) -> tuple[TrellisTransition, ...]:
        """All ``8 x 4`` transitions of one trellis section."""
        return self._transitions

    def next_state(self, state: int, symbol: int) -> int:
        """State reached from ``state`` on input ``symbol``."""
        return int(self._next_state[state, symbol])

    def parity(self, state: int, symbol: int) -> tuple[int, int]:
        """Parity couple ``(Y, W)`` emitted from ``state`` on input ``symbol``."""
        return int(self._parity[state, symbol, 0]), int(self._parity[state, symbol, 1])

    def next_state_table(self) -> np.ndarray:
        """The full ``(8, 4)`` next-state table (copy)."""
        return self._next_state.copy()

    def parity_table(self) -> np.ndarray:
        """The full ``(8, 4, 2)`` parity table (copy)."""
        return self._parity.copy()

    def incoming_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat incoming-edge tables for the batched forward recursion.

        Returns ``(in_state, in_symbol)``, each of shape ``(8, 4)``: entry
        ``[t, i]`` is the source state / input symbol of the ``i``-th edge
        arriving at state ``t``, in flat ``(state, symbol)`` scan order,
        the order the scatter in the sequential recursion visits.  The
        Max-Log-MAP maximum is exact in any order, so the order only fixes
        which edge is which.
        """
        return self._in_state.copy(), self._in_symbol.copy()

    # ------------------------------------------------------------------ #
    # Circular (tail-biting) state computation
    # ------------------------------------------------------------------ #
    def _compute_state_matrix(self) -> np.ndarray:
        """GF(2) matrix A of the homogeneous state update (input symbol 0)."""
        matrix = np.zeros((3, 3), dtype=np.uint8)
        for bit in range(3):
            state = 1 << (2 - bit)  # state with only this bit set
            next_state, _, _ = _step(state, 0, 0)
            s1, s2, s3 = _state_bits(next_state)
            matrix[0, bit] = s1
            matrix[1, bit] = s2
            matrix[2, bit] = s3
        return matrix

    def zero_input_final_state(self, start_state: int, symbols: np.ndarray) -> int:
        """Encode ``symbols`` starting from ``start_state`` and return the final state."""
        state = int(start_state)
        for symbol in np.asarray(symbols, dtype=np.int64):
            state = int(self._next_state[state, int(symbol)])
        return state

    def circulation_state(self, symbols: np.ndarray) -> int:
        """Compute the circular-trellis initial state for a block of symbols.

        For a CRSC code the final state reached from state ``s`` is
        ``A^N s + c`` where ``c`` is the final state reached from zero.  The
        circulation state is the fixed point ``s_c = (I + A^N)^{-1} c``
        (arithmetic over GF(2)).  Raises when ``I + A^N`` is singular, which
        happens only when ``N`` is a multiple of the state-matrix period (7);
        WiMAX block sizes avoid this.
        """
        symbols_arr = np.asarray(symbols, dtype=np.int64)
        n_steps = symbols_arr.size
        if n_steps == 0:
            raise CodeDefinitionError("cannot compute a circulation state for an empty block")
        final_from_zero = self.zero_input_final_state(0, symbols_arr)
        c_vec = np.array(_state_bits(final_from_zero), dtype=np.uint8)
        m_inv = self._circulation_inverse(n_steps)
        s_c = (m_inv @ c_vec) % 2
        return _bits_state(int(s_c[0]), int(s_c[1]), int(s_c[2]))

    def circular_states(self, symbols: np.ndarray) -> np.ndarray:
        """State sequences ``s_0 .. s_N`` of circular encoding, ``(batch, N + 1)``.

        Batched over ``(batch, N)`` blocks of one length.  One sequential
        pass from the zero state records ``z_k``, the state after ``k``
        couples; its final state ``c`` gives the circulation state
        ``s_c = (I + A^N)^{-1} c`` (see :meth:`circulation_state`).  The
        update is affine over GF(2), ``s' = A s + B u``, so encoding from
        ``s_c`` visits ``s_k = A^k s_c + z_k`` (XOR of packed states), read
        from a cached per-length table of zero-input state maps instead of
        a second pass.  ``s_N == s_0`` for every block.
        """
        arr = np.asarray(symbols, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise CodeDefinitionError(
                f"expected a (batch, n_steps) symbol array with n_steps > 0, got shape {arr.shape}"
            )
        batch, n_steps = arr.shape
        # Packed states fit a byte; (batch, N + 1) int64 sequences would
        # cost 8x the memory for large batches.
        zero_start = np.zeros((n_steps + 1, batch), dtype=np.uint8)
        steps = arr.T
        for step in range(n_steps):
            zero_start[step + 1] = self._next_state[zero_start[step], steps[step]]
        final = zero_start[n_steps]
        c_bits = np.stack([(final >> 2) & 1, (final >> 1) & 1, final & 1], axis=1)
        s_c = (c_bits @ self._circulation_inverse(n_steps).T) % 2
        start = (
            (s_c[:, 0].astype(np.int64) << 2)
            | (s_c[:, 1].astype(np.int64) << 1)
            | s_c[:, 2].astype(np.int64)
        )
        return self._zero_input_powers(n_steps)[start] ^ zero_start.T

    def _zero_input_powers(self, n_steps: int) -> np.ndarray:
        """``(8, n_steps + 1)`` table of ``A^k s`` (column ``k``), cached per length."""
        table = self._zero_input_cache.get(n_steps)
        if table is None:
            table = np.empty((NUM_STATES, n_steps + 1), dtype=np.uint8)
            table[:, 0] = np.arange(NUM_STATES)
            zero_input = self._next_state[:, 0]  # s -> A s
            for k in range(n_steps):
                table[:, k + 1] = zero_input[table[:, k]]
            self._zero_input_cache[n_steps] = table
        return table

    def _circulation_inverse(self, n_steps: int) -> np.ndarray:
        """``(I + A^n_steps)^{-1}`` over GF(2), cached per block length."""
        if n_steps not in self._circulation_inverse_cache:
            a_pow = np.eye(3, dtype=np.uint8)
            power = self._state_matrix.copy()
            exponent = n_steps
            while exponent:
                if exponent & 1:
                    a_pow = (a_pow @ power) % 2
                power = (power @ power) % 2
                exponent >>= 1
            m = (np.eye(3, dtype=np.uint8) + a_pow) % 2
            self._circulation_inverse_cache[n_steps] = _gf2_invert_3x3(m)
        m_inv = self._circulation_inverse_cache[n_steps]
        if m_inv is None:
            raise CodeDefinitionError(
                f"block length {n_steps} is a multiple of the trellis period; "
                "no circulation state exists"
            )
        return m_inv


def _gf2_invert_3x3(matrix: np.ndarray) -> np.ndarray | None:
    """Invert a 3x3 GF(2) matrix; return ``None`` if singular."""
    work = matrix.astype(np.uint8).copy()
    inverse = np.eye(3, dtype=np.uint8)
    for col in range(3):
        pivot_rows = np.flatnonzero(work[col:, col]) + col
        if pivot_rows.size == 0:
            return None
        pivot = int(pivot_rows[0])
        if pivot != col:
            work[[col, pivot]] = work[[pivot, col]]
            inverse[[col, pivot]] = inverse[[pivot, col]]
        for row in range(3):
            if row != col and work[row, col]:
                work[row] ^= work[col]
                inverse[row] ^= inverse[col]
    return inverse
