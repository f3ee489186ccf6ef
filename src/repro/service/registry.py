"""Codec registry: (family, block size, rate) -> encoder + batch decoder.

The decode service routes every request through one of these entries.  A
:class:`CodecSpec` names a codec the way a client does — ``family``
(``"ldpc"`` for WiMAX LDPC, ``"wifi"`` for the 802.11n set, ``"turbo"`` for
the CTC), ``block`` (codeword length ``n`` for the LDPC families,
couple count ``N`` for the duo-binary CTC) and the standard's ``rate``
string — and the registry lazily builds and caches the matching
:class:`~repro.sim.batch.BatchDecoder` (plus the encoder, which demos and
benchmarks use to generate test traffic).

Entries are built on first use, so registering the whole WiMAX code set
costs nothing until a client actually asks for a code.  Unknown requests
raise :class:`~repro.errors.UnknownCodecError` carrying the list of codecs
the registry *does* serve — the service surfaces that message verbatim at
its boundary instead of letting a bad spec die as a NumPy broadcast error
deep inside a kernel.

Specs are plain picklable data, so the process-shard executor ships only a
spec key with each batch.  The registry itself reaches every shard worker
once, through the process pool's initializer, and each worker resolves (and
caches) its decoders through it — decoders never cross a process boundary
per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import CodeDefinitionError, UnknownCodecError
from repro.utils.validation import require_int

__all__ = [
    "CodecEntry",
    "CodecRegistry",
    "CodecSpec",
    "default_registry",
]

#: Decoder-construction defaults per family (the paper's operating points).
LDPC_MAX_ITERATIONS = 10
TURBO_MAX_ITERATIONS = 8


@dataclass(frozen=True)
class CodecSpec:
    """Client-visible name of one codec.

    ``family`` is ``"ldpc"`` or ``"turbo"``; ``block`` is the LDPC codeword
    length ``n`` (bits) or the CTC couple count ``N``; ``rate`` is the
    standard's rate string (``"1/2"``, ``"2/3A"``, ...).
    """

    family: str
    block: int
    rate: str

    @property
    def key(self) -> tuple[str, int, str]:
        """Hashable lookup key (also the pickled form sent to shard workers)."""
        return (self.family, self.block, self.rate)

    @property
    def label(self) -> str:
        """Compact human-readable name used in metrics and error messages."""
        return f"{self.family}:{self.block}:{self.rate}"


@dataclass
class CodecEntry:
    """One resolved codec: the spec, its encoder and its batch decoder.

    ``n_bits`` is the channel-LLR length every request for this codec must
    carry; ``k_bits`` the number of decided information bits;
    ``decides_info_bits`` mirrors the decoder's flag (turbo decides the
    payload, LDPC the whole codeword).
    """

    spec: CodecSpec
    code: object
    decoder: object
    n_bits: int
    k_bits: int
    decides_info_bits: bool = field(default=False)


def _build_ldpc_entry(spec: CodecSpec) -> CodecEntry:
    from repro.ldpc.wimax import wimax_ldpc_code
    from repro.sim.batch import BatchLayeredDecoder

    code = wimax_ldpc_code(spec.block, spec.rate)
    decoder = BatchLayeredDecoder(code.h, max_iterations=LDPC_MAX_ITERATIONS)
    return CodecEntry(
        spec=spec,
        code=code,
        decoder=decoder,
        n_bits=code.n,
        k_bits=code.k,
        decides_info_bits=False,
    )


def _build_wifi_entry(spec: CodecSpec) -> CodecEntry:
    from repro.ldpc.wifi import wifi_ldpc_code
    from repro.sim.batch import BatchLayeredDecoder

    code = wifi_ldpc_code(spec.block, spec.rate)
    decoder = BatchLayeredDecoder(code.h, max_iterations=LDPC_MAX_ITERATIONS)
    return CodecEntry(
        spec=spec,
        code=code,
        decoder=decoder,
        n_bits=code.n,
        k_bits=code.k,
        decides_info_bits=False,
    )


def _build_turbo_entry(spec: CodecSpec) -> CodecEntry:
    from repro.sim.turbo_batch import BatchTurboDecoder
    from repro.turbo.encoder import TurboEncoder

    encoder = TurboEncoder(n_couples=spec.block, rate=spec.rate)
    decoder = BatchTurboDecoder(encoder, max_iterations=TURBO_MAX_ITERATIONS)
    return CodecEntry(
        spec=spec,
        code=encoder,
        decoder=decoder,
        n_bits=encoder.n,
        k_bits=encoder.k,
        decides_info_bits=True,
    )


class CodecRegistry:
    """Lazily-built, cached mapping from :class:`CodecSpec` to :class:`CodecEntry`.

    A *family builder* registered via :meth:`register_family` turns a spec of
    that family into an entry; whether a given ``(block, rate)`` is valid is
    the builder's call (it raises
    :class:`~repro.errors.CodeDefinitionError` for unsupported parameters,
    which the registry converts into the service-boundary
    :class:`~repro.errors.UnknownCodecError`).  ``known`` seeds the
    advertised spec list shown in error messages and ``specs()``.
    """

    def __init__(self) -> None:
        self._builders: dict[str, Callable[[CodecSpec], CodecEntry]] = {}
        self._known: dict[str, list[CodecSpec]] = {}
        self._cache: dict[tuple[str, int, str], CodecEntry] = {}

    def register_family(
        self,
        family: str,
        builder: Callable[[CodecSpec], CodecEntry],
        known: list[CodecSpec] | None = None,
    ) -> None:
        """Register (or replace) the builder serving one code family."""
        self._builders[family] = builder
        self._known[family] = list(known or [])

    @property
    def families(self) -> tuple[str, ...]:
        """The code families this registry can serve."""
        return tuple(self._builders)

    def specs(self) -> list[CodecSpec]:
        """Every advertised spec (families may accept more; see builders)."""
        return [spec for specs in self._known.values() for spec in specs]

    def resolve(self, family: str, block: int, rate: str) -> CodecEntry:
        """The cached entry for ``(family, block, rate)``, building it on miss.

        ``block`` must be integral (an ``int`` or a NumPy integer): a float,
        bool or string raises :class:`~repro.errors.UnknownCodecError`
        rather than being truncated onto another codec.
        """
        require_int("block", block, minimum=1, error=UnknownCodecError)
        return self.resolve_spec(CodecSpec(str(family), int(block), str(rate)))

    def resolve_spec(self, spec: CodecSpec) -> CodecEntry:
        """Like :meth:`resolve`, from an existing :class:`CodecSpec`."""
        entry = self._cache.get(spec.key)
        if entry is not None:
            return entry
        builder = self._builders.get(spec.family)
        if builder is None:
            raise UnknownCodecError(
                f"unknown code family {spec.family!r}; served families: "
                f"{sorted(self._builders)}"
            )
        try:
            entry = builder(spec)
        except CodeDefinitionError as exc:
            advertised = ", ".join(s.label for s in self._known.get(spec.family, []))
            raise UnknownCodecError(
                f"no codec for {spec.label}: {exc}"
                + (f" (advertised: {advertised})" if advertised else "")
            ) from exc
        self._cache[spec.key] = entry
        return entry


def default_registry() -> CodecRegistry:
    """Registry serving the paper's WiMAX code set.

    * ``ldpc`` — every WiMAX LDPC ``(n, rate)`` pair (n = 576..2304, six
      rate classes), decoded by the layered normalized-min-sum batch engine
      at the paper's 10 iterations;
    * ``wifi`` — the 802.11n LDPC n = 1944 set (rates 1/2 and 5/6), through
      the same layered engine (the multi-standard point of the paper);
    * ``turbo`` — the WiMAX duo-binary CTC at every standard interleaver
      block size, rates 1/2 and 1/3, decoded by the batched Max-Log-MAP
      turbo engine at the paper's 8 iterations.
    """
    from repro.ldpc.wifi import list_wifi_codes
    from repro.ldpc.wimax import list_wimax_codes
    from repro.turbo.ctc_interleaver import supported_ctc_block_sizes
    from repro.turbo.encoder import TurboEncoder

    registry = CodecRegistry()
    registry.register_family(
        "ldpc",
        _build_ldpc_entry,
        known=[CodecSpec("ldpc", n, rate) for n, rate in list_wimax_codes()],
    )
    registry.register_family(
        "wifi",
        _build_wifi_entry,
        known=[CodecSpec("wifi", n, rate) for n, rate in list_wifi_codes()],
    )
    registry.register_family(
        "turbo",
        _build_turbo_entry,
        known=[
            CodecSpec("turbo", n_couples, rate)
            for n_couples in supported_ctc_block_sizes()
            for rate in TurboEncoder.SUPPORTED_RATES
        ],
    )
    return registry
