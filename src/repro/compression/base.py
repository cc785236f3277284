"""Codec interface shared by all compression schemes.

A *codec spec* (:class:`CodecSpec`) is what the physical-design phase
records in the catalog: the scheme, the packed width in bits, and any
scheme parameters (the dictionary, a zig-zag flag for signed deltas).
A *codec* (:class:`Codec`) is the runtime object built from a spec; it
packs a page worth of values into bytes and unpacks them again.

Per the paper, all schemes produce **fixed-length** compressed values, so
a page holds ``floor(payload_bits / bits_per_value)`` values and positions
can be computed by arithmetic, exactly as for uncompressed data.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CompressionError
from repro.types.datatypes import AttributeType


class CodecKind(enum.Enum):
    """The compression schemes of Section 2.2.1, plus RLE.

    The paper deliberately refrains from run-length encoding ("better
    suited for column data") to keep its study unbiased; it is included
    here as an extension so that bias can be measured.
    """

    NONE = "none"
    PACK = "pack"
    DICT = "dict"
    FOR = "for"
    FOR_DELTA = "for-delta"
    RLE = "rle"


@dataclass(frozen=True)
class CodecSpec:
    """Catalog description of how one column is compressed.

    Attributes
    ----------
    kind:
        Which scheme is used.
    bits:
        Packed width of one value, in bits.  For ``NONE`` this is the
        attribute width times eight.
    dictionary:
        For ``DICT``, the ordered tuple of distinct values (codes are
        indexes into this tuple).
    zigzag:
        For ``FOR``/``FOR_DELTA``, whether deltas are zig-zag encoded to
        admit negative differences.
    """

    kind: CodecKind
    bits: int
    dictionary: tuple = field(default=())
    zigzag: bool = False
    #: RLE only: packed width of a run length (one run = bits + run_bits).
    run_bits: int = 0

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise CompressionError(f"packed width must be positive: {self.bits}")
        if self.kind is CodecKind.DICT and not self.dictionary:
            raise CompressionError("DICT spec requires a non-empty dictionary")
        if self.kind is not CodecKind.DICT and self.dictionary:
            raise CompressionError(f"{self.kind} spec must not carry a dictionary")
        if self.kind is CodecKind.RLE and self.run_bits <= 0:
            raise CompressionError("RLE spec requires positive run_bits")
        if self.kind is not CodecKind.RLE and self.run_bits:
            raise CompressionError(f"{self.kind} spec must not carry run_bits")

    @property
    def is_compressed(self) -> bool:
        return self.kind is not CodecKind.NONE

    def describe(self) -> str:
        """Short Figure 5-style description, e.g. ``dict, 3 bits``."""
        if self.kind is CodecKind.NONE:
            return "non-compressed"
        if self.bits % 8 == 0 and self.bits >= 16:
            return f"{self.kind.value}, {self.bits // 8} bytes"
        return f"{self.kind.value}, {self.bits} bits"


@dataclass(frozen=True)
class PageCodecState:
    """Per-page codec state stored in the page trailer.

    Only the frame-of-reference schemes carry state: the base value of the
    block (the first value of the page, per Section 2.2.1).
    """

    base: int = 0


class Codec(abc.ABC):
    """Packs and unpacks one page worth of column values."""

    def __init__(self, spec: CodecSpec, attr_type: AttributeType):
        self.spec = spec
        self.attr_type = attr_type

    @property
    def bits_per_value(self) -> int:
        """Fixed packed width of one value, in bits."""
        return self.spec.bits

    @property
    def decodes_whole_page(self) -> bool:
        """True if decoding *any* value requires decoding the whole page.

        FOR-delta reconstructs value *i* from the base value and all the
        deltas before it, so selective access still pays for a full-page
        decode (the effect behind Figure 9's CPU jump).
        """
        return False

    @property
    def is_variable(self) -> bool:
        """True when values per page depend on the data (e.g. RLE).

        Variable codecs are loaded through :meth:`encode_prefix` and
        need the column file's page directory for position lookups.
        """
        return False

    def encode_prefix(
        self, values: np.ndarray, payload_bytes: int
    ) -> tuple[bytes, PageCodecState, int]:
        """Encode as many leading ``values`` as fit in ``payload_bytes``.

        Returns ``(payload, state, values_consumed)``.  Fixed-width
        codecs consume exactly :meth:`values_per_page` values; variable
        codecs override this with a data-dependent split.
        """
        capacity = min(len(values), self.values_per_page(payload_bytes))
        if capacity <= 0:
            raise CompressionError("page cannot hold a single value")
        chunk = values[:capacity]
        payload, state = self.encode_page(chunk)
        return payload, state, capacity

    @abc.abstractmethod
    def encode_page(self, values: np.ndarray) -> tuple[bytes, PageCodecState]:
        """Pack ``values`` into page payload bytes plus trailer state."""

    #: Whether a code is a ``bits_per_value // 8``-byte string (packed
    #: text) and not a ``bits_per_value``-bit non-negative integer.
    text_codes = False

    # A fixed-width codec is these three halves of a page: compressed row
    # pages scatter the codes over their tuples, column pages pack them
    # back to back, and both share the codec's one encode and one decode.

    def encode_codes(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """The codes of one page of ``values`` and the page's base."""
        raise CompressionError(f"{type(self).__name__} has no fixed-width codes")

    def unpack_codes(self, payload: bytes, count: int) -> np.ndarray:
        """The ``count`` codes of a column page's payload, undecoded."""
        raise CompressionError(f"{type(self).__name__} has no fixed-width codes")

    def decode_codes(self, codes: np.ndarray, bases=0) -> np.ndarray:
        """The values of ``codes`` — of any shape whose last axis runs
        along a page, with ``bases`` the page's base or one per leading index."""
        raise CompressionError(f"{type(self).__name__} has no fixed-width codes")

    def decode_page(self, payload: bytes, count: int, state: PageCodecState) -> np.ndarray:
        """Unpack all ``count`` values of a page."""
        return self.decode_codes(self.unpack_codes(payload, count), state.base)

    def effective_bits(self, values: np.ndarray) -> float:
        """Average stored bits per value on this data.

        Fixed-width codecs store exactly :attr:`bits_per_value`;
        variable codecs (RLE) override with the data-dependent density
        used for paper-scale size extrapolation.
        """
        return float(self.bits_per_value)

    def values_per_page(self, payload_bytes: int) -> int:
        """How many values fit in ``payload_bytes`` of page payload."""
        capacity = (payload_bytes * 8) // self.bits_per_value
        if capacity <= 0:
            raise CompressionError(
                f"page payload of {payload_bytes} bytes cannot hold a "
                f"{self.bits_per_value}-bit value"
            )
        return capacity

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec.describe()})"


def require_int_array(values: np.ndarray, what: str) -> np.ndarray:
    """Coerce to an int64 array, raising :class:`CompressionError` otherwise."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise CompressionError(f"{what} requires integer values, got {values.dtype}")
    return values.astype(np.int64, copy=False)
