"""Table schemas: ordered, fixed-length attributes plus compression specs.

A schema is purely logical plus physical-design metadata (the per-column
codec spec chosen by the compression advisor); the storage layer turns it
into row or column files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

from repro.errors import SchemaError
from repro.types.datatypes import AttributeType

if TYPE_CHECKING:  # avoid a circular import at runtime (compression uses types)
    from repro.compression.base import CodecSpec

#: Row tuples are padded to a multiple of this (the paper pads LINEITEM
#: from 150 to 152 bytes).
ROW_ALIGNMENT = 8


@dataclass(frozen=True)
class Attribute:
    """One fixed-length attribute with its storage codec."""

    name: str
    attr_type: AttributeType
    codec_spec: "CodecSpec | None" = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid attribute name: {self.name!r}")

    @cached_property
    def spec(self) -> "CodecSpec":
        """The effective codec spec (identity when none was chosen); made
        once per attribute."""
        if self.codec_spec is None:
            from repro.compression.identity import IdentityCodec

            return IdentityCodec.spec_for_type(self.attr_type)
        return self.codec_spec

    @property
    def packed_bits(self) -> int:
        """Stored width of one value in bits."""
        return self.spec.bits

    @property
    def width(self) -> int:
        """Uncompressed width of one value in bytes."""
        return self.attr_type.width

    def describe(self) -> str:
        """Figure 5-style one-liner, e.g. ``L_QUANTITY  pack, 6 bits``."""
        return f"{self.name:<18s} {self.spec.describe()}"


@dataclass(frozen=True)
class TableSchema:
    """An ordered collection of attributes."""

    name: str
    attributes: tuple[Attribute, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must not be empty")
        if not self.attributes:
            raise SchemaError(f"table {self.name!r} has no attributes")
        names = [attr.name for attr in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in {self.name!r}: {names}")

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(attr.name for attr in self.attributes)

    @cached_property
    def _by_name(self) -> dict[str, Attribute]:
        return {attr.name: attr for attr in self.attributes}

    @cached_property
    def widths(self) -> dict[str, int]:
        """Attribute name -> uncompressed width in bytes."""
        return {attr.name: attr.width for attr in self.attributes}

    @cached_property
    def compressed_kinds(self) -> dict:
        """Attribute name -> codec kind, for the compressed attributes."""
        return {attr.name: attr.spec.kind for attr in self.attributes if attr.spec.is_compressed}

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        attr = self._by_name.get(name)
        if attr is None:
            raise SchemaError(f"no attribute {name!r} in table {self.name!r}")
        return attr

    def index_of(self, name: str) -> int:
        """Ordinal position of an attribute."""
        for index, attr in enumerate(self.attributes):
            if attr.name == name:
                return index
        raise SchemaError(f"no attribute {name!r} in table {self.name!r}")

    @property
    def tuple_width(self) -> int:
        """Uncompressed logical tuple width in bytes (no padding)."""
        return sum(attr.width for attr in self.attributes)

    @property
    def row_stride(self) -> int:
        """On-disk row width: tuple width padded to :data:`ROW_ALIGNMENT`.

        A row page stores tuples at this stride; the paper's LINEITEM
        occupies 152 bytes on disk for a 150-byte tuple.
        """
        width = self.tuple_width
        remainder = width % ROW_ALIGNMENT
        if remainder == 0:
            return width
        return width + (ROW_ALIGNMENT - remainder)

    @property
    def packed_tuple_bits(self) -> int:
        """Stored tuple width in bits under the per-column codecs."""
        return sum(attr.packed_bits for attr in self.attributes)

    @property
    def packed_tuple_bytes(self) -> float:
        """Stored tuple width in (fractional) bytes under the codecs."""
        return self.packed_tuple_bits / 8.0

    def attribute_offset(self, name: str) -> int:
        """Byte offset of an attribute inside an uncompressed row tuple."""
        offset = 0
        for attr in self.attributes:
            if attr.name == name:
                return offset
            offset += attr.width
        raise SchemaError(f"no attribute {name!r} in table {self.name!r}")

    def with_codecs(self, specs: "dict[str, CodecSpec]") -> "TableSchema":
        """A copy of this schema with codec specs applied by name."""
        unknown = set(specs) - set(self.attribute_names)
        if unknown:
            raise SchemaError(f"specs for unknown attributes: {sorted(unknown)}")
        new_attrs = tuple(
            replace(attr, codec_spec=specs.get(attr.name, attr.codec_spec))
            for attr in self.attributes
        )
        return TableSchema(name=self.name, attributes=new_attrs)

    def project(self, names: list[str] | tuple[str, ...]) -> "TableSchema":
        """Schema containing only ``names``, in the given order."""
        attrs = tuple(self.attribute(name) for name in names)
        return TableSchema(name=f"{self.name}_proj", attributes=attrs)

    def describe(self) -> str:
        """Multi-line Figure 5-style description of the schema."""
        header = (
            f"{self.name} ({self.tuple_width} bytes, "
            f"{len(self.attributes)} attributes, "
            f"packed {self.packed_tuple_bits} bits)"
        )
        lines = [header]
        for index, attr in enumerate(self.attributes, start=1):
            lines.append(f"  {index:>2d} {attr.describe()}")
        return "\n".join(lines)
