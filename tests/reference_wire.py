"""Field-by-field reference decoders for transactions and blocks.

These are the straightforward decoders, one helper call per field, that
``ledgerpack.wire`` used before its hot loop was inlined.
``tests/test_wire_reference.py`` requires the ``wire`` decoders to return
equal results and raise the same errors (class, message, offset and
field) on every input.  Do not edit these functions to follow changes in
``wire``; they are the fixed point the decoder is compared with.

``VarInt``, ``decode_varint`` and ``encode_varint`` are the varint codec
these references were written against, copied verbatim, so that
``tests/reference_slack.py`` and ``tests/reference_store.py`` (which
import it from here) do not read through the codec under test.
"""

from dataclasses import dataclass

from ledgerpack.errors import DecodeError, EncodeError, TruncationError
from ledgerpack.wire import (
    _ONE_BYTE,
    _U16,
    _U32,
    _U64,
    HEADER_SIZE,
    IDENTITY_CODEC,
    MAX_MONEY,
    Block,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    WitnessStack,
    decode_header,
    varint_width,
)


def _need(data: bytes, offset: int, count: int, field_name: str) -> None:
    if offset + count > len(data):
        raise TruncationError(
            f"need {count} byte(s), have {len(data) - offset}",
            offset=offset,
            field=field_name,
        )


@dataclass(frozen=True, slots=True)
class VarInt:
    """A compact-size integer together with the width it was stored with.

    ``width`` 0 means "canonical": encode with the minimal width for the
    value.  Decoders always record the actual width so that re-encoding
    reproduces the original bytes even for non-canonical encodings.
    """

    value: int
    width: int = 0

    def encoded_width(self) -> int:
        return self.width if self.width else varint_width(self.value)


def decode_varint(data: bytes, offset: int = 0) -> tuple[VarInt, int]:
    """Decode one compact-size integer; returns (VarInt, bytes consumed)."""
    _need(data, offset, 1, "varint prefix")
    prefix = data[offset]
    if prefix < 0xFD:
        return VarInt(prefix, 1), 1
    if prefix == 0xFD:
        _need(data, offset + 1, 2, "varint payload")
        return VarInt(_U16.unpack_from(data, offset + 1)[0], 3), 3
    if prefix == 0xFE:
        _need(data, offset + 1, 4, "varint payload")
        return VarInt(_U32.unpack_from(data, offset + 1)[0], 5), 5
    _need(data, offset + 1, 8, "varint payload")
    return VarInt(_U64.unpack_from(data, offset + 1)[0], 9), 9


def encode_varint(v: VarInt | int) -> bytes:
    """Exact inverse of :func:`decode_varint`, including non-canonical widths."""
    if type(v) is int and 0 <= v <= 0xFFFF:  # canonical widths 1 and 3 without a width lookup
        return _ONE_BYTE[v] if v < 0xFD else b"\xfd" + _U16.pack(v)
    if isinstance(v, int):
        value, width = v, varint_width(v)
    else:
        value, width = v.value, v.encoded_width()
    if width == 1:
        if not 0 <= value < 0xFD:
            raise EncodeError(f"value {value} does not fit a 1-byte varint")
        return _ONE_BYTE[value]
    if width == 3:
        if value > 0xFFFF:
            raise EncodeError(f"value {value} does not fit a 3-byte varint")
        return b"\xfd" + _U16.pack(value)
    if width == 5:
        if value > 0xFFFFFFFF:
            raise EncodeError(f"value {value} does not fit a 5-byte varint")
        return b"\xfe" + _U32.pack(value)
    if width == 9:
        return b"\xff" + _U64.pack(value)
    raise EncodeError(f"invalid varint width {width}")


def decode_witness_stacks(data: bytes, offset: int, n_inputs: int, codec) -> tuple[list, int]:
    """Decode one witness stack per input; returns (stacks, offset after them)."""
    stacks = []
    for _ in range(n_inputs):
        n_items, used = decode_varint(data, offset)
        offset += used
        items = []
        widths = []
        for _ in range(n_items.value):
            item, width, used = codec.decode(data, offset)
            offset += used
            items.append(item)
            widths.append(width)
        stacks.append(WitnessStack(items, count_width=n_items.width, item_widths=widths))
    return stacks, offset


def decode_transaction(data: bytes, offset: int = 0, codec=IDENTITY_CODEC) -> tuple[Transaction, int]:
    """Decode one transaction starting at ``offset``; returns (tx, bytes consumed).

    Recognizes the segwit marker/flag pair (0x00 0x01) after the version
    word.  A leading 0x00 input count can only mean an attempted segwit
    encoding, since transactions with zero inputs are invalid.  Script
    fields are read through ``codec``.
    """
    start = offset
    _need(data, offset, 4, "version")
    version = _U32.unpack_from(data, offset)[0]
    offset += 4

    has_witness = False
    _need(data, offset, 1, "input count")
    if data[offset] == 0x00:
        _need(data, offset + 1, 1, "witness flag")
        if data[offset + 1] != 0x01:
            raise DecodeError(
                f"marker 0x00 followed by flag 0x{data[offset + 1]:02x}, expected 0x01",
                offset=offset + 1,
                field="witness flag",
            )
        has_witness = True
        offset += 2

    n_in, used = decode_varint(data, offset)
    offset += used
    if n_in.value == 0:
        raise DecodeError("transaction has zero inputs", offset=offset, field="input count")

    inputs = []
    for _ in range(n_in.value):
        _need(data, offset, 36, "previous output")
        prevout = OutPoint(bytes(data[offset : offset + 32]), _U32.unpack_from(data, offset + 32)[0])
        offset += 36
        script, width, used = codec.decode(data, offset)
        offset += used
        _need(data, offset, 4, "sequence")
        sequence = _U32.unpack_from(data, offset)[0]
        offset += 4
        inputs.append(TxIn(prevout, script, sequence, script_len_width=width))

    n_out, used = decode_varint(data, offset)
    offset += used
    if n_out.value == 0:
        raise DecodeError("transaction has zero outputs", offset=offset, field="output count")

    outputs = []
    for _ in range(n_out.value):
        _need(data, offset, 8, "output value")
        value = _U64.unpack_from(data, offset)[0]
        if value > MAX_MONEY:
            raise DecodeError(
                f"output value {value} exceeds coin supply cap", offset=offset, field="output value"
            )
        offset += 8
        script, width, used = codec.decode(data, offset)
        offset += used
        outputs.append(TxOut(value, script, script_len_width=width))

    witnesses = []
    witness_at = 0
    if has_witness:
        witness_at = offset - start
        witnesses, offset = decode_witness_stacks(data, offset, n_in.value, codec)

    _need(data, offset, 4, "lock time")
    lock_time = _U32.unpack_from(data, offset)[0]
    offset += 4

    tx = Transaction(
        version=version,
        inputs=inputs,
        outputs=outputs,
        lock_time=lock_time,
        has_witness_flag=has_witness,
        witnesses=witnesses,
        input_count_width=n_in.width,
        output_count_width=n_out.width,
    )
    if codec is IDENTITY_CODEC:
        tx.source = bytes(data[start:offset])
        tx.witness_at = witness_at
    return tx, offset - start


def decode_block(data: bytes, codec=IDENTITY_CODEC) -> Block:
    """Decode one block body (header + transactions); rejects trailing bytes.

    Script fields are read through ``codec``.
    """
    header = decode_header(data, 0)
    offset = HEADER_SIZE
    n_tx, used = decode_varint(data, offset)
    offset += used
    if n_tx.value == 0:
        raise DecodeError("block has zero transactions", offset=offset, field="tx count")
    txs = []
    for _ in range(n_tx.value):
        tx, used = decode_transaction(data, offset, codec)
        txs.append(tx)
        offset += used
    if offset != len(data):
        raise DecodeError(
            f"{len(data) - offset} trailing byte(s) after final transaction",
            offset=offset,
            field="block body",
        )
    return Block(header, txs, raw_size_bytes=len(data), tx_count_width=n_tx.width)
