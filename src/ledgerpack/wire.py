"""Bit-exact codec for the Bitcoin on-disk block format.

Every decoder here is strict: malformed input raises instead of being
patched over, because all downstream byte accounting assumes exact
round-trips.  Non-canonical compact-size integers are legal on mainnet
disk files, so decoded structures remember the width each varint was
stored with and re-encode it unchanged (``encode(decode(b)) == b``).

Hashes are kept in wire order (as serialized).  Use :func:`hash_hex`
for the conventional reversed display form.

Decoding through the identity codec records each transaction's source
bytes in :attr:`Transaction.source` (and where its witness begins in
:attr:`Transaction.witness_at`).  :func:`encode_transaction`,
:func:`encode_block` and :func:`txid` of such a transaction read those
bytes instead of serializing it again, so decoded ``Block`` and
``Transaction`` objects are read-only: they always encode to the bytes
they were decoded from.  To change one, build a new object or use
``dataclasses.replace``, whose copy has no source bytes and is encoded
from its fields.

:class:`OutPoint` is a named tuple (as are the records of
:mod:`ledgerpack.chain`), so it hashes and compares in C and also
compares equal to a plain ``(tx_hash, index)`` tuple.
"""

from __future__ import annotations

import hashlib
import struct
from collections import namedtuple
from dataclasses import dataclass, field

from .errors import DecodeError, EncodeError, FramingError, TruncationError

MAINNET_MAGIC = 0xF9BEB4D9
MAX_MONEY = 21_000_000 * 100_000_000
COINBASE_PREVOUT_HASH = bytes(32)
COINBASE_PREVOUT_INDEX = 0xFFFFFFFF
OP_RETURN = 0x6A

_HEADER = struct.Struct("<I32s32sIII")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def dsha256(data: bytes) -> bytes:
    """Double SHA-256, the ubiquitous hash of this wire format."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def hash_hex(h: bytes) -> str:
    """Byte-reversed hex, the conventional display form of txids/block hashes."""
    return h[::-1].hex()


def _truncated(data: bytes, offset: int, count: int, field_name: str) -> TruncationError:
    return TruncationError(
        f"need {count} byte(s), have {len(data) - offset}",
        offset=offset,
        field=field_name,
    )


def _need(data: bytes, offset: int, count: int, field_name: str) -> None:
    if offset + count > len(data):
        raise _truncated(data, offset, count, field_name)


# ---------------------------------------------------------------------------
# compact-size varints


def varint_width(value: int) -> int:
    """Canonical (minimal) encoded width for a value: 1, 3, 5 or 9 bytes."""
    if value < 0:
        raise EncodeError(f"varint value must be unsigned, got {value}")
    if value < 0xFD:
        return 1
    if value <= 0xFFFF:
        return 3
    if value <= 0xFFFFFFFF:
        return 5
    return 9


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


_ONE_BYTE = [bytes((i,)) for i in range(0xFD)]


def _varint_bytes(value: int, width: int) -> bytes:
    """``encode_varint(VarInt(value, width))`` of a count, with no VarInt
    built when it takes one byte."""
    return _ONE_BYTE[value] if value < 0xFD and width <= 1 else encode_varint(VarInt(value, width))


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


# ---------------------------------------------------------------------------
# transaction model


class OutPoint(namedtuple("OutPoint", ["tx_hash", "index"])):
    """(txid, output index) pair naming one transaction output.

    A named tuple, so hashing and equality run in C; it also compares
    equal to a plain ``(tx_hash, index)`` tuple.
    """

    __slots__ = ()

    def is_coinbase(self) -> bool:
        return self.index == COINBASE_PREVOUT_INDEX and self.tx_hash == COINBASE_PREVOUT_HASH


@dataclass(slots=True)
class TxIn:
    previous_output: OutPoint
    script: bytes
    sequence: int
    # stored width of the script-length varint; 0 = canonical
    script_len_width: int = 0


@dataclass(slots=True)
class TxOut:
    value: int
    script: bytes
    script_len_width: int = 0


@dataclass(slots=True)
class WitnessStack:
    """The witness items of one input; empty list for inputs without witness."""

    items: list[bytes] = field(default_factory=list)
    count_width: int = 0
    item_widths: list[int] = field(default_factory=list)

    def _width_for(self, i: int) -> int:
        return self.item_widths[i] if self.item_widths else 0


@dataclass(slots=True)
class Transaction:
    version: int
    inputs: list[TxIn]
    outputs: list[TxOut]
    lock_time: int
    has_witness_flag: bool = False
    witnesses: list[WitnessStack] = field(default_factory=list)
    input_count_width: int = 0
    output_count_width: int = 0
    # Set only by decoding through the identity codec: the wire bytes the
    # tx was read from (or, by strategies.slack_restore_tx, rebuilt from a
    # compact record), and the offset of its witness within them (0 when
    # it has none).  Built txs and dataclasses.replace copies have none.
    source: bytes | None = field(default=None, init=False, repr=False, compare=False)
    witness_at: int = field(default=0, init=False, repr=False, compare=False)

    def is_coinbase(self) -> bool:
        return len(self.inputs) == 1 and self.inputs[0].previous_output.is_coinbase()


class IdentityScriptCodec:
    """Wire framing of a script field: length varint + script bytes.

    Every transaction and block codec function takes a script codec for
    its script fields (input scripts, output scripts, witness items), so
    the store's dedup framing (``strategies.RefScriptCodec``) shares the
    one transaction layout.  This identity codec is the default.
    """

    def encode(self, script: bytes, width: int) -> bytes:
        n = len(script)
        if n < 0xFD and width <= 1:  # one-byte length: no VarInt object needed
            return bytes((n,)) + script
        return encode_varint(VarInt(n, width)) + script

    def decode(self, data: bytes, offset: int) -> tuple[bytes, int, int]:
        """Returns (script, stored length-varint width, bytes consumed)."""
        if offset < len(data) and data[offset] < 0xFD:  # one-byte length: no VarInt object needed
            n, width, used = data[offset], 1, 1
        else:
            v, used = decode_varint(data, offset)
            n, width = v.value, v.width
        start = offset + used
        _need(data, start, n, "script")
        return bytes(data[start : start + n]), width, used + n


IDENTITY_CODEC = IdentityScriptCodec()


def encode_witness_stacks(stacks: list, parts: list, codec) -> None:
    """Append each input's witness item count and items to ``parts``."""
    append = parts.append
    encode = codec.encode
    for stack in stacks:
        items = stack.items
        append(_varint_bytes(len(items), stack.count_width))
        widths = stack.item_widths
        if widths:
            for i, item in enumerate(items):
                append(encode(item, widths[i]))
        else:
            for item in items:
                append(encode(item, 0))


# The decoders below are the hot loop of every command, so they read
# one-byte varints and identity-codec script fields inline and check
# bounds without a call per field.  Each error they raise must be the
# one _need, decode_varint or IdentityScriptCodec.decode raises for the
# same bytes; tests/test_wire_reference.py checks both results and
# errors against a field-by-field reference decoder.

_PREVOUT = struct.Struct("<32sI")
_tuple_new = tuple.__new__  # builds an OutPoint from an unpacked (hash, index) pair


def _wide_varint(data: bytes, offset: int) -> tuple[int, int]:
    """(value, width) of a varint that is not one byte, or is cut off."""
    v, used = decode_varint(data, offset)
    return v.value, used


def decode_witness_stacks(data: bytes, offset: int, n_inputs: int, codec) -> tuple[list, int]:
    """Decode one witness stack per input; returns (stacks, offset after them)."""
    if type(data) is not bytes:
        data = bytes(data)
    end = len(data)
    identity = codec is IDENTITY_CODEC
    stacks = []
    for _ in range(n_inputs):
        if offset < end and (n_items := data[offset]) < 0xFD:
            count_width = 1
        else:
            n_items, count_width = _wide_varint(data, offset)
        offset += count_width
        items = []
        widths = []
        for _ in range(n_items):
            if identity:
                if offset < end and (n := data[offset]) < 0xFD:
                    width = 1
                else:
                    n, width = _wide_varint(data, offset)
                offset += width
                if offset + n > end:
                    raise _truncated(data, offset, n, "script")
                items.append(data[offset : offset + n])
                offset += n
            else:
                item, width, used = codec.decode(data, offset)
                offset += used
                items.append(item)
            widths.append(width)
        stacks.append(WitnessStack(items, count_width, widths))
    return stacks, offset


def decode_transaction(data: bytes, offset: int = 0, codec=IDENTITY_CODEC) -> tuple[Transaction, int]:
    """Decode one transaction starting at ``offset``; returns (tx, bytes consumed).

    Recognizes the segwit marker/flag pair (0x00 0x01) after the version
    word.  A leading 0x00 input count can only mean an attempted segwit
    encoding, since transactions with zero inputs are invalid.  Script
    fields are read through ``codec``.  ``data`` that is not ``bytes``
    is copied to ``bytes`` first, so decoded fields are always ``bytes``.
    """
    if type(data) is not bytes:
        data = bytes(data)
    end = len(data)
    start = offset
    identity = codec is IDENTITY_CODEC
    if offset + 4 > end:
        raise _truncated(data, offset, 4, "version")
    version = _U32.unpack_from(data, offset)[0]
    offset += 4

    if offset >= end:
        raise _truncated(data, offset, 1, "input count")
    has_witness = data[offset] == 0x00
    if has_witness:
        if offset + 2 > end:
            raise _truncated(data, offset + 1, 1, "witness flag")
        if data[offset + 1] != 0x01:
            raise DecodeError(
                f"marker 0x00 followed by flag 0x{data[offset + 1]:02x}, expected 0x01",
                offset=offset + 1,
                field="witness flag",
            )
        offset += 2

    if offset < end and (n_in := data[offset]) < 0xFD:
        n_in_width = 1
    else:
        n_in, n_in_width = _wide_varint(data, offset)
    offset += n_in_width
    if n_in == 0:
        raise DecodeError("transaction has zero inputs", offset=offset, field="input count")

    inputs = []
    for _ in range(n_in):
        if offset + 36 > end:
            raise _truncated(data, offset, 36, "previous output")
        prevout = _tuple_new(OutPoint, _PREVOUT.unpack_from(data, offset))
        offset += 36
        if identity:
            if offset < end and (n := data[offset]) < 0xFD:
                width = 1
            else:
                n, width = _wide_varint(data, offset)
            offset += width
            if offset + n > end:
                raise _truncated(data, offset, n, "script")
            script = data[offset : offset + n]
            offset += n
        else:
            script, width, used = codec.decode(data, offset)
            offset += used
        if offset + 4 > end:
            raise _truncated(data, offset, 4, "sequence")
        inputs.append(TxIn(prevout, script, _U32.unpack_from(data, offset)[0], width))
        offset += 4

    if offset < end and (n_out := data[offset]) < 0xFD:
        n_out_width = 1
    else:
        n_out, n_out_width = _wide_varint(data, offset)
    offset += n_out_width
    if n_out == 0:
        raise DecodeError("transaction has zero outputs", offset=offset, field="output count")

    outputs = []
    for _ in range(n_out):
        if offset + 8 > end:
            raise _truncated(data, offset, 8, "output value")
        value = _U64.unpack_from(data, offset)[0]
        if value > MAX_MONEY:
            raise DecodeError(
                f"output value {value} exceeds coin supply cap", offset=offset, field="output value"
            )
        offset += 8
        if identity:
            if offset < end and (n := data[offset]) < 0xFD:
                width = 1
            else:
                n, width = _wide_varint(data, offset)
            offset += width
            if offset + n > end:
                raise _truncated(data, offset, n, "script")
            script = data[offset : offset + n]
            offset += n
        else:
            script, width, used = codec.decode(data, offset)
            offset += used
        outputs.append(TxOut(value, script, width))

    witnesses = []
    witness_at = 0
    if has_witness:
        witness_at = offset - start
        witnesses, offset = decode_witness_stacks(data, offset, n_in, codec)

    if offset + 4 > end:
        raise _truncated(data, offset, 4, "lock time")
    tx = Transaction(
        version,
        inputs,
        outputs,
        _U32.unpack_from(data, offset)[0],
        has_witness,
        witnesses,
        n_in_width,
        n_out_width,
    )
    offset += 4
    if identity:
        tx.source = data[start:offset]
        tx.witness_at = witness_at
    return tx, offset - start


def _check_tx_invariants(tx: Transaction) -> None:
    if not tx.inputs:
        raise EncodeError("transaction has no inputs")
    if not tx.outputs:
        raise EncodeError("transaction has no outputs")
    if tx.has_witness_flag and len(tx.witnesses) != len(tx.inputs):
        raise EncodeError(
            f"witness stacks ({len(tx.witnesses)}) do not match inputs ({len(tx.inputs)})"
        )
    for out in tx.outputs:
        if not 0 <= out.value <= MAX_MONEY:
            raise EncodeError(f"output value {out.value} out of range")


def _encode_tx_body(tx: Transaction, parts: list[bytes], codec) -> None:
    append = parts.append
    encode = codec.encode
    append(_varint_bytes(len(tx.inputs), tx.input_count_width))
    for txin in tx.inputs:
        tx_hash, index = txin.previous_output
        append(tx_hash)
        append(_U32.pack(index))
        append(encode(txin.script, txin.script_len_width))
        append(_U32.pack(txin.sequence))
    append(_varint_bytes(len(tx.outputs), tx.output_count_width))
    for txout in tx.outputs:
        append(_U64.pack(txout.value))
        append(encode(txout.script, txout.script_len_width))


def _serialize(tx: Transaction, codec) -> tuple[bytes, int]:
    """Serialize a transaction from its fields; returns (bytes, witness offset or 0)."""
    _check_tx_invariants(tx)
    parts = [_U32.pack(tx.version)]
    if tx.has_witness_flag:
        parts.append(b"\x00\x01")
    _encode_tx_body(tx, parts, codec)
    witness_at = 0
    if tx.has_witness_flag:
        witness_at = sum(map(len, parts))
        encode_witness_stacks(tx.witnesses, parts, codec)
    parts.append(_U32.pack(tx.lock_time))
    return b"".join(parts), witness_at


def encode_transaction(tx: Transaction, codec=IDENTITY_CODEC) -> bytes:
    """Serialize a transaction, reproducing recorded varint widths bit-exactly.

    Script fields are written through ``codec``.  A transaction decoded
    through the identity codec encodes to its source bytes.
    """
    return encode_with_witness_at(tx, codec)[0]


def _legacy_preimage(raw: bytes, witness_at: int) -> bytes:
    """Witness-stripped form of wire bytes: version + body + lock_time."""
    if not witness_at:
        return raw
    return raw[:4] + raw[6:witness_at] + raw[-4:]


def encode_transaction_legacy(tx: Transaction) -> bytes:
    """Witness-stripped serialization, the preimage of the txid."""
    return _legacy_preimage(*encode_with_witness_at(tx))


def txid(tx: Transaction) -> bytes:
    """Transaction id: double SHA-256 of the witness-stripped serialization."""
    return dsha256(_legacy_preimage(*encode_with_witness_at(tx)))


def encode_with_witness_at(tx: Transaction, codec=IDENTITY_CODEC) -> tuple[bytes, int]:
    """:func:`encode_transaction` and the offset of the witness section in
    its bytes (0 when it has none)."""
    if tx.source is not None and codec is IDENTITY_CODEC:
        return tx.source, tx.witness_at
    return _serialize(tx, codec)


def encode_with_txid(tx: Transaction) -> tuple[bytes, bytes]:
    """(wire bytes, txid) of a transaction, serializing it at most once."""
    raw, witness_at = encode_with_witness_at(tx)
    return raw, dsha256(_legacy_preimage(raw, witness_at))


# ---------------------------------------------------------------------------
# Merkle tree


def merkle_levels(txids: list[bytes]) -> list[list[bytes]]:
    """All tree levels from the leaves up to the root.

    Pairing rule: concatenate adjacent nodes and double-SHA-256 them; a
    level of odd length pairs its last node with itself.
    """
    if not txids:
        raise ValueError("cannot build a Merkle tree over zero transactions")
    levels = [list(txids)]
    while len(levels[-1]) > 1:
        cur = levels[-1]
        nxt = []
        for i in range(0, len(cur), 2):
            left = cur[i]
            right = cur[i + 1] if i + 1 < len(cur) else cur[i]
            nxt.append(dsha256(left + right))
        levels.append(nxt)
    return levels


def merkle_root(txids: list[bytes]) -> bytes:
    return merkle_levels(txids)[-1][0]


# ---------------------------------------------------------------------------
# blocks and block files


@dataclass(frozen=True, slots=True)
class BlockHeader:
    version: int
    prev_block_hash: bytes
    merkle_root: bytes
    timestamp: int
    bits: int
    nonce: int

    def encode(self) -> bytes:
        return _HEADER.pack(
            self.version,
            self.prev_block_hash,
            self.merkle_root,
            self.timestamp,
            self.bits,
            self.nonce,
        )

    def block_hash(self) -> bytes:
        return dsha256(self.encode())


HEADER_SIZE = _HEADER.size  # 80


def decode_header(data: bytes, offset: int = 0) -> BlockHeader:
    _need(data, offset, HEADER_SIZE, "block header")
    version, prev, root, ts, bits, nonce = _HEADER.unpack_from(data, offset)
    return BlockHeader(version, prev, root, ts, bits, nonce)


@dataclass(slots=True)
class Block:
    header: BlockHeader
    transactions: list[Transaction]
    raw_size_bytes: int = 0
    tx_count_width: int = 0

    def block_hash(self) -> bytes:
        return self.header.block_hash()


def decode_block(data: bytes, codec=IDENTITY_CODEC) -> Block:
    """Decode one block body (header + transactions); rejects trailing bytes.

    Script fields are read through ``codec``.
    """
    if type(data) is not bytes:
        data = bytes(data)
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


def encode_block(block: Block, codec=IDENTITY_CODEC) -> bytes:
    """Serialize a block; script fields are written through ``codec``."""
    return join_block(block, [encode_transaction(tx, codec) for tx in block.transactions])


def join_block(block: Block, tx_bytes: list) -> bytes:
    """A block's bytes from its header and its already serialized transactions."""
    count = _varint_bytes(len(tx_bytes), block.tx_count_width)
    return b"".join([block.header.encode(), count, *tx_bytes])


def frame_block(block_bytes: bytes, magic: int = MAINNET_MAGIC) -> bytes:
    """Wrap an encoded block in the block-file framing: magic + LE length."""
    return struct.pack(">I", magic) + _U32.pack(len(block_bytes)) + block_bytes


def read_block_stream(source, magic: int = MAINNET_MAGIC):
    """Yield (Block, file_offset) for each frame in a block file.

    ``source`` is a binary file-like object positioned at a frame
    boundary.  Zero padding after the final frame (block files are
    preallocated) is skipped; any other framing problem raises.
    """
    want_magic = struct.pack(">I", magic)
    offset = source.tell() if source.seekable() else 0
    while True:
        frame_start = offset
        head = source.read(4)
        offset += len(head)
        if not head:
            return
        if head != want_magic:
            # tolerate a zero-padding run, but only if it extends to EOF
            if set(head) == {0}:
                while True:
                    chunk = source.read(4096)
                    if not chunk:
                        return
                    if set(chunk) != {0}:
                        bad_at = offset + min(i for i, b in enumerate(chunk) if b)
                        raise FramingError(
                            "non-zero bytes after zero padding", offset=bad_at, field="magic"
                        )
                    offset += len(chunk)
            raise FramingError(
                f"bad magic {head.hex()}, expected {want_magic.hex()}",
                offset=frame_start,
                field="magic",
            )
        size_bytes = source.read(4)
        offset += len(size_bytes)
        if len(size_bytes) < 4:
            raise TruncationError("frame length cut short", offset=frame_start, field="frame length")
        size = _U32.unpack(size_bytes)[0]
        body = source.read(size)
        offset += len(body)
        if len(body) < size:
            raise TruncationError(
                f"frame claims {size} bytes, file has {len(body)}",
                offset=frame_start,
                field="frame body",
            )
        yield decode_block(body), frame_start


def read_block_file(path, magic: int = MAINNET_MAGIC) -> list[Block]:
    """Convenience wrapper: decode every block of a file into a list."""
    with open(path, "rb") as fh:
        return [block for block, _ in read_block_stream(fh, magic)]
