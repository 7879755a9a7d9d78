"""Bit-exact codec for the Bitcoin on-disk block format.

Every decoder here is strict: malformed input raises instead of being
patched over, because all downstream byte accounting assumes exact
round-trips.  Non-canonical compact-size integers are legal on mainnet
disk files, so decoded structures remember the width each varint was
stored with and re-encode it unchanged (``encode(decode(b)) == b``).

Hashes are kept in wire order (as serialized).  Use :func:`hash_hex`
for the conventional reversed display form.
"""

from __future__ import annotations

import hashlib
import struct
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


def _need(data: bytes, offset: int, count: int, field_name: str) -> None:
    if offset + count > len(data):
        raise TruncationError(
            f"need {count} byte(s), have {len(data) - offset}",
            offset=offset,
            field=field_name,
        )


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


@dataclass(frozen=True)
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
    if isinstance(v, int):
        v = VarInt(v)
    width = v.encoded_width()
    if width == 1:
        if v.value >= 0xFD:
            raise EncodeError(f"value {v.value} does not fit a 1-byte varint")
        return bytes([v.value])
    if width == 3:
        if v.value > 0xFFFF:
            raise EncodeError(f"value {v.value} does not fit a 3-byte varint")
        return b"\xfd" + _U16.pack(v.value)
    if width == 5:
        if v.value > 0xFFFFFFFF:
            raise EncodeError(f"value {v.value} does not fit a 5-byte varint")
        return b"\xfe" + _U32.pack(v.value)
    if width == 9:
        return b"\xff" + _U64.pack(v.value)
    raise EncodeError(f"invalid varint width {width}")


# ---------------------------------------------------------------------------
# transaction model


@dataclass(frozen=True)
class OutPoint:
    """(txid, output index) pair naming one transaction output."""

    tx_hash: bytes
    index: int

    def is_coinbase(self) -> bool:
        return self.tx_hash == COINBASE_PREVOUT_HASH and self.index == COINBASE_PREVOUT_INDEX


@dataclass
class TxIn:
    previous_output: OutPoint
    script: bytes
    sequence: int
    # stored width of the script-length varint; 0 = canonical
    script_len_width: int = 0


@dataclass
class TxOut:
    value: int
    script: bytes
    script_len_width: int = 0


@dataclass
class WitnessStack:
    """The witness items of one input; empty list for inputs without witness."""

    items: list[bytes] = field(default_factory=list)
    count_width: int = 0
    item_widths: list[int] = field(default_factory=list)

    def _width_for(self, i: int) -> int:
        return self.item_widths[i] if self.item_widths else 0


@dataclass
class Transaction:
    version: int
    inputs: list[TxIn]
    outputs: list[TxOut]
    lock_time: int
    has_witness_flag: bool = False
    witnesses: list[WitnessStack] = field(default_factory=list)
    input_count_width: int = 0
    output_count_width: int = 0

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
    for stack in stacks:
        parts.append(encode_varint(VarInt(len(stack.items), stack.count_width)))
        for i, item in enumerate(stack.items):
            parts.append(codec.encode(item, stack._width_for(i)))


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
    if has_witness:
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
    parts.append(encode_varint(VarInt(len(tx.inputs), tx.input_count_width)))
    for txin in tx.inputs:
        parts.append(txin.previous_output.tx_hash)
        parts.append(_U32.pack(txin.previous_output.index))
        parts.append(codec.encode(txin.script, txin.script_len_width))
        parts.append(_U32.pack(txin.sequence))
    parts.append(encode_varint(VarInt(len(tx.outputs), tx.output_count_width)))
    for txout in tx.outputs:
        parts.append(_U64.pack(txout.value))
        parts.append(codec.encode(txout.script, txout.script_len_width))


def encode_transaction(tx: Transaction, codec=IDENTITY_CODEC) -> bytes:
    """Serialize a transaction, reproducing recorded varint widths bit-exactly.

    Script fields are written through ``codec``.
    """
    _check_tx_invariants(tx)
    parts = [_U32.pack(tx.version)]
    if tx.has_witness_flag:
        parts.append(b"\x00\x01")
    _encode_tx_body(tx, parts, codec)
    if tx.has_witness_flag:
        encode_witness_stacks(tx.witnesses, parts, codec)
    parts.append(_U32.pack(tx.lock_time))
    return b"".join(parts)


def encode_transaction_legacy(tx: Transaction) -> bytes:
    """Witness-stripped serialization, the preimage of the txid."""
    _check_tx_invariants(tx)
    parts = [_U32.pack(tx.version)]
    _encode_tx_body(tx, parts, IDENTITY_CODEC)
    parts.append(_U32.pack(tx.lock_time))
    return b"".join(parts)


def txid(tx: Transaction) -> bytes:
    """Transaction id: double SHA-256 of the witness-stripped serialization."""
    return dsha256(encode_transaction_legacy(tx))


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


@dataclass(frozen=True)
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


@dataclass
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
    parts = [block.header.encode(), encode_varint(VarInt(len(block.transactions), block.tx_count_width))]
    for tx in block.transactions:
        parts.append(encode_transaction(tx, codec))
    return b"".join(parts)


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
        block = decode_block(body)
        block.raw_size_bytes = size
        yield block, frame_start


def read_block_file(path, magic: int = MAINNET_MAGIC) -> list[Block]:
    """Convenience wrapper: decode every block of a file into a list."""
    with open(path, "rb") as fh:
        return [block for block, _ in read_block_stream(fh, magic)]
