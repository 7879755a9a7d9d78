"""Field-by-field reference for the SLACK transaction codec.

These are the straightforward ``slack_encode`` and ``slack_decode_tx``,
one helper call per field, that ``ledgerpack.strategies`` used before its
codec was inlined.  ``tests/test_slack_reference.py`` requires the
``strategies`` codec to produce the same records and ``SlackStats``,
decode to equal transactions, and raise the same errors (class, message,
offset and field) on every input.  Do not edit these functions to follow
changes in ``strategies``; they are the fixed point the codec is
compared with.
"""

import struct

from ledgerpack.errors import DecodeError, TruncationError
from ledgerpack.wire import (
    _U32,
    IDENTITY_CODEC,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    decode_transaction,
    decode_witness_stacks,
    encode_transaction,
    encode_witness_stacks,
)

from reference_wire import VarInt, decode_varint, encode_varint

_U16 = struct.Struct("<H")

SEQUENCE_DEFAULT = 0xFFFFFFFF
COMMON_VERSIONS = (1, 2)

_TAG_PASSTHROUGH = 0x00
_TAG_COMPACT = 0x01

_PREVOUT_COINBASE = 0
_PREVOUT_LOCAL = 1
_PREVOUT_VERBATIM = 2


def _as_locate(locator):
    """Accept a ChainIndex, a dict, or a callable txid -> (height, index)."""
    if locator is None:
        return lambda _h: None
    if callable(locator):
        return locator
    table = getattr(locator, "locator", locator)
    return table.get


def _as_resolve(resolver):
    """Accept a ChainIndex, a dict keyed by (height, index), or a callable."""
    if callable(resolver) and not hasattr(resolver, "txid_at"):
        return resolver
    if hasattr(resolver, "txid_at"):
        return resolver.txid_at
    return lambda h, i: resolver.get((h, i))


def slack_encode(tx: Transaction, locator=None, stats=None, codec=IDENTITY_CODEC) -> bytes:
    """Compact, lossless re-encoding of one transaction.

    Returns either 0x00 + stored serialization (when squeezing does not
    pay) or 0x01 + the compact form.  ``locator`` resolves prevout
    txids to confirmed (height, tx_index) positions; without it every
    non-coinbase prevout is stored verbatim.
    """
    locate = _as_locate(locator)
    plain = encode_transaction(tx, codec)

    n_in = len(tx.inputs)
    version_common = tx.version in COMMON_VERSIONS
    # bit j of the bitmap is bit j of this integer, written little-endian
    bits = (
        version_common
        | (version_common and tx.version == COMMON_VERSIONS[1]) << 1
        | tx.has_witness_flag << 2
        | (tx.lock_time != 0) << 3
    )

    input_parts = []
    n_local = n_coinbase = n_verbatim = n_bigindex = n_seqesc = 0
    for i, txin in enumerate(tx.inputs):
        base = 4 + 3 * i
        prevout = txin.previous_output
        part = b""
        if prevout.is_coinbase():
            kind = _PREVOUT_COINBASE
            n_coinbase += 1
        else:
            pos = locate(prevout.tx_hash)
            if pos is not None and pos[1] > 0xFFFF:
                n_bigindex += 1
                pos = None
            if pos is not None:
                kind = _PREVOUT_LOCAL
                part = _U32.pack(pos[0]) + _U16.pack(pos[1]) + encode_varint(prevout.index)
                n_local += 1
            else:
                kind = _PREVOUT_VERBATIM
                part = prevout.tx_hash + _U32.pack(prevout.index)
                n_verbatim += 1
        seq_escape = txin.sequence != SEQUENCE_DEFAULT
        bits |= (kind | seq_escape << 2) << base
        if seq_escape:
            n_seqesc += 1
        part += codec.encode(txin.script, txin.script_len_width)
        if seq_escape:
            part += _U32.pack(txin.sequence)
        input_parts.append(part)

    parts = [
        encode_varint(VarInt(n_in, tx.input_count_width)),
        encode_varint(VarInt(len(tx.outputs), tx.output_count_width)),
        bits.to_bytes((4 + 3 * n_in + 7) // 8, "little"),
    ]
    if not version_common:
        parts.append(_U32.pack(tx.version))
    if tx.lock_time != 0:
        parts.append(_U32.pack(tx.lock_time))
    parts.extend(input_parts)
    for txout in tx.outputs:
        parts.append(encode_varint(txout.value))
        parts.append(codec.encode(txout.script, txout.script_len_width))
    if tx.has_witness_flag:
        encode_witness_stacks(tx.witnesses, parts, codec)
    compact = b"".join(parts)

    if stats is not None:
        stats.txs += 1
        stats.bytes_in += len(plain) if codec is IDENTITY_CODEC else len(encode_transaction(tx))
    if len(compact) < len(plain):
        if stats is not None:
            stats.compact += 1
            stats.bytes_out += 1 + len(compact)
            if not version_common:
                stats.version_escapes += 1
            if tx.lock_time != 0:
                stats.locktime_escapes += 1
            stats.sequence_escapes += n_seqesc
            stats.prevout_local += n_local
            stats.prevout_coinbase += n_coinbase
            stats.prevout_verbatim += n_verbatim
            stats.prevout_bigindex_fallback += n_bigindex
        return bytes([_TAG_COMPACT]) + compact
    if stats is not None:
        stats.passthrough += 1
        stats.bytes_out += 1 + len(plain)
    return bytes([_TAG_PASSTHROUGH]) + plain


def slack_decode_tx(data: bytes, resolver=None, offset: int = 0, codec=IDENTITY_CODEC) -> tuple[Transaction, int]:
    """Decode one :func:`slack_encode` record; returns (transaction, bytes consumed).

    ``resolver`` maps (height, tx_index) back to a txid; an unresolvable
    position means the record is unreadable (store corruption or a
    locator that does not cover the reference).
    """
    start = offset
    if offset >= len(data):
        raise TruncationError("empty compact record", offset=offset, field="slack tag")
    tag = data[offset]
    offset += 1
    if tag == _TAG_PASSTHROUGH:
        tx, used = decode_transaction(data, offset, codec)
        return tx, 1 + used
    if tag != _TAG_COMPACT:
        raise DecodeError(f"unknown compact tag 0x{tag:02x}", offset=start, field="slack tag")
    resolve = _as_resolve(resolver) if resolver is not None else None

    def need(count, what):
        if offset + count > len(data):
            raise TruncationError(f"need {count} byte(s)", offset=offset, field=what)

    n_in_v, used = decode_varint(data, offset)
    offset += used
    n_out_v, used = decode_varint(data, offset)
    offset += used
    n_in = n_in_v.value
    bitmap_len = (4 + 3 * n_in + 7) // 8
    need(bitmap_len, "slack bitmap")
    bitmap = data[offset : offset + bitmap_len]
    offset += bitmap_len

    def bit(j):
        return (bitmap[j >> 3] >> (j & 7)) & 1

    if bit(0):
        version = COMMON_VERSIONS[1] if bit(1) else COMMON_VERSIONS[0]
    else:
        need(4, "version escape")
        version = _U32.unpack_from(data, offset)[0]
        offset += 4
    has_witness = bool(bit(2))
    lock_time = 0
    if bit(3):
        need(4, "lock time escape")
        lock_time = _U32.unpack_from(data, offset)[0]
        offset += 4

    inputs = []
    for i in range(n_in):
        base = 4 + 3 * i
        kind = bit(base) | (bit(base + 1) << 1)
        if kind == _PREVOUT_COINBASE:
            prevout = OutPoint(bytes(32), 0xFFFFFFFF)
        elif kind == _PREVOUT_LOCAL:
            need(6, "local prevout")
            height = _U32.unpack_from(data, offset)[0]
            tx_index = _U16.unpack_from(data, offset + 4)[0]
            offset += 6
            out_index, used = decode_varint(data, offset)
            offset += used
            if resolve is None:
                raise DecodeError(
                    f"input {i} references ({height},{tx_index}) but no resolver was given"
                )
            tx_hash = resolve(height, tx_index)
            if tx_hash is None:
                raise DecodeError(
                    f"input {i} references unknown position ({height},{tx_index})",
                    field="local prevout",
                )
            prevout = OutPoint(tx_hash, out_index.value)
        elif kind == _PREVOUT_VERBATIM:
            need(36, "verbatim prevout")
            prevout = OutPoint(
                bytes(data[offset : offset + 32]), _U32.unpack_from(data, offset + 32)[0]
            )
            offset += 36
        else:
            raise DecodeError(f"invalid prevout kind {kind} for input {i}", field="slack bitmap")
        script, width, consumed = codec.decode(data, offset)
        offset += consumed
        sequence = SEQUENCE_DEFAULT
        if bit(base + 2):
            need(4, "sequence escape")
            sequence = _U32.unpack_from(data, offset)[0]
            offset += 4
        inputs.append(TxIn(prevout, script, sequence, script_len_width=width))

    outputs = []
    for _ in range(n_out_v.value):
        value, used = decode_varint(data, offset)
        offset += used
        script, width, consumed = codec.decode(data, offset)
        offset += consumed
        outputs.append(TxOut(value.value, script, script_len_width=width))

    witnesses = []
    if has_witness:
        witnesses, offset = decode_witness_stacks(data, offset, n_in, codec)

    tx = Transaction(
        version,
        inputs,
        outputs,
        lock_time,
        has_witness_flag=has_witness,
        witnesses=witnesses,
        input_count_width=n_in_v.width,
        output_count_width=n_out_v.width,
    )
    return tx, offset - start
