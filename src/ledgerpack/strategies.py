"""Local storage-reduction strategies.

Three independent levers plus an optional script dedup:

- PRUNE drops block bodies older than a lifespan threshold, keeping the
  hash spine.
- MINIMIZE keeps, per block, only transactions that still hold unspent
  outputs, together with the Merkle co-path nodes needed to verify them
  against the header root.
- SLACK re-encodes transactions so fixed-width fields holding their
  dominant values cost one presence bit, with byte escapes for
  everything else; it is lossless to the bit.
- Script dedup moves repeated scripts into a key-value store behind
  8-byte hash references.

Everything here is pure; file layout lives in `store`.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass, field, fields

from .analytics import LifespanCdf, percentile, script_multisets
from .errors import DecodeError, QuantileUnreachableError, StrategyError, TruncationError
from .wire import (
    _ONE_BYTE,
    _PREVOUT,
    _U16,
    _U32,
    _U64,
    COINBASE_PREVOUT_HASH,
    COINBASE_PREVOUT_INDEX,
    IDENTITY_CODEC,
    MAX_MONEY,
    Block,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    VarInt,
    _truncated,
    _tuple_new,
    _varint_bytes,
    _wide_varint,
    decode_transaction,
    decode_varint,
    decode_witness_stacks,
    dsha256,
    encode_block,
    encode_transaction,
    encode_varint,
    encode_with_witness_at,
    merkle_levels,
    txid,
)

SEQUENCE_DEFAULT = 0xFFFFFFFF
COMMON_VERSIONS = (1, 2)
REF_LEN = 8


def reduction_percent(baseline_bytes: float, retained_bytes: float) -> float:
    if baseline_bytes <= 0:
        return 0.0
    return 100.0 * (1.0 - retained_bytes / baseline_bytes)


# ---------------------------------------------------------------------------
# PRUNE


@dataclass(frozen=True)
class PruneConfig:
    """Threshold selection: an explicit block count or a lifespan quantile."""

    mode: str  # "blocks" | "quantile"
    blocks: int = 0
    quantile: float = 0.0

    def __post_init__(self):
        if self.mode == "blocks":
            if self.blocks < 1:
                raise StrategyError(f"prune threshold must be >= 1 block, got {self.blocks}")
        elif self.mode == "quantile":
            if not 0.0 < self.quantile <= 1.0:
                raise StrategyError(f"prune quantile must be in (0,1], got {self.quantile}")
        else:
            raise StrategyError(f"unknown prune mode {self.mode!r}")

    def resolve(self, cdf: LifespanCdf | None) -> int:
        if self.mode == "blocks":
            return self.blocks
        if cdf is None:
            raise StrategyError("quantile prune mode needs a lifespan CDF")
        return choose_prune_threshold(cdf, self.quantile)


def choose_prune_threshold(cdf: LifespanCdf, p: float) -> int:
    """Lifespan L such that a fraction >= p of spends happen within L blocks.

    Unreachable when too many UTXOs are dormant (CDF never reaches p);
    that is an input property, so the error suggests the explicit mode.
    """
    result = percentile(cdf, p)
    if result is None:
        reach = len(cdf.lifespans) / cdf.total if cdf.total else 0.0
        raise QuantileUnreachableError(
            f"lifespan quantile {p} is unreachable (CDF tops out at {reach:.4f} "
            f"with {cdf.unspent_count} dormant UTXOs); use an explicit --prune-blocks threshold"
        )
    return max(1, result)


def prune_keep_from(tip: int, threshold: int) -> int:
    """First height whose body survives pruning; 0 keeps everything."""
    if threshold < 0:
        raise StrategyError("prune threshold must be nonnegative")
    if threshold > tip:
        return 0
    return tip - threshold


# ---------------------------------------------------------------------------
# MINIMIZE


@dataclass
class MinimizedBlock:
    """A block reduced to its unspent-carrying transactions plus proof nodes.

    mode is one of "hash_only" (nothing retained beyond the spine hash),
    "copath" (kept txs + Merkle co-path union), or "full" (the co-path
    form would not have been smaller, keep the raw block).
    """

    block_hash: bytes
    merkle_root: bytes
    mode: str
    n_leaves: int
    kept: list = field(default_factory=list)  # (position, raw tx bytes), ascending
    nodes: dict = field(default_factory=dict)  # (level, index) -> 32-byte hash
    raw_bytes: bytes = b""  # full mode only
    retained_bytes: int = 0


def _copath_steps(n_leaves: int, position: int):
    """Walk from a leaf up to just below the root.

    Yields (level, index, sibling index) per level, with level 0 = leaves.
    The sibling is None where it lies beyond the end of an odd level:
    that is the duplicated last node, which a verifier re-derives.
    """
    level, size = 0, n_leaves
    while size > 1:
        sib = position ^ 1
        yield level, position, (sib if sib < size else None)
        level, position, size = level + 1, position // 2, (size + 1) // 2


def copath_coordinates(n_leaves: int, positions) -> set:
    """Union of Merkle co-path node coordinates for the given leaves.

    Coordinates are (level, index) with level 0 = leaves.  A sibling
    beyond the end of an odd level is the duplicated last node, which a
    verifier re-derives, so it never appears in the set.
    """
    return {
        (level, sib)
        for pos in positions
        for level, _, sib in _copath_steps(n_leaves, pos)
        if sib is not None
    }


def copath_nodes(ids: list, positions) -> dict:
    """(level, index) -> hash for every co-path node of the given leaves."""
    levels = merkle_levels(ids)
    return {(lv, ix): levels[lv][ix] for lv, ix in copath_coordinates(len(ids), positions)}


def serialize_kept(n_leaves: int, kept) -> bytes:
    """Co-path record head: leaf count, then the kept txs by position."""
    parts = [encode_varint(n_leaves), encode_varint(len(kept))]
    for pos, tx_bytes in kept:
        parts.append(encode_varint(pos))
        parts.append(encode_varint(len(tx_bytes)))
        parts.append(tx_bytes)
    return b"".join(parts)


def serialize_copath(nodes: dict) -> bytes:
    """Co-path record tail: node count, then the nodes by (level, index)."""
    parts = [encode_varint(len(nodes))]
    for (level, index) in sorted(nodes):
        parts.append(encode_varint(level))
        parts.append(encode_varint(index))
        parts.append(nodes[(level, index)])
    return b"".join(parts)


def serialize_minimized(mb: MinimizedBlock) -> bytes:
    """Co-path record payload: leaf count, kept txs by position, nodes."""
    if mb.mode != "copath":
        raise StrategyError(f"only copath mode serializes this way, not {mb.mode!r}")
    return serialize_kept(mb.n_leaves, mb.kept) + serialize_copath(mb.nodes)


def deserialize_minimized(payload: bytes, block_hash: bytes, merkle_root: bytes) -> MinimizedBlock:
    offset = 0

    def take_varint():
        nonlocal offset
        v, used = decode_varint(payload, offset)
        offset += used
        return v.value

    n_leaves = take_varint()
    k = take_varint()
    kept = []
    last = -1
    for _ in range(k):
        at = offset
        pos = take_varint()
        # the writer keeps positions in ascending order, each once
        if not last < pos < n_leaves:
            raise DecodeError(
                f"kept position {pos} does not ascend within {n_leaves} leaves",
                offset=at,
                field="minimized tx",
            )
        last = pos
        ln = take_varint()
        if offset + ln > len(payload):
            raise TruncationError("kept tx cut short", offset=offset, field="minimized tx")
        kept.append((pos, payload[offset : offset + ln]))
        offset += ln
    m = take_varint()
    nodes = {}
    for _ in range(m):
        level = take_varint()
        index = take_varint()
        if offset + 32 > len(payload):
            raise TruncationError("co-path node cut short", offset=offset, field="minimized node")
        nodes[(level, index)] = payload[offset : offset + 32]
        offset += 32
    if offset != len(payload):
        raise DecodeError("trailing bytes in minimized record", offset=offset)
    return MinimizedBlock(
        block_hash, merkle_root, "copath", n_leaves, kept, nodes, retained_bytes=len(payload)
    )


def minimize_block(block: Block, unspent: list, raw_block_bytes: bytes | None = None) -> MinimizedBlock:
    """Reduce a block to the transactions flagged as still carrying UTXOs.

    Picks "copath" only when its exact serialized payload is smaller
    than the raw block; a block with no flagged txs keeps nothing but
    its spine hash.
    """
    txs = block.transactions
    if len(unspent) != len(txs):
        raise StrategyError(
            f"{len(unspent)} unspent flags for {len(txs)} transactions"
        )
    block_hash = block.block_hash()
    root = block.header.merkle_root
    n = len(txs)
    if raw_block_bytes is None:
        raw_block_bytes = encode_block(block)

    positions = [i for i, keep in enumerate(unspent) if keep]
    if not positions:
        return MinimizedBlock(block_hash, root, "hash_only", n, retained_bytes=32)

    nodes = copath_nodes([txid(t) for t in txs], positions)
    kept = [(pos, encode_transaction(txs[pos])) for pos in positions]
    mb = MinimizedBlock(block_hash, root, "copath", n, kept, nodes)
    payload = serialize_minimized(mb)
    if len(payload) < len(raw_block_bytes):
        mb.retained_bytes = len(payload)
        return mb
    return MinimizedBlock(
        block_hash, root, "full", n, raw_bytes=raw_block_bytes, retained_bytes=len(raw_block_bytes)
    )


def verify_tx_in_minimized(mb: MinimizedBlock, tx_position: int) -> bool:
    """Recompute the Merkle root from one kept tx and the stored nodes."""
    if mb.mode != "copath":
        raise StrategyError(f"verification needs copath mode, block is {mb.mode!r}")
    raw = None
    for pos, tx_bytes in mb.kept:
        if pos == tx_position:
            raw = tx_bytes
            break
    if raw is None:
        raise StrategyError(f"transaction position {tx_position} is not kept in this block")
    try:
        tx, used = decode_transaction(raw)
        if used != len(raw):
            return False
    except DecodeError:
        return False
    return verify_leaf_in_minimized(mb, tx_position, txid(tx))


def verify_leaf_in_minimized(mb: MinimizedBlock, position: int, leaf: bytes) -> bool:
    """Hash a leaf (txid) up its co-path to the root and compare with the header's."""
    if position >= mb.n_leaves:
        return False
    h = leaf
    for level, i, sib in _copath_steps(mb.n_leaves, position):
        sibling = h if sib is None else mb.nodes.get((level, sib))
        if sibling is None:
            return False
        h = dsha256(h + sibling if i % 2 == 0 else sibling + h)
    return h == mb.merkle_root


# ---------------------------------------------------------------------------
# script field codec (dedup plumbing)

_TOKEN_INLINE = 0
_TOKEN_REF_WIDTHS = {1: 0, 2: 3, 3: 5, 4: 9}  # token -> stored varint width (0 = canonical)
_WIDTH_TOKENS = {0: 1, 1: 1, 3: 2, 5: 3, 9: 4}
_WIDTH_TAGS = {width: bytes((token,)) for width, token in _WIDTH_TOKENS.items()}
_INLINE_ONE_BYTE = [bytes((_TOKEN_INLINE, n)) for n in range(0xFD)]


def script_ref(script: bytes) -> bytes:
    return hashlib.sha256(script).digest()[:REF_LEN]


class RefScriptCodec:
    """Token framing: inline scripts carry a 1-byte tag, deduplicated
    scripts become a tag + 8-byte hash reference.

    The tag also records the original length-varint width so decoding
    reproduces non-canonical encodings bit-exactly.  A rewritten script's
    reference is read from ``kvs`` (reference -> script), not hashed again.
    """

    def __init__(self, rewrite: set, kvs: dict):
        self.kvs = kvs
        self._refs = {script: ref for ref, script in kvs.items() if script in rewrite}

    def encode(self, script: bytes, width: int) -> bytes:
        ref = self._refs.get(script)
        if ref is not None:
            return _WIDTH_TAGS[width] + ref
        n = len(script)
        if n < 0xFD and width <= 1:  # one-byte length: no VarInt object needed
            return _INLINE_ONE_BYTE[n] + script
        return b"\x00" + IDENTITY_CODEC.encode(script, width)

    def decode(self, data: bytes, offset: int) -> tuple[bytes, int, int]:
        if offset >= len(data):
            raise TruncationError("script token missing", offset=offset, field="script token")
        token = data[offset]
        if token == _TOKEN_INLINE:
            script, width, used = IDENTITY_CODEC.decode(data, offset + 1)
            return script, width, 1 + used
        if token not in _TOKEN_REF_WIDTHS:
            raise DecodeError(f"unknown script token {token}", offset=offset, field="script token")
        if offset + 1 + REF_LEN > len(data):
            raise TruncationError("script reference cut short", offset=offset, field="script ref")
        ref = bytes(data[offset + 1 : offset + 1 + REF_LEN])
        script = self.kvs.get(ref)
        if script is None:
            raise DecodeError(f"script reference {ref.hex()} not in KVS", offset=offset)
        return script, _TOKEN_REF_WIDTHS[token], 1 + REF_LEN


# A stored transaction is the wire layout with a script codec.
encode_stored_tx = encode_transaction
decode_stored_tx = decode_transaction


# ---------------------------------------------------------------------------
# SLACK

_TAG_PASSTHROUGH = 0x00
_TAG_COMPACT = 0x01

_PREVOUT_COINBASE = 0
_PREVOUT_LOCAL = 1
_PREVOUT_VERBATIM = 2


@dataclass
class SlackStats:
    txs: int = 0
    passthrough: int = 0
    compact: int = 0
    version_escapes: int = 0
    locktime_escapes: int = 0
    sequence_escapes: int = 0
    prevout_coinbase: int = 0
    prevout_local: int = 0
    prevout_verbatim: int = 0
    prevout_bigindex_fallback: int = 0
    bytes_in: int = 0
    bytes_out: int = 0

    def count(self, tally) -> None:
        """Add a tally: one number per field, in field order."""
        for name, n in zip(_STAT_NAMES, tally):
            setattr(self, name, getattr(self, name) + n)


_STAT_NAMES = tuple(f.name for f in fields(SlackStats))


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


# The codec below runs once per stored tx in every strategy model and
# once per compact tx on every read, so, like the wire decoders, it
# writes and reads one-byte varints and fixed fields inline, and it
# copies the stored form's witness section as one slice.  Its records,
# SlackStats and errors must be the ones the field-by-field codec gives:
# tests/test_slack_reference.py compares the two over seeded corpora,
# truncations and byte flips, and tests/test_slack_restore.py checks the
# wire bytes the reader rebuilds.

_TAG_PASSTHROUGH_BYTE = bytes((_TAG_PASSTHROUGH,))
_TAG_COMPACT_BYTE = bytes((_TAG_COMPACT,))
_COINBASE_PREVOUT = OutPoint(COINBASE_PREVOUT_HASH, COINBASE_PREVOUT_INDEX)
_COINBASE_PREVOUT_BYTES = COINBASE_PREVOUT_HASH + _U32.pack(COINBASE_PREVOUT_INDEX)
_SEQUENCE_DEFAULT_BYTES = _U32.pack(SEQUENCE_DEFAULT)
_MARKER = b"\x00\x01"  # segwit marker and flag
_LOCAL = struct.Struct("<IH")
_LOCAL_ONE_BYTE = struct.Struct("<IHB")  # local prevout with a one-byte output index
_VARINT_3 = struct.Struct("<BH")
_VARINT_5 = struct.Struct("<BI")
_VARINT_9 = struct.Struct("<BQ")


def _short(count: int, offset: int, what: str) -> TruncationError:
    return TruncationError(f"need {count} byte(s)", offset=offset, field=what)


def slack_record(tx: Transaction, stored: bytes, witness_at: int, locate, codec=IDENTITY_CODEC) -> tuple[bytes, tuple]:
    """The :func:`slack_encode` record of ``tx`` and its tally.

    ``stored, witness_at`` must be ``encode_with_witness_at(tx, codec)``:
    the passthrough form, whose witness section the compact form copies.
    A caller that needs the stored form for other records too passes the
    same bytes.  ``locate`` maps a prevout txid to a (height, tx_index)
    position or None.  The tally holds what the record adds to a
    :class:`SlackStats`, one number per field in field order.
    """
    identity = codec is IDENTITY_CODEC
    bytes_in = len(stored) if identity else len(encode_transaction(tx))
    inputs = tx.inputs
    n_in = len(inputs)
    outputs = tx.outputs
    version = tx.version
    lock_time = tx.lock_time
    version_common = version in COMMON_VERSIONS
    parts = [
        _TAG_COMPACT_BYTE,
        _varint_bytes(n_in, tx.input_count_width),
        _varint_bytes(len(outputs), tx.output_count_width),
        None,  # the bitmap, once the inputs have set their bits
    ]
    if not version_common:
        parts.append(_U32.pack(version))
    if lock_time:
        parts.append(_U32.pack(lock_time))
    append = parts.append

    # bit j of the bitmap is bit j of this integer, written little-endian
    bits = (
        version_common
        | (version == COMMON_VERSIONS[1]) << 1
        | tx.has_witness_flag << 2
        | (lock_time != 0) << 3
    )
    shift = 4
    n_local = n_coinbase = n_verbatim = n_bigindex = n_seqesc = 0
    for txin in inputs:
        tx_hash, index = txin.previous_output
        if index == COINBASE_PREVOUT_INDEX and tx_hash == COINBASE_PREVOUT_HASH:
            kind = _PREVOUT_COINBASE
            n_coinbase += 1
        else:
            pos = locate(tx_hash)
            if pos is not None and pos[1] > 0xFFFF:
                n_bigindex += 1
                pos = None
            if pos is None:
                kind = _PREVOUT_VERBATIM
                append(tx_hash + _U32.pack(index))
                n_verbatim += 1
            else:
                kind = _PREVOUT_LOCAL
                if index < 0xFD:
                    append(_LOCAL_ONE_BYTE.pack(pos[0], pos[1], index))
                else:
                    append(_LOCAL.pack(pos[0], pos[1]) + encode_varint(index))
                n_local += 1
        script = txin.script
        if identity:
            n = len(script)
            width = txin.script_len_width
            append(_ONE_BYTE[n] if n < 0xFD and width <= 1 else encode_varint(VarInt(n, width)))
            append(script)
        else:
            append(codec.encode(script, txin.script_len_width))
        if txin.sequence != SEQUENCE_DEFAULT:
            kind |= 4
            append(_U32.pack(txin.sequence))
            n_seqesc += 1
        bits |= kind << shift
        shift += 3
    parts[3] = bits.to_bytes((4 + 3 * n_in + 7) // 8, "little")

    for txout in outputs:
        value = txout.value
        if value < 0xFD:
            append(_ONE_BYTE[value])
        elif value <= 0xFFFF:
            append(_VARINT_3.pack(0xFD, value))
        elif value <= 0xFFFFFFFF:
            append(_VARINT_5.pack(0xFE, value))
        else:
            append(_VARINT_9.pack(0xFF, value))
        script = txout.script
        if identity:
            n = len(script)
            width = txout.script_len_width
            append(_ONE_BYTE[n] if n < 0xFD and width <= 1 else encode_varint(VarInt(n, width)))
            append(script)
        else:
            append(codec.encode(script, txout.script_len_width))
    if tx.has_witness_flag:
        append(stored[witness_at:-4])  # both forms write the witness section alike

    record = b"".join(parts)
    if len(record) <= len(stored):  # the compact form without its tag is shorter
        tally = (
            1, 0, 1, int(not version_common), int(lock_time != 0), n_seqesc,
            n_coinbase, n_local, n_verbatim, n_bigindex, bytes_in, len(record),
        )  # fmt: skip
        return record, tally
    return _TAG_PASSTHROUGH_BYTE + stored, (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, bytes_in, 1 + len(stored))


def slack_encode(tx: Transaction, locator=None, stats: SlackStats | None = None, codec=IDENTITY_CODEC) -> bytes:
    """Compact, lossless re-encoding of one transaction.

    Returns either 0x00 + stored serialization (when squeezing does not
    pay) or 0x01 + the compact form.  ``locator`` resolves prevout
    txids to confirmed (height, tx_index) positions; without it every
    non-coinbase prevout is stored verbatim.
    """
    locate = _as_locate(locator)
    record, tally = slack_record(tx, *encode_with_witness_at(tx, codec), locate, codec)
    if stats is not None:
        stats.count(tally)
    return record


def slack_decode(data: bytes, resolver=None, offset: int = 0, codec=IDENTITY_CODEC) -> tuple[bytes, int]:
    """Inverse of :func:`slack_encode`: (original transaction bytes, bytes consumed)."""
    tx, used = slack_restore_tx(data, resolver, offset, codec)
    return encode_transaction(tx), used


def slack_decode_tx(data: bytes, resolver=None, offset: int = 0, codec=IDENTITY_CODEC) -> tuple[Transaction, int]:
    """Decode one :func:`slack_encode` record; returns (transaction, bytes consumed).

    ``resolver`` maps (height, tx_index) back to a txid; an unresolvable
    position means the record is unreadable (store corruption or a
    locator that does not cover the reference).  A compact record's
    transaction has no source bytes: it is encoded from its fields.
    """
    return _slack_decode(data, resolver, offset, codec, False)


def slack_restore_tx(data: bytes, resolver=None, offset: int = 0, codec=IDENTITY_CODEC) -> tuple[Transaction, int]:
    """:func:`slack_decode_tx` for a reader that needs the wire bytes too.

    Through the identity codec a compact record's transaction keeps the
    wire bytes rebuilt while decoding as its ``source``, as
    :func:`decode_transaction` keeps the bytes it read, so encoding it
    and its txid slice them.  A transaction whose fields cannot be
    encoded (no inputs or outputs, a prevout index or an output value out
    of range) keeps none, so encoding it raises as for a built one.
    """
    return _slack_decode(data, resolver, offset, codec, True)


def _slack_decode(data, resolver, offset: int, codec, keep_source: bool) -> tuple[Transaction, int]:
    """The decoder of both: ``keep_source`` keeps the rebuilt wire bytes."""
    if type(data) is not bytes:
        data = bytes(data)
    end = len(data)
    start = offset
    if offset >= end:
        raise TruncationError("empty compact record", offset=offset, field="slack tag")
    tag = data[offset]
    offset += 1
    if tag == _TAG_PASSTHROUGH:
        tx, used = decode_transaction(data, offset, codec)
        return tx, 1 + used
    if tag != _TAG_COMPACT:
        raise DecodeError(f"unknown compact tag 0x{tag:02x}", offset=start, field="slack tag")
    resolve = _as_resolve(resolver) if resolver is not None else None
    identity = codec is IDENTITY_CODEC

    counts_at = offset
    if offset < end and (n_in := data[offset]) < 0xFD:
        n_in_width = 1
    else:
        n_in, n_in_width = _wide_varint(data, offset)
    offset += n_in_width
    if offset < end and (n_out := data[offset]) < 0xFD:
        n_out_width = 1
    else:
        n_out, n_out_width = _wide_varint(data, offset)
    offset += n_out_width
    bitmap_len = (4 + 3 * n_in + 7) // 8
    if offset + bitmap_len > end:
        raise _short(bitmap_len, offset, "slack bitmap")
    bits = int.from_bytes(data[offset : offset + bitmap_len], "little")
    offset += bitmap_len

    if bits & 1:
        version = COMMON_VERSIONS[1] if bits & 2 else COMMON_VERSIONS[0]
    else:
        if offset + 4 > end:
            raise _short(4, offset, "version escape")
        version = _U32.unpack_from(data, offset)[0]
        offset += 4
    has_witness = bool(bits & 4)
    lock_time = 0
    if bits & 8:
        if offset + 4 > end:
            raise _short(4, offset, "lock time escape")
        lock_time = _U32.unpack_from(data, offset)[0]
        offset += 4
    bits >>= 4

    # the wire bytes, rebuilt field by field; they are the tx's source
    # only when its script fields went through the identity codec
    wire = [_U32.pack(version), _MARKER if has_witness else b"", data[counts_at : counts_at + n_in_width]]
    append = wire.append
    encodable = n_in > 0 and n_out > 0
    inputs = []
    for i in range(n_in):
        kind = bits & 3
        if kind == _PREVOUT_COINBASE:
            prevout = _COINBASE_PREVOUT
            append(_COINBASE_PREVOUT_BYTES)
        elif kind == _PREVOUT_LOCAL:
            if offset + 6 > end:
                raise _short(6, offset, "local prevout")
            height, tx_index = _LOCAL.unpack_from(data, offset)
            offset += 6
            if offset < end and (out_index := data[offset]) < 0xFD:
                offset += 1
            else:
                out_index, used = _wide_varint(data, offset)
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
            prevout = _tuple_new(OutPoint, (tx_hash, out_index))
            append(tx_hash)
            if out_index > 0xFFFFFFFF:
                encodable = False
            else:
                append(_U32.pack(out_index))
        elif kind == _PREVOUT_VERBATIM:
            if offset + 36 > end:
                raise _short(36, offset, "verbatim prevout")
            prevout = _tuple_new(OutPoint, _PREVOUT.unpack_from(data, offset))
            append(data[offset : offset + 36])
            offset += 36
        else:
            raise DecodeError(f"invalid prevout kind {kind} for input {i}", field="slack bitmap")
        field_at = offset
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
        if bits & 4:
            if offset + 4 > end:
                raise _short(4, offset, "sequence escape")
            sequence = _U32.unpack_from(data, offset)[0]
            offset += 4
            append(data[field_at:offset])  # the script field and the escaped sequence
        else:
            sequence = SEQUENCE_DEFAULT
            append(data[field_at:offset])
            append(_SEQUENCE_DEFAULT_BYTES)
        bits >>= 3
        inputs.append(TxIn(prevout, script, sequence, width))

    append(data[counts_at + n_in_width : counts_at + n_in_width + n_out_width])
    outputs = []
    for _ in range(n_out):
        if offset < end and (value := data[offset]) < 0xFD:
            offset += 1
        elif offset + 3 <= end and data[offset] == 0xFD:
            value = _U16.unpack_from(data, offset + 1)[0]
            offset += 3
        else:
            value, used = _wide_varint(data, offset)
            offset += used
        if value > MAX_MONEY:
            encodable = False
        field_at = offset
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
        append(_U64.pack(value))
        append(data[field_at:offset])
        outputs.append(TxOut(value, script, width))

    witnesses = []
    witness_at = 0
    if has_witness:
        witness_at = sum(map(len, wire))
        field_at = offset
        witnesses, offset = decode_witness_stacks(data, offset, n_in, codec)
        append(data[field_at:offset])

    tx = Transaction(
        version, inputs, outputs, lock_time, has_witness, witnesses, n_in_width, n_out_width
    )
    if keep_source and identity and encodable:
        append(_U32.pack(lock_time))
        tx.source = b"".join(wire)
        tx.witness_at = witness_at
    return tx, offset - start


# ---------------------------------------------------------------------------
# script dedup


@dataclass
class DedupPlan:
    """Scripts chosen for the KVS plus the arithmetic savings report.

    ``savings_bytes`` uses the abstract accounting (occurrences x length
    freed, one stored copy plus one fixed-width reference per
    occurrence); exact on-disk deltas depend on the store's token
    framing and are computed there.
    """

    kvs: dict = field(default_factory=dict)  # ref -> script
    rewrite: set = field(default_factory=set)
    candidate_scripts: int = 0
    rewritten_scripts: int = 0
    occurrences_rewritten: int = 0
    original_bytes: int = 0
    savings_bytes: int = 0


def dedup_scripts(counts_or_blocks) -> DedupPlan:
    """Pick scripts worth moving behind 8-byte references.

    Accepts either a script occurrence Counter (any side) or a block
    iterable (both sides pooled).  A script is rewritten iff it repeats
    and the abstract saving len*(occ-1) - ref*occ is positive, which
    also rejects every script of 8 bytes or shorter.
    """
    if isinstance(counts_or_blocks, Counter):
        counts = counts_or_blocks
    else:
        inputs, outputs = script_multisets(counts_or_blocks)
        counts = inputs + outputs

    plan = DedupPlan()
    for script, occ in counts.items():
        if occ < 2:
            continue
        plan.candidate_scripts += 1
        saving = len(script) * occ - (len(script) + occ * REF_LEN)
        if saving <= 0:
            continue
        ref = script_ref(script)
        clash = plan.kvs.get(ref)
        if clash is not None and clash != script:
            continue  # 64-bit prefix collision: leave the later script inline
        plan.kvs[ref] = script
        plan.rewrite.add(script)
        plan.rewritten_scripts += 1
        plan.occurrences_rewritten += occ
        plan.original_bytes += len(script) * occ
        plan.savings_bytes += saving
    return plan


# ---------------------------------------------------------------------------
# strategy set


@dataclass(frozen=True)
class StrategyConfig:
    prune: PruneConfig | None = None
    minimize: bool = False
    slack: bool = False
    dedup: bool = False

    def label(self) -> str:
        parts = []
        if self.prune is not None:
            parts.append("prune")
        if self.minimize:
            parts.append("minimize")
        if self.slack:
            parts.append("slack")
        if self.dedup:
            parts.append("dedup")
        return "+".join(parts) if parts else "baseline"

    def any_enabled(self) -> bool:
        return self.prune is not None or self.minimize or self.slack or self.dedup
