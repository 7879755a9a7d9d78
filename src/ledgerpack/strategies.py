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

from .analytics import LifespanCdf, percentile
from .errors import DecodeError, QuantileUnreachableError, StrategyError, TruncationError
from .wire import (
    IDENTITY_CODEC,
    Block,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    VarInt,
    decode_transaction,
    decode_varint,
    decode_witness_stacks,
    dsha256,
    encode_block,
    encode_transaction,
    encode_varint,
    encode_witness_stacks,
    merkle_levels,
    txid,
)

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

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


def serialize_minimized(mb: MinimizedBlock) -> bytes:
    """Co-path record payload: leaf count, kept txs by position, nodes."""
    if mb.mode != "copath":
        raise StrategyError(f"only copath mode serializes this way, not {mb.mode!r}")
    parts = [encode_varint(mb.n_leaves), encode_varint(len(mb.kept))]
    for pos, tx_bytes in mb.kept:
        parts.append(encode_varint(pos))
        parts.append(encode_varint(len(tx_bytes)))
        parts.append(tx_bytes)
    parts.append(encode_varint(len(mb.nodes)))
    for (level, index) in sorted(mb.nodes):
        parts.append(encode_varint(level))
        parts.append(encode_varint(index))
        parts.append(mb.nodes[(level, index)])
    return b"".join(parts)


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
    for _ in range(k):
        pos = take_varint()
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
    if tx_position >= mb.n_leaves:
        return False
    h = txid(tx)
    for level, i, sib in _copath_steps(mb.n_leaves, tx_position):
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


def script_ref(script: bytes) -> bytes:
    return hashlib.sha256(script).digest()[:REF_LEN]


class RefScriptCodec:
    """Token framing: inline scripts carry a 1-byte tag, deduplicated
    scripts become a tag + 8-byte hash reference.

    The tag also records the original length-varint width so decoding
    reproduces non-canonical encodings bit-exactly.
    """

    def __init__(self, rewrite: set, kvs: dict):
        self.rewrite = rewrite
        self.kvs = kvs

    def encode(self, script: bytes, width: int) -> bytes:
        if script in self.rewrite:
            token = _WIDTH_TOKENS[width]
            return bytes([token]) + script_ref(script)
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

    def add(self, other: SlackStats) -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


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


def slack_encode(tx: Transaction, locator=None, stats: SlackStats | None = None, codec=IDENTITY_CODEC) -> bytes:
    """Compact, lossless re-encoding of one transaction.

    Returns either 0x00 + stored serialization (when squeezing does not
    pay) or 0x01 + the compact form.  ``locator`` resolves prevout
    txids to confirmed (height, tx_index) positions; without it every
    non-coinbase prevout is stored verbatim.
    """
    locate = _as_locate(locator)
    plain = encode_transaction(tx, codec)

    n_in = len(tx.inputs)
    bits = [0] * (4 + 3 * n_in)
    version_common = tx.version in COMMON_VERSIONS
    bits[0] = 1 if version_common else 0
    bits[1] = 1 if (version_common and tx.version == COMMON_VERSIONS[1]) else 0
    bits[2] = 1 if tx.has_witness_flag else 0
    bits[3] = 1 if tx.lock_time != 0 else 0

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
        bits[base] = kind & 1
        bits[base + 1] = (kind >> 1) & 1
        seq_escape = txin.sequence != SEQUENCE_DEFAULT
        bits[base + 2] = 1 if seq_escape else 0
        if seq_escape:
            n_seqesc += 1
        part += codec.encode(txin.script, txin.script_len_width)
        if seq_escape:
            part += _U32.pack(txin.sequence)
        input_parts.append(part)

    bitmap = bytearray((len(bits) + 7) // 8)
    for j, bit in enumerate(bits):
        if bit:
            bitmap[j >> 3] |= 1 << (j & 7)

    parts = [
        encode_varint(VarInt(n_in, tx.input_count_width)),
        encode_varint(VarInt(len(tx.outputs), tx.output_count_width)),
        bytes(bitmap),
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


def slack_decode(data: bytes, resolver=None, offset: int = 0, codec=IDENTITY_CODEC) -> tuple[bytes, int]:
    """Inverse of :func:`slack_encode`: (original transaction bytes, bytes consumed)."""
    tx, used = slack_decode_tx(data, resolver, offset, codec)
    return encode_transaction(tx), used


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
        from .analytics import script_multisets

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
