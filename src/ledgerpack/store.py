"""On-disk store for a (possibly compacted) ledger.

Four files in a directory:

- ``spine.bin``: one record per height, flag byte (0 = hash only, 1 =
  hash + 80-byte header) + 32-byte block hash.  Headers are kept exactly
  for heights that still have a body record.
- ``bodies.bin``: framed body records, ascending heights: 1-byte kind
  (raw / minimized / compact) + height varint + payload-length varint +
  payload.
- ``scripts.kvs``: deduplicated scripts: 8-byte hash reference + length
  varint + script bytes.
- ``manifest.txt``: one key=value line per
  :class:`~ledgerpack.manifest.Manifest` field, in field order, then a
  checksum line over every earlier byte (see :mod:`ledgerpack.manifest`).

Reported byte totals are the first three files exactly; the manifest is
bookkeeping overhead and excluded.  Each retained block keeps the
shortest of its faithful records, tried in the order raw, compact,
minimized with stored txs, minimized with slack txs; a tie goes to the
earliest.  Body records decode self-contained in file order: a compact
transaction only references positions that an ascending reader has
already decoded.  Readers take one walk over them (:func:`walk_records`),
which holds one record at a time and a (height, index) -> txid table.
"""

from __future__ import annotations

import hashlib
import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

from .chain import ChainState, build_chain
from .errors import DecodeError, LedgerError, StoreError, TruncationError
from .manifest import FORMAT_VERSION, Manifest, parse_manifest
from .strategies import (
    REF_LEN,
    RefScriptCodec,
    SlackStats,
    StrategyConfig,
    copath_nodes,
    dedup_scripts,
    deserialize_minimized,
    kept_parts,
    prune_keep_from,
    reduction_percent,
    script_ref,
    serialize_copath,
    slack_decode_tx,
    slack_floor,
    slack_record,
    verify_leaf_in_minimized,
)
from .wire import (
    IDENTITY_CODEC,
    MAINNET_MAGIC,
    Block,
    BlockHeader,
    FrameIndex,
    decode_block,
    decode_header,
    decode_transaction,
    decode_varint,
    encode_block,
    encode_varint,
    encode_with_txid,
    encode_with_witness_at,
    join_block,
    merkle_root,
    varint_width,
)

SPINE_FILE = "spine.bin"
BODIES_FILE = "bodies.bin"
KVS_FILE = "scripts.kvs"
MANIFEST_FILE = "manifest.txt"

KIND_RAW = 0x01
KIND_MINIMIZED = 0x02
KIND_COMPACT = 0x03
_KIND_NAMES = {KIND_RAW: "raw", KIND_MINIMIZED: "minimized", KIND_COMPACT: "compact"}


@dataclass
class SpineRecord:
    block_hash: bytes
    header: BlockHeader | None = None


@dataclass
class BodyRecord:
    height: int
    kind: int
    payload: bytes


def _spine_parts(spine):
    """``spine.bin``'s bytes, in the parts they join from."""
    for rec in spine:
        yield b"\x00" if rec.header is None else b"\x01"
        yield rec.block_hash
        if rec.header is not None:
            yield rec.header.encode()


def _body_head(kind: int, height: int, length: int) -> bytes:
    """A body record's framing, before its payload of ``length`` bytes."""
    return bytes([kind]) + encode_varint(height) + encode_varint(length)


def _bodies_parts(bodies):
    """``bodies.bin``'s bytes, in the parts they join from."""
    for rec in bodies:
        yield _body_head(rec.kind, rec.height, len(rec.payload))
        yield rec.payload


def _kvs_parts(kvs):
    """``scripts.kvs``'s bytes, in the parts they join from."""
    for ref in sorted(kvs):
        script = kvs[ref]
        yield ref
        yield encode_varint(len(script))
        yield script


def _size(parts) -> int:
    """The length of the bytes ``parts`` join to, without joining them."""
    return sum(map(len, parts))


def _sha256(parts) -> str:
    """The hex sha256 of the bytes ``parts`` join to, without joining them."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


@dataclass
class StoreModel:
    """Everything write_store puts on disk, with exact byte accounting.

    The model holds its records and nothing joined from them: each file
    is written, hashed and measured from its parts.  ``bodies_size`` and
    ``kvs_size`` are the body file's and the KVS's sizes, measured when
    the records and the KVS were chosen, so :meth:`sizes` sees no later
    change to them.
    """

    magic: int
    tip: int
    keep_from: int
    config: StrategyConfig
    prune_threshold: int | None
    spine: list = field(default_factory=list)
    bodies: list = field(default_factory=list)
    kvs: dict = field(default_factory=dict)
    slack_stats: SlackStats | None = None
    bodies_size: int = 0
    kvs_size: int = 0

    def spine_bytes(self) -> bytes:
        return b"".join(_spine_parts(self.spine))

    def bodies_bytes(self) -> bytes:
        return b"".join(_bodies_parts(self.bodies))

    def kvs_bytes(self) -> bytes:
        return b"".join(_kvs_parts(self.kvs))

    @property
    def dedup_effective(self) -> bool:
        return bool(self.kvs)

    def sizes(self) -> tuple:
        """The spine, body and KVS files' sizes, measured without joining them."""
        return _size(_spine_parts(self.spine)), self.bodies_size, self.kvs_size

    @property
    def retained_bytes(self) -> int:
        """The three data files' total size, as :meth:`sizes` measures them."""
        return sum(self.sizes())

    def manifest_text(self) -> str:
        return Manifest(
            format=FORMAT_VERSION,
            magic=self.magic,
            tip=self.tip,
            keep_from=self.keep_from,
            prune=self.config.prune is not None,
            prune_threshold=self.prune_threshold,
            minimize=self.config.minimize,
            slack=self.config.slack,
            dedup_requested=self.config.dedup,
            dedup=self.dedup_effective,
            spine_count=len(self.spine),
            body_count=len(self.bodies),
            kvs_count=len(self.kvs),
            sha256_spine=_sha256(_spine_parts(self.spine)),
            sha256_bodies=_sha256(_bodies_parts(self.bodies)),
            sha256_kvs=_sha256(_kvs_parts(self.kvs)),
        ).text()


# ---------------------------------------------------------------------------
# model construction


def _tally(records) -> list:
    """The field-by-field sum of the records' slack tallies."""
    return [sum(column) for column in zip(*(tally for _, tally in records))]


def _holds(positions, i: int) -> bool:
    """Whether ascending ``positions`` (a range or a kept list) hold ``i``."""
    at = bisect_left(positions, i)
    return at < len(positions) and positions[at] == i


def _stored_forms(block: Block, codec) -> tuple:
    """Each tx's stored form and its witness offset, serialized once per
    block and codec for every pass's raw, slack and minimized-stored records."""
    stored, witness_at = [], []
    for tx in block.transactions:
        raw, at = encode_with_witness_at(tx, codec)
        stored.append(raw)
        witness_at.append(at)
    return stored, witness_at


def _stored_scripts(txs, positions, widths=None) -> list:
    """Every script field of the txs at ``positions``, in stored order;
    with ``widths``, each one's stored length-varint width (0 =
    canonical) is appended there in the same order."""
    scripts = []
    extend = scripts.extend
    for i in positions:
        tx = txs[i]
        extend([txin.script for txin in tx.inputs])
        extend([txout.script for txout in tx.outputs])
        for stack in tx.witnesses:
            extend(stack.items)
        if widths is not None:
            widths.extend([txin.script_len_width for txin in tx.inputs])
            widths.extend([txout.script_len_width for txout in tx.outputs])
            for stack in tx.witnesses:
                widths.extend(stack.item_widths or [0] * len(stack.items))
    return scripts


class _DedupSizer:
    """Sizes a raw-record model's body file under a dedup plan from its
    first pass, without encoding a record.

    Under :class:`~ledgerpack.strategies.RefScriptCodec` a raw payload is
    its identity payload plus one token byte per script field, and each
    site of a rewritten script trades its length varint and bytes for a
    ``REF_LEN``-byte reference.  Only the body head's length varint
    depends on a height's own sites, and the bounds on its payload fix
    its width at all but a few heights; only those keep their sites.
    """

    def __init__(self):
        self.size = 0  # every payload with a token per field, and the heads the bounds fix
        self.open = []  # (head before the length varint, upper bound, scripts, widths)
        self.odd = Counter()  # (script, stored width) of each non-canonical site

    def add(self, height: int, payload: int, scripts: list, widths: list) -> None:
        upper = payload + len(scripts)
        cut = 0  # the most that rewriting could take off the payload
        for script, width in zip(scripts, widths):
            n = len(script)
            if width != 1:  # a one-byte length is always canonical
                canonical = varint_width(n)
                if width and width != canonical:
                    self.odd[script, width] += 1
                else:
                    width = canonical
            if n + width > REF_LEN:
                cut += n + width - REF_LEN
        head = 1 + varint_width(height)
        if varint_width(upper - cut) == varint_width(upper):
            self.size += head + varint_width(upper)
        else:
            self.open.append((head, upper, scripts, widths))
        self.size += upper

    def bodies_size(self, counts: Counter, rewrite: set) -> int:
        """The body file's size with each script of ``rewrite``, which
        occurs ``counts`` times, stored by reference."""
        size = self.size
        for script in rewrite:
            n = len(script)
            size -= counts[script] * (n + varint_width(n) - REF_LEN)
        for (script, width), occ in self.odd.items():
            if script in rewrite:
                size -= occ * (width - varint_width(len(script)))
        for head, upper, scripts, widths in self.open:
            cut = sum(len(s) + (w or varint_width(len(s))) - REF_LEN for s, w in zip(scripts, widths) if s in rewrite)
            size += head + varint_width(upper - cut)
        return size


class _Pass:
    """One encoding pass of one store model, fed its retained blocks in
    height order.

    Per block the shortest candidate payload wins, the earliest in
    :meth:`candidates` order on a tie; only a kept winner is joined, and
    only its slack tally is summed and counted.  The pass keeps the tx
    positions a reader decodes at each height that has a record
    (``readable``: a range, or a minimized height's kept list) and its
    body file's size; the records and the slack stats only with ``keep``;
    and, as the first pass of a dedup model, the occurrences of every
    script field its records store (``sites``), and when those records
    are raw, a :class:`_DedupSizer` (``sizer``).
    """

    def __init__(self, config, retained: tuple, minimized: dict, index, codec, keep: bool):
        self.config = config
        self.threshold, self.keep_from = retained
        self.minimized = minimized
        self.index = index
        self.codec = codec
        self.kvs = {} if codec is IDENTITY_CODEC else codec.kvs
        self.kvs_size = 0  # the KVS's size, set with a dedup plan
        self.readable: dict = {}  # height -> tx positions a reader decodes there
        self.stats = SlackStats() if config.slack and keep else None
        self.bodies = [] if keep else None
        self.bodies_size = 0
        self.sites = Counter() if config.dedup and codec is IDENTITY_CODEC else None
        raw = not (config.minimize or config.slack)
        self.sizer = _DedupSizer() if self.sites is not None and raw else None

    def encodes(self, height: int) -> bool:
        """A retained height gets a record unless minimize finds nothing there to keep."""
        return height >= self.keep_from and (not self.config.minimize or bool(self.minimized[height][0]))

    def add(self, block: Block, height: int, forms: dict) -> None:
        """Encode ``block``, taking its stored forms under this pass's codec
        from ``forms`` (codec -> :func:`_stored_forms`), or adding them."""
        if self.codec not in forms:
            forms[self.codec] = _stored_forms(block, self.codec)
        candidates = self.candidates(block, height, *forms[self.codec])
        # min() keeps the first of equal sizes
        size, kind, parts, records, self.readable[height] = min(candidates, key=lambda c: c[0])
        if records is not None and self.stats is not None:
            self.stats.count(_tally(records))
        self.bodies_size += len(_body_head(kind, height, size)) + size
        if self.bodies is not None:
            self.bodies.append(BodyRecord(height, kind, b"".join(parts)))
        if self.sites is not None:
            widths = None if self.sizer is None else []
            scripts = _stored_scripts(block.transactions, self.readable[height], widths)
            self.sites.update(scripts)
            if widths is not None:
                self.sizer.add(height, size, scripts, widths)

    def candidates(self, block: Block, height: int, stored: list, witness_at: list):
        """Yield the block's faithful records in tie-break order, each as
        (payload size, kind, the parts the payload joins from, the slack
        (record, tally) pairs it stores or None, the ascending tx positions
        a reader decodes), given its :func:`_stored_forms`.

        A minimized block's kept txs are slack-encoded first.  A kept tx
        that left no prevout unresolved has the same record in the compact
        candidate, and every other tx's record is at least its
        :func:`slack_floor` long.  The compact candidate is built only when
        that lower bound on its size is below the raw record's and no
        longer than either minimized one, since otherwise it cannot win.
        """
        txs = block.transactions
        every = range(len(txs))
        count = encode_varint(len(txs), block.tx_count_width)
        raw = [block.header.encode(), count, *stored]
        raw_size = _size(raw)
        yield raw_size, KIND_RAW, raw, None, every

        def compact(records):
            parts = [count, *(record for record, _ in records)]
            return _size(parts), KIND_COMPACT, parts, records, every

        def slack_records(positions, decoded):
            return self.slack_records(txs, stored, witness_at, positions, height, decoded)

        # the kept positions and their serialized co-path, when minimize drops a tx here
        kept, copath = self.minimized.get(height, (None, None))
        if copath is None:
            if self.config.slack:
                yield compact(slack_records(every, every)[0])
            return

        def minimized(tx_mode, tx_bytes, records=None):
            # payload: 1-byte kept-tx form (0 = stored, 1 = slack) + co-path serialization
            parts = [bytes([tx_mode]), *kept_parts(len(txs), kept, tx_bytes), copath]
            return _size(parts), KIND_MINIMIZED, parts, records, kept

        kept_stored = minimized(0, [stored[p] for p in kept])
        if not self.config.slack:
            yield kept_stored
            return
        kept_records, unresolved = slack_records(kept, kept)
        kept_slack = minimized(1, [record for record, _ in kept_records], kept_records)
        shared = {p: rec for p, rec in zip(kept, kept_records) if p not in unresolved}
        others = [p for p in every if p not in shared]
        floor = len(count) + _size(record for record, _ in shared.values())
        floor += sum(slack_floor(txs[p], stored[p]) for p in others)
        if floor < raw_size and floor <= min(kept_stored[0], kept_slack[0]):
            shared.update(zip(others, slack_records(others, every)[0]))
            yield compact([shared[p] for p in every])
        yield kept_stored
        yield kept_slack

    def slack_records(self, txs, stored, witness_at, positions, height: int, decoded) -> tuple:
        """The (record, tally) of the tx at each of ``positions``
        (ascending) of block ``height``, for a body record whose reader
        decodes the positions ``decoded`` of this block, and the positions
        whose record left a prevout in this block outside ``decoded``
        unresolved.

        A prevout becomes a local (height, position) reference only when a
        reader decoding the body records in file order has that tx
        already: at an earlier height when ``readable`` holds it, at this
        height when it sits at an earlier position in ``decoded``.
        """
        locator, readable, codec = self.index.locator, self.readable, self.codec
        unresolved = set()

        def locate(tx_hash):
            pos = locator.get(tx_hash)
            if pos is None:
                return None
            if pos[0] != height:
                return pos if _holds(readable.get(pos[0], ()), pos[1]) else None
            if pos[1] >= p:
                return None
            if not _holds(decoded, pos[1]):
                unresolved.add(p)
                return None
            return pos

        records = []
        for p in positions:
            records.append(slack_record(txs[p], stored[p], witness_at[p], locate, codec))
        return records, unresolved


def _sweep(blocks, passes) -> None:
    """Feed each height's block to every pass that encodes it, indexing
    ``blocks`` once for each such height."""
    for height in range(len(blocks)):
        takers = [p for p in passes if p.encodes(height)]
        if takers:
            block = blocks[height]
            forms = {}  # shared by the passes of one codec
            for p in takers:
                p.add(block, height, forms)
            del block, forms  # so one decoded block is alive at a time


def _retained(n_blocks: int, state: ChainState, prune) -> tuple:
    """The threshold of ``prune`` (a :class:`~ledgerpack.strategies.PruneConfig`
    or None), or None, and the first height whose body it keeps."""
    tip = n_blocks - 1
    if prune is None or tip < 0:
        return None, 0
    cdf = None
    if prune.mode == "quantile":
        from .analytics import lifespan_cdf

        cdf = lifespan_cdf(state.spent_log, state.utxos, (0, tip), tip)
    threshold = prune.resolve(cdf)
    return threshold, prune_keep_from(tip, threshold)


def _encode(blocks, state: ChainState, configs, spans: dict, keep: bool) -> list:
    """The winning encoding pass of each of ``configs``, none raw-only,
    given ``spans`` (prune config -> :func:`_retained`).

    The passes advance in lockstep: one sweep over ``blocks`` feeds every
    first pass, and one more feeds the dedup passes.  A dedup model
    keeps its dedup pass only if that pass's exact body file + KVS bytes
    are a net saving over its first pass's body file.  A model of raw
    records takes that body file's size from its first pass's
    :class:`_DedupSizer`, and sweeps again only to build records that pay.
    """
    retained = [spans[config.prune] for config in configs]
    # height -> (ascending positions of txs that still carry UTXOs, serialized
    # co-path of them or None when none is dropped); both depend only on the
    # txids, so every minimize pass shares them
    minimized = {}
    starts = [keep_from for config, (_, keep_from) in zip(configs, retained) if config.minimize]
    if starts:
        unspent = {op.tx_hash for op in state.utxos}
        for height in range(min(starts), len(blocks)):
            ids = state.index.txids[height]
            kept = [i for i, t in enumerate(ids) if t in unspent]
            drops = 0 < len(kept) < len(ids)
            minimized[height] = (kept, serialize_copath(copath_nodes(ids, kept)) if drops else None)
        del unspent  # free its table before the encoding passes

    passes = [
        _Pass(config, span, minimized if config.minimize else {}, state.index, IDENTITY_CODEC, keep)
        for config, span in zip(configs, retained)
    ]
    _sweep(blocks, passes)

    dedup = []  # (position in passes, the dedup pass of that model)
    for i, first in enumerate(passes):
        if first.sites is None:
            continue
        plan = dedup_scripts(first.sites)
        kvs_size = _size(_kvs_parts(plan.kvs))
        sweep = bool(plan.rewrite)
        if sweep and first.sizer is not None:
            size = first.sizer.bodies_size(first.sites, plan.rewrite)
            sweep = size + kvs_size < first.bodies_size
            if sweep and not keep:  # the first pass stands for the dedup pass
                first.bodies_size, first.kvs, first.kvs_size, sweep = size, plan.kvs, kvs_size, False
        first.sites = first.sizer = None
        if sweep:
            # the codec maps each script to its reference on its first
            # encode, once the plan, and its own set of them, is freed
            span = (first.threshold, first.keep_from)
            second = _Pass(first.config, span, first.minimized, state.index, RefScriptCodec(plan.kvs), keep)
            second.kvs_size = kvs_size
            dedup.append((i, second))
        del plan
    _sweep(blocks, [second for _, second in dedup])
    for i, second in dedup:
        if second.bodies_size + second.kvs_size < passes[i].bodies_size:
            passes[i] = second
    return passes


def _models(blocks, state: ChainState | None, configs, magic: int, keep: bool):
    """Yield the store model of each of ``configs``, in order, with its
    body records only if ``keep``.

    A raw-only model's records are the blocks' wire bytes, which a frame
    index reads without decoding; without ``keep`` they are measured from
    its frame sizes.  The other models come from :func:`_encode`.  Each
    distinct prune config is resolved once.  A caller that drops each
    model before taking the next holds one at a time.
    """
    indexed = isinstance(blocks, FrameIndex)
    if not indexed:
        blocks = list(blocks)
    if state is None:
        state = build_chain(blocks)
    tip = len(blocks) - 1
    hashes = state.index.spine[: tip + 1]
    headers = blocks.headers if indexed else [block.header for block in blocks]
    spans = {}  # prune config -> its threshold and first kept height
    for config in configs:
        if config.prune not in spans:
            spans[config.prune] = _retained(len(blocks), state, config.prune)
    encoded = iter(_encode(blocks, state, [config for config in configs if not config.raw_only()], spans, keep))
    for config in configs:
        if config.raw_only():
            threshold, keep_from = spans[config.prune]
            heights = range(keep_from, len(blocks))
            if keep:
                bodies = [
                    BodyRecord(h, KIND_RAW, blocks.body(h) if indexed else encode_block(blocks[h])) for h in heights
                ]
                sizes = [len(rec.payload) for rec in bodies]
            else:
                bodies = None
                sizes = [blocks.sizes[h] if indexed else len(encode_block(blocks[h])) for h in heights]
            bodies_size = sum(len(_body_head(KIND_RAW, h, n)) + n for h, n in zip(heights, sizes))
            kvs, stats, kvs_size = {}, None, 0
        else:
            chosen = next(encoded)
            threshold, keep_from, heights = chosen.threshold, chosen.keep_from, chosen.readable
            bodies, bodies_size, kvs, stats = chosen.bodies, chosen.bodies_size, chosen.kvs, chosen.stats
            kvs_size = chosen.kvs_size
        # a header for each height with a body record
        spine = [SpineRecord(block_hash, headers[h] if h in heights else None) for h, block_hash in enumerate(hashes)]
        yield StoreModel(magic, tip, keep_from, config, threshold, spine, bodies, kvs, stats, bodies_size, kvs_size)
        del spine  # so it is freed with its model, before the next is built


def build_store_model(
    blocks,
    state: ChainState | None = None,
    config: StrategyConfig = StrategyConfig(),
    magic: int = MAINNET_MAGIC,
) -> StoreModel:
    """Apply the strategy set and lay out the store, without touching disk.

    Strategies compose per block: the smallest faithful record wins, so
    enabling one never grows that block's record.  Candidates: raw,
    compact (slack), minimized with stored txs, minimized with slack txs
    (minimize, when it drops a tx); a tie goes to the earliest.
    Requested dedup is dropped (recorded in the manifest) unless its
    exact effect on body file + KVS bytes is a net saving.

    ``blocks`` is the chain's blocks by height: a list, or a
    :class:`~ledgerpack.wire.FrameIndex`, which decodes a frame each time
    it is indexed.  Each encoding pass indexes each height it encodes
    once and drops that block before the next.  Under a
    :meth:`~StrategyConfig.raw_only` config a retained block's record is
    its wire bytes, which a frame index reads without decoding.
    """
    (model,) = _models(blocks, state, [config], magic, keep=True)
    return model


# ---------------------------------------------------------------------------
# disk I/O


def write_store(model: StoreModel, path: str) -> None:
    """Write the four store files, each from its parts; the manifest goes last."""
    os.makedirs(path, exist_ok=True)
    for name, parts in [
        (SPINE_FILE, _spine_parts(model.spine)),
        (BODIES_FILE, _bodies_parts(model.bodies)),
        (KVS_FILE, _kvs_parts(model.kvs)),
        (MANIFEST_FILE, [model.manifest_text().encode("ascii")]),
    ]:
        with open(os.path.join(path, name), "wb") as fh:
            fh.writelines(parts)


@dataclass
class StoreView:
    manifest: Manifest
    spine: list
    bodies: list
    kvs: dict


def _parse_spine(data: bytes) -> list:
    spine = []
    offset = 0
    while offset < len(data):
        flag = data[offset]
        if flag not in (0, 1):
            raise StoreError(f"spine record {len(spine)} has unknown flag {flag}")
        need = 33 + (80 if flag else 0)
        if offset + need > len(data):
            raise TruncationError(
                f"spine record {len(spine)} cut short", offset=offset, field="spine record"
            )
        block_hash = bytes(data[offset + 1 : offset + 33])
        header = decode_header(data, offset + 33) if flag else None
        spine.append(SpineRecord(block_hash, header))
        offset += need
    return spine


def _parse_bodies(data: bytes) -> list:
    bodies = []
    offset = 0
    while offset < len(data):
        index = len(bodies)
        kind = data[offset]
        if kind not in _KIND_NAMES:
            raise StoreError(f"body record {index} has unknown kind tag 0x{kind:02x}")
        try:
            height, used = decode_varint(data, offset + 1)
            at = offset + 1 + used
            length, used = decode_varint(data, at)
            at += used
        except TruncationError as exc:
            raise TruncationError(
                f"body record {index} framing cut short: {exc}", offset=offset
            ) from exc
        if at + length > len(data):
            raise TruncationError(
                f"body record {index} claims {length} payload byte(s), file has "
                f"{len(data) - at} left",
                offset=offset,
            )
        bodies.append(BodyRecord(height, kind, bytes(data[at : at + length])))
        offset = at + length
    return bodies


def _parse_kvs(data: bytes) -> dict:
    kvs = {}
    offset = 0
    while offset < len(data):
        index = len(kvs)
        if offset + REF_LEN > len(data):
            raise TruncationError(f"KVS record {index} reference cut short", offset=offset)
        ref = bytes(data[offset : offset + REF_LEN])
        try:
            length, used = decode_varint(data, offset + REF_LEN)
        except TruncationError as exc:
            raise TruncationError(f"KVS record {index} script cut short: {exc}", offset=offset) from exc
        at = offset + REF_LEN + used
        if at + length > len(data):
            raise TruncationError(f"KVS record {index} script cut short", offset=offset)
        kvs[ref] = bytes(data[at : at + length])
        offset = at + length
    return kvs


def _read_file(path: str, name: str) -> bytes:
    try:
        with open(os.path.join(path, name), "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise StoreError(f"cannot read store file {name}: {exc}") from exc


def _parse_view(manifest: Manifest, read) -> StoreView:
    """Parse the data files that ``read`` (file name -> bytes) gives, spine
    first, then bodies, then KVS, and check their record counts."""
    spine = _parse_spine(read(SPINE_FILE))
    bodies = _parse_bodies(read(BODIES_FILE))
    kvs = _parse_kvs(read(KVS_FILE))
    for what, records, count in [
        ("spine", spine, manifest.spine_count),
        ("body", bodies, manifest.body_count),
        ("KVS", kvs, manifest.kvs_count),
    ]:
        if len(records) != count:
            raise StoreError(f"manifest says {count} {what} records, file has {len(records)}")
    return StoreView(manifest, spine, bodies, kvs)


def read_store(path: str) -> StoreView:
    """Parse a store directory; structural checks only, no hash checking."""
    try:
        manifest = parse_manifest(_read_file(path, MANIFEST_FILE).decode("ascii"))
    except UnicodeDecodeError as exc:
        raise StoreError(f"store manifest is not ASCII text: {exc}") from exc
    return _parse_view(manifest, lambda name: _read_file(path, name))


# ---------------------------------------------------------------------------
# decoding store content


@dataclass
class StoreContent:
    """Decoded store: full blocks where available, minimized views otherwise."""

    blocks: dict = field(default_factory=dict)  # height -> Block
    block_bytes: dict = field(default_factory=dict)  # height -> original block bytes
    minimized: dict = field(default_factory=dict)  # height -> MinimizedBlock
    txids: dict = field(default_factory=dict)  # (height, tx_index) -> txid of each decoded tx


def walk_records(view: StoreView, txids: dict):
    """Decode the body records in file order, one at a time.

    Yields (record, its ``Block`` or ``MinimizedBlock``, the block's wire
    bytes or None for a minimized record).  Only ``txids``, the caller's
    (height, tx index) -> txid table, outlives a record: each decoded tx's
    txid goes in, and compact prevouts resolve against it.  A restored tx's
    wire bytes, serialized at most once, give both block bytes and txid.
    """
    codec = RefScriptCodec(view.kvs) if view.manifest.dedup else IDENTITY_CODEC

    def restore(height, tx_index, tx):
        raw, txids[(height, tx_index)] = encode_with_txid(tx)
        return raw

    def spine_header(rec):
        if rec.height >= len(view.spine) or view.spine[rec.height].header is None:
            raise StoreError(f"{_KIND_NAMES[rec.kind]} record at height {rec.height} has no spine header")
        return view.spine[rec.height].header

    for rec in view.bodies:
        if rec.kind == KIND_RAW:
            block = decode_block(rec.payload, codec)
            wire_txs = [restore(rec.height, i, tx) for i, tx in enumerate(block.transactions)]
            # identity-decoded txs are slices of the payload, which is the block
            raw = rec.payload if codec is IDENTITY_CODEC else join_block(block, wire_txs)
            block.raw_size_bytes = len(raw)  # a dedup payload frames scripts by reference
            yield rec, block, raw
        elif rec.kind == KIND_COMPACT:
            header = spine_header(rec)
            n_tx, tx_count_width = decode_varint(rec.payload, 0)
            if n_tx == 0:
                raise DecodeError(f"compact record at height {rec.height} has zero transactions")
            offset = tx_count_width
            txs, wire_txs = [], []
            for i in range(n_tx):
                tx, consumed = slack_decode_tx(rec.payload, txids, offset, codec)
                offset += consumed
                wire_txs.append(restore(rec.height, i, tx))
                txs.append(tx)
            if offset != len(rec.payload):
                stray = len(rec.payload) - offset
                raise StoreError(f"{stray} stray byte(s) in compact record at height {rec.height}")
            block = Block(header, txs, tx_count_width=tx_count_width)
            raw = join_block(block, wire_txs)
            block.raw_size_bytes = len(raw)
            yield rec, block, raw
        else:  # KIND_MINIMIZED
            header = spine_header(rec)
            if not rec.payload:
                raise TruncationError(f"minimized record at height {rec.height} is empty")
            tx_mode = rec.payload[0]
            if tx_mode not in (0, 1):
                raise StoreError(f"minimized record at height {rec.height} has unknown tx encoding {tx_mode}")
            mb = deserialize_minimized(rec.payload[1:], view.spine[rec.height].block_hash, header.merkle_root)
            if not mb.kept:
                raise DecodeError(f"minimized record at height {rec.height} keeps no transaction")
            for i, (pos, stored) in enumerate(mb.kept):
                if tx_mode == 1:
                    tx, consumed = slack_decode_tx(stored, txids, 0, codec)
                else:
                    tx, consumed = decode_transaction(stored, 0, codec)
                if consumed != len(stored):
                    raise StoreError(f"stray bytes after kept tx {pos} in minimized record at height {rec.height}")
                mb.kept[i] = (pos, restore(rec.height, pos, tx))
            mb.retained_bytes = len(rec.payload)
            yield rec, mb, None


def decode_store_content(view: StoreView) -> StoreContent:
    """:func:`walk_records` folded into one dict per result, all held at
    once; a later record at a height replaces an earlier one."""
    content = StoreContent()
    for rec, decoded, raw in walk_records(view, content.txids):
        if raw is None:
            content.minimized[rec.height] = decoded
        else:
            content.blocks[rec.height] = decoded
            content.block_bytes[rec.height] = raw
    return content


# ---------------------------------------------------------------------------
# integrity


@dataclass
class Check:
    name: str
    height: int | None
    ok: bool
    detail: str = ""


@dataclass
class IntegrityReport:
    checks: list = field(default_factory=list)

    def add(self, name, height, ok, detail=""):
        self.checks.append(Check(name, height, ok, detail))

    def section(self, name):
        """Append a summary success row unless something already failed."""
        if all(c.ok for c in self.checks):
            self.add(name, None, True)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]


def integrity_check(path: str) -> IntegrityReport:
    """Verify digests, spine continuity, the manifest's strategy fields
    against the records, Merkle roots and co-paths.

    Each file is read once, and the bytes hashed are the bytes parsed; each
    body record is checked as :func:`walk_records` decodes it.  A missing
    body below the prune threshold is by design, never a failure; a body
    record outside the retained range is one.
    """
    report = IntegrityReport()

    try:
        manifest = parse_manifest(_read_file(path, MANIFEST_FILE).decode("ascii"))
        report.add("manifest", None, True)
    except (UnicodeDecodeError, StoreError) as exc:
        report.add("manifest", None, False, str(exc))
        return report

    files = {}  # data file name -> its bytes, until parsed
    for name, filename in [("spine", SPINE_FILE), ("bodies", BODIES_FILE), ("kvs", KVS_FILE)]:
        try:
            files[filename] = data = _read_file(path, filename)
            ok = hashlib.sha256(data).hexdigest() == getattr(manifest, f"sha256_{name}")
            report.add(f"digest_{name}", None, ok, "" if ok else "file does not match manifest digest")
        except StoreError as exc:
            report.add(f"digest_{name}", None, False, str(exc))

    try:
        # a file that could not be read is tried again, to raise its error in parse order
        view = _parse_view(manifest, lambda name: files.pop(name) if name in files else _read_file(path, name))
        report.add("structure", None, True)
    except (StoreError, DecodeError) as exc:
        report.add("structure", None, False, str(exc))
        return report

    if len(view.spine) != manifest.tip + 1:
        report.add("spine_length", None, False, f"{len(view.spine)} spine records for tip {manifest.tip}")
    for height, rec in enumerate(view.spine):
        if rec.header is None:
            continue
        if rec.header.block_hash() != rec.block_hash:
            report.add("spine_header_hash", height, False, "header does not hash to spine entry")
        if height > 0 and rec.header.prev_block_hash != view.spine[height - 1].block_hash:
            report.add("spine_continuity", height, False, "prev-hash does not match height below")
    report.section("spine")

    seen_heights = []
    for rec in view.bodies:
        if rec.height < manifest.keep_from or rec.height > manifest.tip:
            report.add("body_height", rec.height, False, "body record outside the retained range")
        seen_heights.append(rec.height)
    with_body = set(seen_heights)
    if seen_heights != sorted(with_body):
        report.add("body_order", None, False, "body heights are not strictly ascending")
    for ref, script in view.kvs.items():
        if script_ref(script) != ref:
            report.add("kvs_ref", None, False, f"reference {ref.hex()} does not match its script")

    # the manifest's strategy fields against each other and the records
    threshold = manifest.prune_threshold
    if (threshold is not None) != (manifest.prune and manifest.tip >= 0):
        detail = "prune_threshold must be set exactly when prune is on and tip >= 0"
        report.add("manifest_prune", None, False, detail)
    keep_from = 0 if threshold is None else prune_keep_from(manifest.tip, threshold)
    if manifest.keep_from != keep_from:
        report.add("manifest_keep_from", None, False, f"keep_from should be {keep_from}")
    if manifest.dedup and not manifest.dedup_requested:
        report.add("manifest_dedup", None, False, "dedup took effect without being requested")
    if manifest.dedup != (manifest.kvs_count > 0):
        detail = f"dedup={int(manifest.dedup)} with {manifest.kvs_count} KVS record(s)"
        report.add("manifest_dedup", None, False, detail)
    for height, rec in enumerate(view.spine):
        has_header = rec.header is not None
        if has_header != (height in with_body):
            detail = "a header but no body record" if has_header else "a body record but no header"
            report.add("spine_header", height, False, detail)
    if not manifest.minimize:  # only minimize leaves a retained height without a body
        for height in range(max(manifest.keep_from, 0), min(manifest.tip + 1, len(view.spine))):
            if height not in with_body:
                report.add("body_missing", height, False, "retained height has no body record")
    report.section("layout")

    # Each record is checked as it decodes.  Once all have, its rows follow: kind rows,
    # then full-block rows, then co-path rows; a record that does not decode reports only that.
    txids, kinds, blocks, copaths = {}, IntegrityReport(), IntegrityReport(), IntegrityReport()
    try:
        for rec, decoded, raw in walk_records(view, txids):
            height = rec.height
            # record kinds that a strategy flag left off never writes
            if rec.kind == KIND_COMPACT and not manifest.slack:
                kinds.add("body_kind", height, False, "compact record without slack")
            if rec.kind == KIND_MINIMIZED and not manifest.minimize:
                kinds.add("body_kind", height, False, "minimized record without minimize")
            if rec.kind == KIND_MINIMIZED and rec.payload[0] == 1 and not manifest.slack:
                kinds.add("body_kind", height, False, "slack-encoded kept txs without slack")
            # Leaves come from the txids decoding computed.  A body past the
            # end of the spine has no hash to compare; the layout checks report it.
            if raw is None:
                for pos, _ in decoded.kept:
                    if not verify_leaf_in_minimized(decoded, pos, txids[height, pos]):
                        detail = f"kept tx at position {pos} fails co-path verification"
                        copaths.add("copath", height, False, detail)
            elif height < len(view.spine) and decoded.block_hash() != view.spine[height].block_hash:
                blocks.add("block_hash", height, False, "body header does not match spine hash")
            else:
                leaves = [txids[height, i] for i in range(len(decoded.transactions))]
                if merkle_root(leaves) != decoded.header.merkle_root:
                    blocks.add("merkle_root", height, False, "transactions do not hash to the header root")
        report.add("decode", None, True)
    except LedgerError as exc:  # corrupt payloads must report, not crash
        report.add("decode", None, False, f"{type(exc).__name__}: {exc}")
        return report
    report.checks += kinds.checks + blocks.checks + copaths.checks
    report.section("content")
    return report


# ---------------------------------------------------------------------------
# footprint estimation


@dataclass
class ReportRow:
    strategy: str
    retained_bytes: int
    reduction_percent: float


@dataclass
class StorageReport:
    baseline_bytes: int
    rows: list


def estimate_footprint(
    blocks,
    state: ChainState | None = None,
    config: StrategyConfig = StrategyConfig(),
) -> StorageReport:
    """Exact retained-bytes report for the strategy set and its singles.

    Each row is the ``retained_bytes`` of the model
    :func:`build_store_model` would build for its config, measured
    without keeping its records, so estimate and compact always agree.
    The models are encoded in lockstep, indexing each height once per
    sweep.
    """
    singles = [StrategyConfig(**{name: getattr(config, name)}) for name in config.enabled()]
    combined = [config] if len(singles) > 1 else []
    configs = [StrategyConfig(), *singles, *combined]
    # map() drops each model once it is measured, before the next is built
    retained = list(map(attrgetter("retained_bytes"), _models(blocks, state, configs, MAINNET_MAGIC, keep=False)))
    rows = [ReportRow(cfg.label(), size, reduction_percent(retained[0], size)) for cfg, size in zip(configs, retained)]
    return StorageReport(retained[0], rows)
