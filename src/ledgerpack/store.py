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
- ``manifest.txt``: one key=value line per :class:`Manifest` field, in
  field order, then a checksum line over every earlier byte.

Reported byte totals are the first three files exactly; the manifest is
bookkeeping overhead and excluded.  Each retained block keeps the
shortest of its faithful records, tried in the order raw, compact,
minimized with stored txs, minimized with slack txs; a tie goes to the
earliest.  Body records decode self-contained in file order: a compact
transaction only references positions that an ascending reader has
already decoded.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from operator import add

from .analytics import lifespan_cdf
from .chain import ChainState, build_chain
from .errors import DecodeError, LedgerError, StoreError, TruncationError
from .strategies import (
    REF_LEN,
    RefScriptCodec,
    SlackStats,
    StrategyConfig,
    copath_nodes,
    dedup_scripts,
    deserialize_minimized,
    prune_keep_from,
    reduction_percent,
    script_ref,
    serialize_copath,
    serialize_kept,
    slack_record,
    slack_restore_tx,
    verify_leaf_in_minimized,
)
from .wire import (
    IDENTITY_CODEC,
    MAINNET_MAGIC,
    Block,
    BlockHeader,
    VarInt,
    decode_block,
    decode_header,
    decode_transaction,
    decode_varint,
    encode_varint,
    encode_with_txid,
    encode_with_witness_at,
    join_block,
    merkle_root,
)

SPINE_FILE = "spine.bin"
BODIES_FILE = "bodies.bin"
KVS_FILE = "scripts.kvs"
MANIFEST_FILE = "manifest.txt"

KIND_RAW = 0x01
KIND_MINIMIZED = 0x02
KIND_COMPACT = 0x03
_KIND_NAMES = {KIND_RAW: "raw", KIND_MINIMIZED: "minimized", KIND_COMPACT: "compact"}

FORMAT_VERSION = 1


def _read_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flag {text!r} is neither 0 nor 1")
    return text == "1"


def _read_threshold(text: str) -> int | None:
    value = int(text)
    if value < -1:
        raise ValueError(f"prune threshold {value} is below -1")
    return None if value == -1 else value


# How a manifest value is written, and how its text is read back
_NUMBER = {"write": str, "read": int}
_FLAG = {"write": lambda flag: str(int(flag)), "read": _read_flag}
_HEX32 = {"write": "{:08x}".format, "read": lambda text: int(text, 16)}
# -1 stands for no threshold
_THRESHOLD = {"write": lambda value: str(-1 if value is None else value), "read": _read_threshold}
_TEXT = {"write": str, "read": str}


@dataclass
class Manifest:
    """``manifest.txt``: one ``key=value`` line per field, in field order,
    then a checksum line.  Each field's metadata writes its value and
    reads the text back."""

    format: int = field(metadata=_NUMBER)
    magic: int = field(metadata=_HEX32)
    tip: int = field(metadata=_NUMBER)
    keep_from: int = field(metadata=_NUMBER)
    prune: bool = field(metadata=_FLAG)
    prune_threshold: int | None = field(metadata=_THRESHOLD)
    minimize: bool = field(metadata=_FLAG)
    slack: bool = field(metadata=_FLAG)
    dedup_requested: bool = field(metadata=_FLAG)
    dedup: bool = field(metadata=_FLAG)
    spine_count: int = field(metadata=_NUMBER)
    body_count: int = field(metadata=_NUMBER)
    kvs_count: int = field(metadata=_NUMBER)
    sha256_spine: str = field(metadata=_TEXT)
    sha256_bodies: str = field(metadata=_TEXT)
    sha256_kvs: str = field(metadata=_TEXT)

    def text(self) -> str:
        lines = [f"{f.name}={f.metadata['write'](getattr(self, f.name))}\n" for f in fields(self)]
        body = "".join(lines)
        # Trailing self-checksum covers every earlier manifest byte, so a
        # flipped digit in tip/keep_from/flags cannot masquerade as a
        # different but internally consistent store.
        check = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return body + f"checksum={check}\n"


@dataclass
class SpineRecord:
    block_hash: bytes
    header: BlockHeader | None = None


@dataclass
class BodyRecord:
    height: int
    kind: int
    payload: bytes


def _spine_file(spine) -> bytes:
    parts = []
    for rec in spine:
        if rec.header is not None:
            parts.append(b"\x01" + rec.block_hash + rec.header.encode())
        else:
            parts.append(b"\x00" + rec.block_hash)
    return b"".join(parts)


def _bodies_file(bodies) -> bytes:
    parts = []
    for rec in bodies:
        parts.append(bytes([rec.kind]))
        parts.append(encode_varint(rec.height))
        parts.append(encode_varint(len(rec.payload)))
        parts.append(rec.payload)
    return b"".join(parts)


def _kvs_file(kvs) -> bytes:
    parts = []
    for ref in sorted(kvs):
        script = kvs[ref]
        parts.append(ref)
        parts.append(encode_varint(len(script)))
        parts.append(script)
    return b"".join(parts)


@dataclass
class StoreModel:
    """Everything write_store puts on disk, with exact byte accounting.

    Each file is serialized on first use and reused after that, so any
    change to the records must come before the first read of the bytes.
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
    _files: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _file(self, name: str, serialize, records):
        if name not in self._files:
            self._files[name] = serialize(records)
        return self._files[name]

    def spine_bytes(self) -> bytes:
        return self._file(SPINE_FILE, _spine_file, self.spine)

    def bodies_bytes(self) -> bytes:
        return self._file(BODIES_FILE, _bodies_file, self.bodies)

    def kvs_bytes(self) -> bytes:
        return self._file(KVS_FILE, _kvs_file, self.kvs)

    @property
    def dedup_effective(self) -> bool:
        return bool(self.kvs)

    @property
    def retained_bytes(self) -> int:
        return len(self.spine_bytes()) + len(self.bodies_bytes()) + len(self.kvs_bytes())

    def manifest_text(self) -> str:
        return self._file(MANIFEST_FILE, StoreModel._manifest, self)

    def _manifest(self) -> str:
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
            sha256_spine=hashlib.sha256(self.spine_bytes()).hexdigest(),
            sha256_bodies=hashlib.sha256(self.bodies_bytes()).hexdigest(),
            sha256_kvs=hashlib.sha256(self.kvs_bytes()).hexdigest(),
        ).text()


# ---------------------------------------------------------------------------
# model construction


_NO_TALLY = (0,) * len(fields(SlackStats))


def _slack_records(txs, stored, witness_at, height, readable: dict, locator: dict, codec, kept):
    """The compact records of every tx of block ``height`` and the sum of
    their tallies, then the same for the minimized record that keeps only
    the positions in ``kept``.

    A prevout becomes a local (height, position) reference only when a
    reader decoding the body records in file order has that tx already:
    at an earlier height when ``readable`` (height -> tx positions a
    reader decodes there) holds it, at this height when it sits at an
    earlier position of the same record.  A kept tx takes its compact
    record unless a prevout resolved to a position the minimized record
    drops; only then is it encoded again, with those positions left
    unresolved.  Tallies are summed as they come.
    """
    drops = flagged = False  # drops: locate leaves the positions outside kept unresolved

    def locate(tx_hash):
        nonlocal flagged
        pos = locator.get(tx_hash)
        if pos is None:
            return None
        if pos[0] != height:
            return pos if pos[1] in readable.get(pos[0], ()) else None
        if pos[1] >= p:
            return None
        if pos[1] not in kept:
            flagged = True
            return None if drops else pos
        return pos

    records, kept_records = [], []
    total = kept_total = _NO_TALLY
    for p, tx in enumerate(txs):
        flagged = False
        record, tally = slack_record(tx, stored[p], witness_at[p], locate, codec)
        records.append(record)
        # a list: tuple(map(...)) resizes as it fills, and every 12-tuple it
        # leaves would sit unused in the interpreter's tuple free list
        total = list(map(add, total, tally))
        if p in kept:
            if flagged:
                drops = True
                record, tally = slack_record(tx, stored[p], witness_at[p], locate, codec)
                drops = False
            kept_records.append(record)
            kept_total = list(map(add, kept_total, tally))
    return records, total, kept_records, kept_total


def _candidates(block: Block, height: int, kept, copath, index, readable: dict, config, codec):
    """Yield the block's faithful records in tie-break order, each as (kind,
    payload, its slack tally or None, the tx positions a reader decodes),
    one at a time, so a caller that keeps only the best never holds all.
    ``copath`` is the serialized co-path of the kept txs, or None when the
    block has no minimized candidate.
    """
    txs = block.transactions
    every = range(len(txs))
    minimize = copath is not None
    decoded = set(kept) if minimize else ()
    # each tx's stored form and its witness offset, serialized once and shared
    # by the raw record, the slack records and the minimized-stored record
    stored, witness_at = [], []
    for tx in txs:
        raw, at = encode_with_witness_at(tx, codec)
        stored.append(raw)
        witness_at.append(at)
    yield KIND_RAW, join_block(block, stored), None, every
    if config.slack:
        count = encode_varint(VarInt(len(txs), block.tx_count_width))
        records, tally, kept_records, kept_tally = _slack_records(
            txs, stored, witness_at, height, readable, index.locator, codec, decoded
        )
        yield KIND_COMPACT, b"".join([count, *records]), tally, every
        del records  # the minimized-slack record below needs only the kept txs' ones
    if minimize:
        # payload: 1-byte kept-tx form (0 = stored, 1 = slack) + co-path serialization
        def minimized(tx_mode, records):
            return bytes([tx_mode]) + serialize_kept(len(txs), list(zip(kept, records))) + copath

        yield KIND_MINIMIZED, minimized(0, [stored[p] for p in kept]), None, decoded
        if config.slack:
            yield KIND_MINIMIZED, minimized(1, kept_records), kept_tally, decoded


def _encode_bodies(blocks, state, config, keep_from, minimized, codec):
    """One full encoding pass; returns (body records, slack stats, the
    tx positions a reader decodes at each height that has a record).

    Per block the shortest candidate payload wins, the earliest in
    :func:`_candidates` order on a tie.  Only the winner's slack tally
    is counted, so the stats reflect exactly the records chosen.
    """
    readable: dict = {}  # height -> tx positions a reader decodes there
    stats = SlackStats() if config.slack else None
    bodies = []
    for height in range(keep_from, len(blocks)):
        kept, copath = minimized.get(height, (None, None))
        if config.minimize and not kept:
            continue
        candidates = _candidates(
            blocks[height], height, kept, copath, state.index, readable, config, codec
        )
        # min() keeps the first of equal payloads
        kind, payload, tally, readable[height] = min(candidates, key=lambda c: len(c[1]))
        if tally is not None:
            stats.count(tally)
        bodies.append(BodyRecord(height, kind, payload))
    return bodies, stats, readable


def _script_sites(blocks, readable) -> Counter:
    """Occurrences of every script field the chosen body records store."""
    scripts = []  # in stored order, so the counter's first-seen order is the stores'
    extend = scripts.extend
    for height, positions in readable.items():
        txs = blocks[height].transactions
        for i in sorted(positions):
            tx = txs[i]
            extend([txin.script for txin in tx.inputs])
            extend([txout.script for txout in tx.outputs])
            for stack in tx.witnesses:
                extend(stack.items)
    return Counter(scripts)


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
    """
    blocks = list(blocks)
    if state is None:
        state = build_chain(blocks)
    tip = len(blocks) - 1

    threshold = None
    keep_from = 0
    if config.prune is not None and tip >= 0:
        cdf = None
        if config.prune.mode == "quantile":
            cdf = lifespan_cdf(state.spent_log, state.utxos, (0, tip), tip)
        threshold = config.prune.resolve(cdf)
        keep_from = prune_keep_from(tip, threshold)

    # height -> (ascending positions of txs that still carry UTXOs, serialized
    # co-path of them or None when none is dropped); the co-path depends only
    # on the txids, so both encoding passes share it
    minimized = {}
    if config.minimize:
        unspent = {op.tx_hash for op in state.utxos}
        for height in range(keep_from, len(blocks)):
            ids = state.index.txids[height]
            kept = [i for i, t in enumerate(ids) if t in unspent]
            drops = 0 < len(kept) < len(ids)
            minimized[height] = (kept, serialize_copath(copath_nodes(ids, kept)) if drops else None)
        del unspent  # free its table before the encoding passes

    bodies, stats, readable = _encode_bodies(
        blocks, state, config, keep_from, minimized, IDENTITY_CODEC
    )

    kvs: dict = {}
    if config.dedup:
        plan = dedup_scripts(_script_sites(blocks, readable))
        # the codec keeps each rewritten script with its reference, so the
        # plan, and its own set of them, is freed before the second pass
        codec = RefScriptCodec(plan.rewrite, plan.kvs) if plan.rewrite else None
        del plan
        if codec is not None:
            # the same heights get a record, so ``readable`` keeps its keys
            bodies_dedup, stats_dedup, _ = _encode_bodies(
                blocks, state, config, keep_from, minimized, codec
            )
            with_dedup = len(_bodies_file(bodies_dedup)) + len(_kvs_file(codec.kvs))
            if with_dedup < len(_bodies_file(bodies)):
                bodies, stats, kvs = bodies_dedup, stats_dedup, codec.kvs

    spine = [
        SpineRecord(entry.block_hash, blocks[height].header if height in readable else None)
        for height, entry in enumerate(state.index.spine[: tip + 1])
    ]
    return StoreModel(magic, tip, keep_from, config, threshold, spine, bodies, kvs, stats)


# ---------------------------------------------------------------------------
# disk I/O


def write_store(model: StoreModel, path: str) -> None:
    """Write the four store files; the manifest goes last."""
    os.makedirs(path, exist_ok=True)
    for name, data in [
        (SPINE_FILE, model.spine_bytes()),
        (BODIES_FILE, model.bodies_bytes()),
        (KVS_FILE, model.kvs_bytes()),
    ]:
        with open(os.path.join(path, name), "wb") as fh:
            fh.write(data)
    with open(os.path.join(path, MANIFEST_FILE), "w", encoding="ascii") as fh:
        fh.write(model.manifest_text())


def _parse_manifest(text: str) -> Manifest:
    head, sep, tail = text.rpartition("checksum=")
    if not sep or not head.endswith("\n"):
        raise StoreError("manifest is missing its checksum line")
    want = hashlib.sha256(head.encode("utf-8")).hexdigest()
    if tail.strip() != want:
        raise StoreError("manifest checksum mismatch")
    values = {}
    for lineno, line in enumerate(head.splitlines(), 1):
        if not line.strip():
            continue
        if "=" not in line:
            raise StoreError(f"manifest line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        values[key] = value
    missing = {f.name for f in fields(Manifest)} - set(values)
    if missing:
        raise StoreError(f"manifest is missing keys: {sorted(missing)}")
    try:
        parsed = {f.name: f.metadata["read"](values[f.name]) for f in fields(Manifest)}
        manifest = Manifest(**parsed)
    except ValueError as exc:
        raise StoreError(f"manifest has a malformed value: {exc}") from exc
    if manifest.format != FORMAT_VERSION:
        raise StoreError(
            f"unsupported store format {manifest.format} (this build reads {FORMAT_VERSION})"
        )
    return manifest


@dataclass
class StoreView:
    path: str
    manifest: Manifest
    spine: list
    bodies: list
    kvs: dict

    def codec(self):
        return RefScriptCodec(set(), self.kvs) if self.manifest.dedup else IDENTITY_CODEC


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
        if at + length.value > len(data):
            raise TruncationError(
                f"body record {index} claims {length.value} payload byte(s), file has "
                f"{len(data) - at} left",
                offset=offset,
            )
        bodies.append(BodyRecord(height.value, kind, bytes(data[at : at + length.value])))
        offset = at + length.value
    return bodies


def _parse_kvs(data: bytes) -> dict:
    kvs = {}
    offset = 0
    while offset < len(data):
        index = len(kvs)
        if offset + REF_LEN > len(data):
            raise TruncationError(f"KVS record {index} reference cut short", offset=offset)
        ref = bytes(data[offset : offset + REF_LEN])
        length, used = decode_varint(data, offset + REF_LEN)
        at = offset + REF_LEN + used
        if at + length.value > len(data):
            raise TruncationError(f"KVS record {index} script cut short", offset=offset)
        kvs[ref] = bytes(data[at : at + length.value])
        offset = at + length.value
    return kvs


def _read_file(path: str, name: str) -> bytes:
    try:
        with open(os.path.join(path, name), "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise StoreError(f"cannot read store file {name}: {exc}") from exc


def read_store(path: str) -> StoreView:
    """Parse a store directory; structural checks only, no hash checking."""
    try:
        with open(os.path.join(path, MANIFEST_FILE), encoding="ascii") as fh:
            manifest = _parse_manifest(fh.read())
    except OSError as exc:
        raise StoreError(f"cannot read store manifest: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StoreError(f"store manifest is not ASCII text: {exc}") from exc
    spine = _parse_spine(_read_file(path, SPINE_FILE))
    bodies = _parse_bodies(_read_file(path, BODIES_FILE))
    kvs = _parse_kvs(_read_file(path, KVS_FILE))
    if len(spine) != manifest.spine_count:
        raise StoreError(
            f"manifest says {manifest.spine_count} spine records, file has {len(spine)}"
        )
    if len(bodies) != manifest.body_count:
        raise StoreError(
            f"manifest says {manifest.body_count} body records, file has {len(bodies)}"
        )
    if len(kvs) != manifest.kvs_count:
        raise StoreError(f"manifest says {manifest.kvs_count} KVS records, file has {len(kvs)}")
    return StoreView(path, manifest, spine, bodies, kvs)


# ---------------------------------------------------------------------------
# decoding store content


@dataclass
class StoreContent:
    """Decoded store: full blocks where available, minimized views otherwise."""

    blocks: dict = field(default_factory=dict)  # height -> Block
    block_bytes: dict = field(default_factory=dict)  # height -> original block bytes
    minimized: dict = field(default_factory=dict)  # height -> MinimizedBlock
    txids: dict = field(default_factory=dict)  # (height, tx_index) -> txid of each decoded tx


def decode_store_content(view: StoreView) -> StoreContent:
    """Decode every body record in file order, resolving compact prevouts.

    Each restored transaction is serialized once; its wire bytes give
    both the block bytes and the txid recorded in ``txids``.
    """
    codec = view.codec()
    content = StoreContent()
    positions = content.txids

    def resolve(height, tx_index):
        return positions.get((height, tx_index))

    def restore(height, tx_index, tx):
        raw, positions[(height, tx_index)] = encode_with_txid(tx)
        return raw

    def spine_header(rec):
        header = view.spine[rec.height].header if rec.height < len(view.spine) else None
        if header is None:
            raise StoreError(
                f"{_KIND_NAMES[rec.kind]} record at height {rec.height} has no spine header"
            )
        return header

    for rec in view.bodies:
        if rec.kind == KIND_RAW:
            block = decode_block(rec.payload, codec)
            wire_txs = [restore(rec.height, i, tx) for i, tx in enumerate(block.transactions)]
            # identity-decoded txs are slices of the payload, which is the block
            raw = rec.payload if codec is IDENTITY_CODEC else join_block(block, wire_txs)
            content.blocks[rec.height] = block
            content.block_bytes[rec.height] = raw
        elif rec.kind == KIND_COMPACT:
            header = spine_header(rec)
            n_tx, offset = decode_varint(rec.payload, 0)
            if n_tx.value == 0:
                raise DecodeError(f"compact record at height {rec.height} has zero transactions")
            txs = []
            wire_txs = []
            for i in range(n_tx.value):
                tx, consumed = slack_restore_tx(rec.payload, resolve, offset, codec)
                offset += consumed
                wire_txs.append(restore(rec.height, i, tx))
                txs.append(tx)
            if offset != len(rec.payload):
                raise StoreError(
                    f"{len(rec.payload) - offset} stray byte(s) in compact record at height "
                    f"{rec.height}"
                )
            block = Block(header, txs, tx_count_width=n_tx.width)
            raw = join_block(block, wire_txs)
            block.raw_size_bytes = len(raw)
            content.blocks[rec.height] = block
            content.block_bytes[rec.height] = raw
        else:  # KIND_MINIMIZED
            header = spine_header(rec)
            if not rec.payload:
                raise TruncationError(f"minimized record at height {rec.height} is empty")
            tx_mode = rec.payload[0]
            if tx_mode not in (0, 1):
                raise StoreError(
                    f"minimized record at height {rec.height} has unknown tx encoding {tx_mode}"
                )
            mb = deserialize_minimized(
                rec.payload[1:], view.spine[rec.height].block_hash, header.merkle_root
            )
            if not mb.kept:
                raise DecodeError(f"minimized record at height {rec.height} keeps no transaction")
            for i, (pos, stored) in enumerate(mb.kept):
                if tx_mode == 1:
                    tx, consumed = slack_restore_tx(stored, resolve, 0, codec)
                else:
                    tx, consumed = decode_transaction(stored, 0, codec)
                if consumed != len(stored):
                    raise StoreError(
                        f"stray bytes after kept tx {pos} in minimized record at height "
                        f"{rec.height}"
                    )
                mb.kept[i] = (pos, restore(rec.height, pos, tx))
            mb.retained_bytes = len(rec.payload)
            content.minimized[rec.height] = mb
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

    A missing body below the prune threshold is by design, never a
    failure; a body record outside the retained range is one.
    """
    report = IntegrityReport()

    try:
        with open(os.path.join(path, MANIFEST_FILE), encoding="ascii") as fh:
            manifest = _parse_manifest(fh.read())
        report.add("manifest", None, True)
    except (OSError, UnicodeDecodeError, StoreError) as exc:
        report.add("manifest", None, False, str(exc))
        return report

    for name, filename in [("spine", SPINE_FILE), ("bodies", BODIES_FILE), ("kvs", KVS_FILE)]:
        try:
            digest = hashlib.sha256(_read_file(path, filename)).hexdigest()
            ok = digest == getattr(manifest, f"sha256_{name}")
            report.add(
                f"digest_{name}", None, ok, "" if ok else "file does not match manifest digest"
            )
        except StoreError as exc:
            report.add(f"digest_{name}", None, False, str(exc))

    try:
        view = read_store(path)
        report.add("structure", None, True)
    except (StoreError, DecodeError) as exc:
        report.add("structure", None, False, str(exc))
        return report

    if len(view.spine) != view.manifest.tip + 1:
        report.add(
            "spine_length",
            None,
            False,
            f"{len(view.spine)} spine records for tip {view.manifest.tip}",
        )
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

    try:
        content = decode_store_content(view)
        report.add("decode", None, True)
    except LedgerError as exc:  # corrupt payloads must report, not crash
        report.add("decode", None, False, f"{type(exc).__name__}: {exc}")
        return report

    # record kinds that a strategy flag left off never writes; checked once
    # the records decode, so a record that does not reports only that
    for rec in view.bodies:
        if rec.kind == KIND_COMPACT and not manifest.slack:
            report.add("body_kind", rec.height, False, "compact record without slack")
        if rec.kind == KIND_MINIMIZED and not manifest.minimize:
            report.add("body_kind", rec.height, False, "minimized record without minimize")
        if rec.kind == KIND_MINIMIZED and rec.payload[0] == 1 and not manifest.slack:
            report.add("body_kind", rec.height, False, "slack-encoded kept txs without slack")

    # Leaves come from the txids decoding computed.  A body past the end
    # of the spine has no hash to compare; the layout checks report it.
    for height, block in content.blocks.items():
        if height < len(view.spine) and block.block_hash() != view.spine[height].block_hash:
            report.add("block_hash", height, False, "body header does not match spine hash")
            continue
        root = merkle_root([content.txids[(height, i)] for i in range(len(block.transactions))])
        if root != block.header.merkle_root:
            report.add("merkle_root", height, False, "transactions do not hash to the header root")
    for height, mb in content.minimized.items():
        for pos, _ in mb.kept:
            if not verify_leaf_in_minimized(mb, pos, content.txids[(height, pos)]):
                report.add(
                    "copath", height, False, f"kept tx at position {pos} fails co-path verification"
                )
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
    magic: int = MAINNET_MAGIC,
) -> StorageReport:
    """Exact retained-bytes report for the strategy set and its singles.

    Builds the same store models write_store would persist and measures
    their serialized size, so estimate and compact always agree.
    """
    blocks = list(blocks)
    if state is None:
        state = build_chain(blocks)

    baseline = build_store_model(blocks, state, StrategyConfig(), magic).retained_bytes
    rows = [ReportRow("baseline", baseline, 0.0)]

    singles = [StrategyConfig(**{name: getattr(config, name)}) for name in config.enabled()]
    combined = [config] if len(singles) > 1 else []
    for cfg in singles + combined:
        # keep only the size, so each model and its serialized files are
        # freed before the next one is built
        retained = build_store_model(blocks, state, cfg, magic).retained_bytes
        rows.append(ReportRow(cfg.label(), retained, reduction_percent(baseline, retained)))
    return StorageReport(baseline, rows)
