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
- ``manifest.txt``: line-delimited key=value (format version, magic,
  strategy flags, counts, per-file SHA-256 digests).

Reported byte totals are the first three files exactly; the manifest is
bookkeeping overhead and excluded.  Body records decode self-contained
in file order: a compact transaction only references positions that an
ascending reader has already decoded.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from dataclasses import dataclass, field

from .analytics import lifespan_cdf
from .chain import ChainState, build_chain
from .errors import DecodeError, LedgerError, StoreError, TruncationError
from .strategies import (
    MinimizedBlock,
    RefScriptCodec,
    SlackStats,
    StrategyConfig,
    copath_nodes,
    dedup_scripts,
    deserialize_minimized,
    prune_keep_from,
    reduction_percent,
    serialize_minimized,
    slack_decode_tx,
    slack_encode,
    verify_tx_in_minimized,
)
from .wire import (
    IDENTITY_CODEC,
    MAINNET_MAGIC,
    Block,
    BlockHeader,
    OutPoint,
    VarInt,
    decode_block,
    decode_header,
    decode_transaction,
    decode_varint,
    encode_block,
    encode_transaction,
    encode_varint,
    merkle_root,
    txid,
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

_ALL = object()  # decodable-positions sentinel: every tx of the block


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
    dedup_effective: bool
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
    def retained_bytes(self) -> int:
        return len(self.spine_bytes()) + len(self.bodies_bytes()) + len(self.kvs_bytes())

    def manifest_text(self) -> str:
        return self._file(MANIFEST_FILE, StoreModel._manifest, self)

    def _manifest(self) -> str:
        digests = {
            "spine": hashlib.sha256(self.spine_bytes()).hexdigest(),
            "bodies": hashlib.sha256(self.bodies_bytes()).hexdigest(),
            "kvs": hashlib.sha256(self.kvs_bytes()).hexdigest(),
        }
        threshold = self.prune_threshold if self.prune_threshold is not None else -1
        lines = [
            f"format={FORMAT_VERSION}",
            f"magic={self.magic:08x}",
            f"tip={self.tip}",
            f"keep_from={self.keep_from}",
            f"prune={1 if self.config.prune is not None else 0}",
            f"prune_threshold={threshold}",
            f"minimize={1 if self.config.minimize else 0}",
            f"slack={1 if self.config.slack else 0}",
            f"dedup_requested={1 if self.config.dedup else 0}",
            f"dedup={1 if self.dedup_effective else 0}",
            f"spine_count={len(self.spine)}",
            f"body_count={len(self.bodies)}",
            f"kvs_count={len(self.kvs)}",
            f"sha256_spine={digests['spine']}",
            f"sha256_bodies={digests['bodies']}",
            f"sha256_kvs={digests['kvs']}",
        ]
        body = "\n".join(lines) + "\n"
        # Trailing self-checksum covers every earlier manifest byte, so a
        # flipped digit in tip/keep_from/flags cannot masquerade as a
        # different but internally consistent store.
        check = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return body + f"checksum={check}\n"


# ---------------------------------------------------------------------------
# model construction


def _unspent_positions(block: Block, height: int, state: ChainState) -> set:
    """Positions of txs in this block that still carry UTXOs."""
    keep = set()
    ids = state.index.txids[height]
    for i, tx in enumerate(block.transactions):
        t = ids[i]
        for j in range(len(tx.outputs)):
            if OutPoint(t, j) in state.utxos:
                keep.add(i)
                break
    return keep


class _Locators:
    """Which (height, tx position) pairs an ascending reader can resolve."""

    def __init__(self, chain_locator: dict):
        self.chain = chain_locator
        self.decodable: dict = {}

    def register(self, height: int, positions) -> None:
        self.decodable[height] = positions

    def for_tx(self, height: int, tx_index: int, same_block):
        """Locator for encoding tx ``tx_index`` of block ``height``;
        ``same_block`` is _ALL or the set of positions kept alongside it."""

        def locate(tx_hash):
            pos = self.chain.get(tx_hash)
            if pos is None:
                return None
            h2, i2 = pos
            if h2 > height or (h2 == height and i2 >= tx_index):
                return None
            if h2 == height:
                return pos if (same_block is _ALL or i2 in same_block) else None
            entry = self.decodable.get(h2)
            if entry is None:
                return None
            return pos if (entry is _ALL or i2 in entry) else None

        return locate


def _encode_compact_payload(
    block: Block, height: int, locators: _Locators, codec, stats: SlackStats
) -> bytes:
    parts = [encode_varint(VarInt(len(block.transactions), block.tx_count_width))]
    for i, tx in enumerate(block.transactions):
        parts.append(slack_encode(tx, locators.for_tx(height, i, _ALL), stats, codec))
    return b"".join(parts)


def _encode_minimized_payload(
    block: Block, height: int, kept: set, ids: list, locators: _Locators, codec, slack_on: bool
) -> tuple[bytes, SlackStats | None]:
    """Minimized record payload: 1-byte kept-tx encoding flag (0 = stored
    form, 1 = compact form) + the co-path serialization.  With slack on,
    both encodings are tried and the smaller wins, so enabling slack can
    never grow a minimized record.  Returns the payload and, when the
    compact form won, the slack stats of its kept txs."""
    positions = sorted(kept)
    nodes = copath_nodes(ids, positions)

    def payload_for(flag, kept_list):
        mb = MinimizedBlock(
            block.block_hash(), block.header.merkle_root, "copath", len(ids), kept_list, nodes
        )
        return bytes([flag]) + serialize_minimized(mb)

    txs = block.transactions
    best = payload_for(0, [(p, encode_transaction(txs[p], codec)) for p in positions])
    if slack_on:
        stats = SlackStats()
        candidate = payload_for(
            1,
            [(p, slack_encode(txs[p], locators.for_tx(height, p, kept), stats, codec)) for p in positions],
        )
        if len(candidate) < len(best):
            return candidate, stats
    return best, None


def _encode_bodies(blocks, state, config, keep_from, kept_by_height, codec):
    """One full encoding pass; returns (body records, slack stats).

    Each candidate record counts its own slack stats, and only the
    winner's are kept, so the stats reflect exactly the records chosen.
    """
    locators = _Locators(state.index.locator)
    stats = SlackStats() if config.slack else None
    bodies = []
    for height in range(keep_from, len(blocks)):
        block = blocks[height]
        kept = kept_by_height.get(height)
        if config.minimize and not kept:
            locators.register(height, set())
            continue

        kind, payload, payload_stats = KIND_RAW, encode_block(block, codec), None
        if config.slack:
            compact_stats = SlackStats()
            compact_payload = _encode_compact_payload(block, height, locators, codec, compact_stats)
            if len(compact_payload) < len(payload):
                kind, payload, payload_stats = KIND_COMPACT, compact_payload, compact_stats
        if config.minimize and len(kept) < len(block.transactions):
            minimized_payload, minimized_stats = _encode_minimized_payload(
                block, height, kept, state.index.txids[height], locators, codec, config.slack
            )
            if len(minimized_payload) < len(payload):
                kind, payload, payload_stats = KIND_MINIMIZED, minimized_payload, minimized_stats

        if payload_stats is not None:
            stats.add(payload_stats)
        bodies.append(BodyRecord(height, kind, payload))
        locators.register(height, kept if kind == KIND_MINIMIZED else _ALL)
    return bodies, stats


def _script_sites(blocks, bodies, kept_by_height) -> Counter:
    """Occurrences of every script field the chosen body records store."""
    counts: Counter = Counter()
    for rec in bodies:
        block = blocks[rec.height]
        kept = kept_by_height.get(rec.height) if rec.kind == KIND_MINIMIZED else None
        for i, tx in enumerate(block.transactions):
            if kept is not None and i not in kept:
                continue
            for txin in tx.inputs:
                counts[txin.script] += 1
            for stack in tx.witnesses:
                for item in stack.items:
                    counts[item] += 1
            for txout in tx.outputs:
                counts[txout.script] += 1
    return counts


def build_store_model(
    blocks,
    state: ChainState | None = None,
    config: StrategyConfig = StrategyConfig(),
    magic: int = MAINNET_MAGIC,
) -> StoreModel:
    """Apply the strategy set and lay out the store, without touching disk.

    Strategies compose per block: the smallest faithful record wins, so
    enabling one never grows that block's record.  Requested dedup is
    dropped (recorded in the manifest) unless its exact effect on body
    file + KVS bytes is a net saving.
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

    kept_by_height = {}
    if config.minimize:
        for height in range(keep_from, len(blocks)):
            kept_by_height[height] = _unspent_positions(blocks[height], height, state)

    bodies, stats = _encode_bodies(blocks, state, config, keep_from, kept_by_height, IDENTITY_CODEC)

    dedup_effective = False
    kvs: dict = {}
    if config.dedup:
        plan = dedup_scripts(_script_sites(blocks, bodies, kept_by_height))
        if plan.rewrite:
            codec = RefScriptCodec(plan.rewrite, plan.kvs)
            bodies_dedup, stats_dedup = _encode_bodies(
                blocks, state, config, keep_from, kept_by_height, codec
            )
            with_dedup = len(_bodies_file(bodies_dedup)) + len(_kvs_file(plan.kvs))
            if with_dedup < len(_bodies_file(bodies)):
                dedup_effective = True
                bodies = bodies_dedup
                stats = stats_dedup
                kvs = plan.kvs

    with_body = {rec.height for rec in bodies}
    spine = []
    for height in range(tip + 1):
        entry = state.index.spine[height]
        header = blocks[height].header if height in with_body else None
        spine.append(SpineRecord(entry.block_hash, header))

    return StoreModel(
        magic=magic,
        tip=tip,
        keep_from=keep_from,
        config=config,
        dedup_effective=dedup_effective,
        prune_threshold=threshold,
        spine=spine,
        bodies=bodies,
        kvs=kvs,
        slack_stats=stats,
    )


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


@dataclass
class Manifest:
    format: int
    magic: int
    tip: int
    keep_from: int
    prune: bool
    prune_threshold: int | None
    minimize: bool
    slack: bool
    dedup_requested: bool
    dedup: bool
    spine_count: int
    body_count: int
    kvs_count: int
    digests: dict


_MANIFEST_KEYS = {
    "format",
    "magic",
    "tip",
    "keep_from",
    "prune",
    "prune_threshold",
    "minimize",
    "slack",
    "dedup_requested",
    "dedup",
    "spine_count",
    "body_count",
    "kvs_count",
    "sha256_spine",
    "sha256_bodies",
    "sha256_kvs",
}


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
    missing = _MANIFEST_KEYS - set(values)
    if missing:
        raise StoreError(f"manifest is missing keys: {sorted(missing)}")
    try:
        fmt = int(values["format"])
        if fmt != FORMAT_VERSION:
            raise StoreError(f"unsupported store format {fmt} (this build reads {FORMAT_VERSION})")
        threshold = int(values["prune_threshold"])
        return Manifest(
            format=fmt,
            magic=int(values["magic"], 16),
            tip=int(values["tip"]),
            keep_from=int(values["keep_from"]),
            prune=values["prune"] == "1",
            prune_threshold=None if threshold < 0 else threshold,
            minimize=values["minimize"] == "1",
            slack=values["slack"] == "1",
            dedup_requested=values["dedup_requested"] == "1",
            dedup=values["dedup"] == "1",
            spine_count=int(values["spine_count"]),
            body_count=int(values["body_count"]),
            kvs_count=int(values["kvs_count"]),
            digests={
                "spine": values["sha256_spine"],
                "bodies": values["sha256_bodies"],
                "kvs": values["sha256_kvs"],
            },
        )
    except ValueError as exc:
        raise StoreError(f"manifest has a malformed value: {exc}") from exc


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
        if offset + 8 > len(data):
            raise TruncationError(f"KVS record {index} reference cut short", offset=offset)
        ref = bytes(data[offset : offset + 8])
        length, used = decode_varint(data, offset + 8)
        at = offset + 8 + used
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


def decode_store_content(view: StoreView) -> StoreContent:
    """Decode every body record in file order, resolving compact prevouts."""
    codec = view.codec()
    content = StoreContent()
    positions: dict = {}

    def resolve(height, tx_index):
        return positions.get((height, tx_index))

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
            raw = rec.payload if codec is IDENTITY_CODEC else encode_block(block)
            for i, tx in enumerate(block.transactions):
                positions[(rec.height, i)] = txid(tx)
            content.blocks[rec.height] = block
            content.block_bytes[rec.height] = raw
        elif rec.kind == KIND_COMPACT:
            header = spine_header(rec)
            n_tx, offset = decode_varint(rec.payload, 0)
            txs = []
            for i in range(n_tx.value):
                tx, consumed = slack_decode_tx(rec.payload, resolve, offset, codec)
                offset += consumed
                positions[(rec.height, i)] = txid(tx)
                txs.append(tx)
            if offset != len(rec.payload):
                raise StoreError(
                    f"{len(rec.payload) - offset} stray byte(s) in compact record at height "
                    f"{rec.height}"
                )
            block = Block(header, txs, tx_count_width=n_tx.width)
            raw = encode_block(block)
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
            stored_mb = deserialize_minimized(
                rec.payload[1:], view.spine[rec.height].block_hash, header.merkle_root
            )
            kept = []
            for pos, stored in stored_mb.kept:
                if tx_mode == 1:
                    tx, consumed = slack_decode_tx(stored, resolve, 0, codec)
                else:
                    tx, consumed = decode_transaction(stored, 0, codec)
                if consumed != len(stored):
                    raise StoreError(
                        f"stray bytes after kept tx {pos} in minimized record at height "
                        f"{rec.height}"
                    )
                positions[(rec.height, pos)] = txid(tx)
                kept.append((pos, encode_transaction(tx)))
            content.minimized[rec.height] = MinimizedBlock(
                stored_mb.block_hash,
                stored_mb.merkle_root,
                "copath",
                stored_mb.n_leaves,
                kept,
                stored_mb.nodes,
                retained_bytes=len(rec.payload),
            )
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
    """Verify digests, spine continuity, Merkle roots and co-paths.

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
            ok = digest == manifest.digests[name]
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
        if rec.height < view.manifest.keep_from or rec.height > view.manifest.tip:
            report.add("body_height", rec.height, False, "body record outside the retained range")
        seen_heights.append(rec.height)
    if seen_heights != sorted(set(seen_heights)):
        report.add("body_order", None, False, "body heights are not strictly ascending")
    for ref, script in view.kvs.items():
        if hashlib.sha256(script).digest()[:8] != ref:
            report.add("kvs_ref", None, False, f"reference {ref.hex()} does not match its script")
    report.section("layout")

    try:
        content = decode_store_content(view)
        report.add("decode", None, True)
    except LedgerError as exc:  # corrupt payloads must report, not crash
        report.add("decode", None, False, f"{type(exc).__name__}: {exc}")
        return report

    for height, block in content.blocks.items():
        if block.block_hash() != view.spine[height].block_hash:
            report.add("block_hash", height, False, "body header does not match spine hash")
            continue
        root = merkle_root([txid(tx) for tx in block.transactions])
        if root != block.header.merkle_root:
            report.add("merkle_root", height, False, "transactions do not hash to the header root")
    for height, mb in content.minimized.items():
        for pos, _ in mb.kept:
            if not verify_tx_in_minimized(mb, pos):
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

    singles = []
    if config.prune is not None:
        singles.append(StrategyConfig(prune=config.prune))
    if config.minimize:
        singles.append(StrategyConfig(minimize=True))
    if config.slack:
        singles.append(StrategyConfig(slack=True))
    if config.dedup:
        singles.append(StrategyConfig(dedup=True))

    combined = [config] if len(singles) > 1 else []
    for cfg in singles + combined:
        # keep only the size, so each model and its serialized files are
        # freed before the next one is built
        retained = build_store_model(blocks, state, cfg, magic).retained_bytes
        rows.append(ReportRow(cfg.label(), retained, reduction_percent(baseline, retained)))
    return StorageReport(baseline, rows)
