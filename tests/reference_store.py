"""Frozen reference for the store reader and ``verify``'s integrity check.

These are ``read_store``, the ``_parse_*`` file parsers (with
``strategies.deserialize_minimized`` as ``_parse_minimized``),
``decode_store_content`` and ``integrity_check`` as ``ledgerpack.store``
had them once every record kind, manifest rule and layout check was in
place.  Transactions decode through the field-by-field reference
decoders of ``tests/reference_wire.py`` and ``tests/reference_slack.py``.
The manifest is a namespace of its parsed values, and a report is a
list of ``(name, height, ok, detail)`` rows.
``tests/test_reference_store.py`` requires the store's reader to give
equal results and raise the same errors (class and message) on every
input.  Do not edit these functions to follow changes in ``store``; they
are the fixed point the reader is compared with.
"""

import hashlib
import os
from dataclasses import dataclass, field
from types import SimpleNamespace

from ledgerpack.errors import DecodeError, LedgerError, StoreError, TruncationError
from ledgerpack.strategies import (
    REF_LEN,
    MinimizedBlock,
    RefScriptCodec,
    prune_keep_from,
    script_ref,
    verify_leaf_in_minimized,
)
from ledgerpack.wire import (
    IDENTITY_CODEC,
    Block,
    BlockHeader,
    decode_header,
    decode_varint,
    encode_with_txid,
    join_block,
    merkle_root,
)

from reference_slack import slack_decode_tx
from reference_wire import decode_block, decode_transaction

SPINE_FILE = "spine.bin"
BODIES_FILE = "bodies.bin"
KVS_FILE = "scripts.kvs"
MANIFEST_FILE = "manifest.txt"

KIND_RAW = 0x01
KIND_MINIMIZED = 0x02
KIND_COMPACT = 0x03
_KIND_NAMES = {KIND_RAW: "raw", KIND_MINIMIZED: "minimized", KIND_COMPACT: "compact"}

FORMAT_VERSION = 1


def _read_threshold(text: str):
    value = int(text)
    if value < -1:
        raise ValueError(f"prune threshold {value} is below -1")
    return None if value == -1 else value


# How a manifest value is written, and how its text is read back; the
# reader accepts a value only when writing it back gives the same text
_NUMBER = {"write": str, "read": int}
_FLAG = {"write": lambda flag: str(int(flag)), "read": lambda text: bool(int(text))}
_HEX32 = {"write": "{:08x}".format, "read": lambda text: int(text, 16)}
# -1 stands for no threshold
_THRESHOLD = {"write": lambda value: str(-1 if value is None else value), "read": _read_threshold}
_TEXT = {"write": str, "read": str}

# the manifest's keys in line order, each with its text rule
MANIFEST_FIELDS = (
    ("format", _NUMBER),
    ("magic", _HEX32),
    ("tip", _NUMBER),
    ("keep_from", _NUMBER),
    ("prune", _FLAG),
    ("prune_threshold", _THRESHOLD),
    ("minimize", _FLAG),
    ("slack", _FLAG),
    ("dedup_requested", _FLAG),
    ("dedup", _FLAG),
    ("spine_count", _NUMBER),
    ("body_count", _NUMBER),
    ("kvs_count", _NUMBER),
    ("sha256_spine", _TEXT),
    ("sha256_bodies", _TEXT),
    ("sha256_kvs", _TEXT),
)


@dataclass
class SpineRecord:
    block_hash: bytes
    header: BlockHeader | None = None


@dataclass
class BodyRecord:
    height: int
    kind: int
    payload: bytes


@dataclass
class StoreView:
    path: str
    manifest: SimpleNamespace  # one attribute per MANIFEST_FIELDS key
    spine: list
    bodies: list
    kvs: dict

    def codec(self):
        return RefScriptCodec(set(), self.kvs) if self.manifest.dedup else IDENTITY_CODEC


@dataclass
class StoreContent:
    blocks: dict = field(default_factory=dict)  # height -> Block
    block_bytes: dict = field(default_factory=dict)  # height -> original block bytes
    minimized: dict = field(default_factory=dict)  # height -> MinimizedBlock
    txids: dict = field(default_factory=dict)  # (height, tx_index) -> txid of each decoded tx


@dataclass
class IntegrityReport:
    rows: list = field(default_factory=list)  # (name, height, ok, detail)

    def add(self, name, height, ok, detail=""):
        self.rows.append((name, height, ok, detail))

    def section(self, name):
        """Append a summary success row unless something already failed."""
        if all(row[2] for row in self.rows):
            self.add(name, None, True)


def _read_value(name, rule, text: str):
    try:
        value = rule["read"](text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    written = rule["write"](value)
    if written != text:
        raise ValueError(f"{name} {text!r} is not its written form {written!r}")
    return value


def _parse_manifest(text: str) -> SimpleNamespace:
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
    missing = {name for name, _ in MANIFEST_FIELDS} - set(values)
    if missing:
        raise StoreError(f"manifest is missing keys: {sorted(missing)}")
    try:
        manifest = SimpleNamespace(
            **{name: _read_value(name, rule, values[name]) for name, rule in MANIFEST_FIELDS}
        )
    except ValueError as exc:
        raise StoreError(f"manifest has a malformed value: {exc}") from exc
    if manifest.format != FORMAT_VERSION:
        raise StoreError(
            f"unsupported store format {manifest.format} (this build reads {FORMAT_VERSION})"
        )
    return manifest


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


def _parse_minimized(payload: bytes, block_hash: bytes, merkle_root: bytes) -> MinimizedBlock:
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


def decode_store_content(view: StoreView) -> StoreContent:
    """Decode every body record in file order, resolving compact prevouts."""
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
                tx, consumed = slack_decode_tx(rec.payload, resolve, offset, codec)
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
            mb = _parse_minimized(
                rec.payload[1:], view.spine[rec.height].block_hash, header.merkle_root
            )
            if not mb.kept:
                raise DecodeError(f"minimized record at height {rec.height} keeps no transaction")
            for i, (pos, stored) in enumerate(mb.kept):
                if tx_mode == 1:
                    tx, consumed = slack_decode_tx(stored, resolve, 0, codec)
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


def integrity_check(path: str) -> IntegrityReport:
    """Verify digests, spine continuity, the manifest's strategy fields
    against the records, Merkle roots and co-paths."""
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
    if not manifest.minimize:
        for height in range(max(manifest.keep_from, 0), min(manifest.tip + 1, len(view.spine))):
            if height not in with_body:
                report.add("body_missing", height, False, "retained height has no body record")
    report.section("layout")

    try:
        content = decode_store_content(view)
        report.add("decode", None, True)
    except LedgerError as exc:
        report.add("decode", None, False, f"{type(exc).__name__}: {exc}")
        return report

    for rec in view.bodies:
        if rec.kind == KIND_COMPACT and not manifest.slack:
            report.add("body_kind", rec.height, False, "compact record without slack")
        if rec.kind == KIND_MINIMIZED and not manifest.minimize:
            report.add("body_kind", rec.height, False, "minimized record without minimize")
        if rec.kind == KIND_MINIMIZED and rec.payload[0] == 1 and not manifest.slack:
            report.add("body_kind", rec.height, False, "slack-encoded kept txs without slack")

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
