"""The store reader against its frozen reference in ``tests/reference_store.py``.

For each store below, ``read_store`` then ``decode_store_content`` must
give what the reference gives: the manifest values, the spine, body and
KVS records, each block with its bytes, each txid, and each minimized
block's kept txs and co-path nodes.  Otherwise both must raise the same
exception class with the same message.  ``integrity_check`` must give
the same rows.  The stores are:

- the 32 golden stores of ``tests/test_golden.py``;
- the seeded mutations of ``tests/test_store_mutations.py`` (spine, KVS
  and manifest byte flips, replaced manifest values) and the seeded body
  flips of ``tests/test_store_contract.py``;
- the rewritten body framings of ``tests/test_verify_framing.py``, and
  each body record with one junk byte appended to its payload;
- the re-stamped manifests, the rewritten manifests, the manifests
  read as bytes, the store missing a body and the empty pruned store of
  ``tests/test_manifest_consistency.py``;
- the minimized records with bad kept positions of
  ``tests/test_store_kept_positions.py``;
- two minimize stores with edited body records: one that fails each
  content check at interleaved heights, and one where a record with a
  bad Merkle root comes before a record that does not decode.

A change that means the readers to differ lists each store it affects
by name in ``INTENDED_DIFFERENCES``: the rewritten manifests, the
manifests read as bytes, the five rewritten framings where two body
records share a height, and the six golden dedup stores with raw
records.  A raw record read from a dedup store gives its block the size
of its wire bytes, where the frozen reader gives the size of the
reference-framed payload; on the seeded body flips and rewritten
framings of the ``minimize+dedup`` store, which have raw records too,
that is the one difference allowed, and only when it is exactly that.
"""

import dataclasses
import io
import os
import random

import pytest

import reference_store as ref
from ledgerpack import cli, store
from ledgerpack.chain import build_chain
from ledgerpack.fixture import gen_chain
from ledgerpack.store import BODIES_FILE, KVS_FILE, MANIFEST_FILE, SPINE_FILE, build_store_model, write_store
from ledgerpack.strategies import StrategyConfig
from ledgerpack.wire import read_block_stream

import test_manifest_consistency as consistency
from test_golden import CHAINS, all_configs
from test_manifest_consistency import chain as consistency_chain  # noqa: F401  (module fixture)
from test_store_contract import MUTATED_CONFIGS, MUTATIONS_PER_STORE, chain  # noqa: F401
from test_store_kept_positions import BAD_POSITIONS, _store_with_positions
from test_store_mutations import MANIFEST_VALUES, MUTATIONS_PER_FILE, STORE_LABELS, _flip, _stamp
from test_verify_framing import _frame, _restamp_bodies_digest

# Two body records share a height: the frozen reader checks the earlier
# one against the txids the later one overwrote, and the walk checks each
# record against the txids decoded with it.  Both report body_order.
SHARED_HEIGHT = "the frozen reader checks a record against txids a later record overwrote"

# A raw record read from a dedup store: the frozen reader sizes its block
# by the reference-framed payload, the walk by the block's wire bytes.
WIRE_SIZE = "the frozen reader sizes a dedup raw record's block by its payload"

# store name -> why the two readers give different results on it
INTENDED_DIFFERENCES = {
    f"consistency/rewritten/{name}": "the frozen reader accepts a manifest not in its written form"
    for name in [
        "extra_line",
        "repeated_tip",
        "earlier_keep_from",
        "reversed_lines",
        "leading_blank_line",
        "padded_checksum",
    ]
} | {
    f"consistency/bytes/{name}": "the frozen reader reads the manifest in text mode"
    for name in ["crlf_old_checksum", "crlf_restamped", "missing"]
} | {
    f"framing/minimize+dedup/{name}": SHARED_HEIGHT
    for name in ["8/1/10/487", "9/2/11/291", "12/1/14/595", "13/2/15/449", "18/1/20/440"]
} | {
    f"golden/{name}": WIRE_SIZE
    for name in [
        "plain/dedup",
        "plain/minimize+dedup",
        "heavy/dedup",
        "heavy/minimize+dedup",
        "heavy/prune+dedup",
        "heavy/prune+minimize+dedup",
    ]
}
# the mutation suites whose stores may differ by WIRE_SIZE alone
WIRE_SIZE_SUITES = ("bodies/minimize+dedup/", "framing/minimize+dedup/")


def _read(reader, path):
    """What a reader makes of a store, or the error it raises."""
    try:
        view = reader.read_store(path)
        content = reader.decode_store_content(view)
    except Exception as exc:  # compared by class and message
        return "raised", type(exc), str(exc)
    return (
        "read",
        {name: getattr(view.manifest, name) for name, _ in ref.MANIFEST_FIELDS},
        [(rec.block_hash, rec.header) for rec in view.spine],
        [(rec.height, rec.kind, rec.payload) for rec in view.bodies],
        view.kvs,
        content.blocks,
        content.block_bytes,
        content.txids,
        {height: (mb.kept, mb.nodes) for height, mb in content.minimized.items()},
    )


def _wire_sized(read):
    """A reader's result with each decoded block sized by its wire bytes."""
    if read[0] != "read":
        return read
    blocks, block_bytes = read[5], read[6]
    sized = {h: dataclasses.replace(block, raw_size_bytes=len(block_bytes[h])) for h, block in blocks.items()}
    return (*read[:5], sized, *read[6:])


def _compare(name, path):
    got = _read(store, path), [(c.name, c.height, c.ok, c.detail) for c in store.integrity_check(path).checks]
    want = _read(ref, path), ref.integrity_check(path).rows
    reason = INTENDED_DIFFERENCES.get(name)
    if reason is not None:
        assert got != want, f"{name} is listed as a difference, but the readers agree"
    if reason == WIRE_SIZE or (got[0] != want[0] and name.startswith(WIRE_SIZE_SUITES)):
        want = _wire_sized(want[0]), want[1]
    if reason == SHARED_HEIGHT:
        assert got[0] == want[0], name
        assert ("body_order", None, False, "body heights are not strictly ascending") in got[1]
    elif reason in (None, WIRE_SIZE):
        assert got[0] == want[0], name
        assert got[1] == want[1], name


def _write_model(blocks, state, config, path):
    write_store(build_store_model(blocks, state, config), path)
    return path


def _write(path, name, data):
    with open(os.path.join(path, name), "wb") as fh:
        fh.write(data)


@pytest.mark.parametrize("chain_name", list(CHAINS))
def test_golden_stores(tmp_path, chain_name):
    data, _ = gen_chain(CHAINS[chain_name])
    blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
    state = build_chain(blocks)
    configs = list(all_configs())
    assert len(configs) == 16
    for config in configs:
        label = config.label()
        path = _write_model(blocks, state, config, str(tmp_path / label))
        _compare(f"golden/{chain_name}/{label}", path)


@pytest.mark.parametrize("filename", [SPINE_FILE, KVS_FILE, MANIFEST_FILE])
@pytest.mark.parametrize("label", STORE_LABELS)
def test_flipped_store_files(chain, tmp_path, label, filename):
    blocks, state = chain
    path = _write_model(blocks, state, MUTATED_CONFIGS[label], str(tmp_path / "store"))
    with open(os.path.join(path, filename), "rb") as fh:
        clean = fh.read()
    rng = random.Random(f"{label}-{filename}-mutations")
    for i in range(MUTATIONS_PER_FILE):
        if filename == MANIFEST_FILE:
            mutated = _stamp(_flip(clean[: clean.rindex(b"checksum=")], rng))
        else:
            mutated = _flip(clean, rng)
        _write(path, filename, mutated)
        _compare(f"flip/{label}/{filename}/{i}", path)


@pytest.mark.parametrize("value", MANIFEST_VALUES, ids=repr)
@pytest.mark.parametrize("label", STORE_LABELS)
def test_replaced_manifest_values(chain, tmp_path, label, value):
    blocks, state = chain
    path = _write_model(blocks, state, MUTATED_CONFIGS[label], str(tmp_path / "store"))
    with open(os.path.join(path, MANIFEST_FILE), encoding="ascii") as fh:
        lines = fh.read().splitlines()[:-1]
    for i, line in enumerate(lines):
        key = line.partition("=")[0]
        body = lines[:i] + [f"{key}={value}"] + lines[i + 1 :]
        _write(path, MANIFEST_FILE, _stamp("".join(f"{b}\n" for b in body).encode("ascii")))
        _compare(f"manifest/{label}/{key}={value}", path)


@pytest.mark.parametrize("label", list(MUTATED_CONFIGS))
def test_flipped_body_bytes(chain, tmp_path, label):
    blocks, state = chain
    path = _write_model(blocks, state, MUTATED_CONFIGS[label], str(tmp_path / "store"))
    with open(os.path.join(path, BODIES_FILE), "rb") as fh:
        clean = fh.read()
    rng = random.Random(f"{label}-mutations")
    for i in range(MUTATIONS_PER_STORE):
        mutated = bytearray(clean)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] ^= rng.randint(1, 255)
        _write(path, BODIES_FILE, mutated)
        _compare(f"bodies/{label}/{i}", path)


@pytest.mark.parametrize("label", list(MUTATED_CONFIGS))
def test_rewritten_framing(chain, tmp_path, label):
    blocks, state = chain
    model = build_store_model(blocks, state, MUTATED_CONFIGS[label])
    path = str(tmp_path / "store")
    write_store(model, path)
    frames = [_frame(r.kind, r.height, len(r.payload), r.payload) for r in model.bodies]
    tip = len(blocks) - 1
    kinds = (0x00, store.KIND_RAW, store.KIND_MINIMIZED, store.KIND_COMPACT, 0xFF)
    for i, rec in enumerate(model.bodies):
        n = len(rec.payload)
        rewrites = [(kind, rec.height, n) for kind in kinds if kind != rec.kind]
        rewrites.append((rec.kind, tip + 1, n))
        if rec.height > 0:
            rewrites.append((rec.kind, rec.height - 1, n))
        rewrites += [(rec.kind, rec.height, n + 1), (rec.kind, rec.height, n - 1)]
        variants = [(f"{k}/{h}/{ln}", _frame(k, h, ln, rec.payload)) for k, h, ln in rewrites]
        variants.append(("junk", _frame(rec.kind, rec.height, n + 1, rec.payload + b"\x00")))
        for what, frame in variants:
            _restamp_bodies_digest(path, b"".join(frames[:i] + [frame] + frames[i + 1 :]))
            _compare(f"framing/{label}/{i}/{what}", path)


def _cases(test):
    """The parameter rows of a test's ``parametrize`` mark."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return mark.args[1]


def _consistency_probes():
    """(name, config, manifest key, re-stamped value) for each store the
    probes of ``tests/test_manifest_consistency.py`` write; key None
    leaves the manifest as written."""
    prune = StrategyConfig(prune=consistency.PRUNE)
    probes = [("clean", prune, None, None)]
    for key, value, _ in _cases(consistency.test_restamped_prune_store_fails_verify):
        probes.append((f"restamped/{key}={value}", prune, key, value))
    for config, key, value, _ in _cases(consistency.test_flag_without_its_records_fails_verify):
        probes.append((f"unbacked/{config.label()}/{key}={value}", config, key, value))
    for key, text in _cases(consistency.test_malformed_flag_or_threshold_is_rejected):
        probes.append((f"malformed/{key}={text!r}", prune, key, text))
    for key, text, _ in _cases(consistency.test_a_value_is_read_only_in_its_written_form):
        probes.append((f"written_form/{key}={text!r}", prune, key, text))
    for text, _ in _cases(consistency.test_threshold_reads_minus_one_as_none):
        probes.append((f"threshold/{text}", prune, "prune_threshold", text))
    return probes


def test_manifest_probes(consistency_chain, tmp_path):
    for i, (name, config, key, value) in enumerate(_consistency_probes()):
        path = consistency._store(consistency_chain, tmp_path / str(i), config)
        if key is not None:
            consistency._restamp(path, key, value)
        _compare(f"consistency/{name}", path)


def test_rewritten_manifests(consistency_chain, tmp_path):
    for name, rewrite in consistency.REWRITTEN_MANIFESTS.items():
        path = consistency._store(consistency_chain, tmp_path / name, StrategyConfig(prune=consistency.PRUNE))
        consistency._rewrite_manifest(path, rewrite)
        _compare(f"consistency/rewritten/{name}", path)


def test_manifests_read_as_bytes(consistency_chain, tmp_path):
    for name, edit in consistency.BYTES_MANIFESTS.items():
        path = consistency._store(consistency_chain, tmp_path / name, StrategyConfig(prune=consistency.PRUNE))
        edit(path)
        _compare(f"consistency/bytes/{name}", path)


def test_missing_body(consistency_chain, tmp_path):
    def drop_15(model):
        model.bodies[:] = [rec for rec in model.bodies if rec.height != 15]

    path = consistency._store(consistency_chain, tmp_path, StrategyConfig(prune=consistency.PRUNE), drop_15)
    _compare("consistency/missing_body", path)


def test_empty_pruned_chain(tmp_path):
    chain_file, path = str(tmp_path / "empty.dat"), str(tmp_path / "store")
    assert cli.main(["genchain", chain_file, "--blocks", "0"]) == 0
    assert cli.main(["compact", chain_file, path, "--prune-blocks", "1"]) == 0
    _compare("consistency/empty_pruned_chain", path)


def _edited_minimize_store(chain, tmp_path, edits):
    """A minimize store of ``chain`` with edited body records: ``edits``
    maps a height to a function of its record and the minimize+slack
    model's record there, which returns the record to write instead."""
    blocks, state = chain
    with_slack = build_store_model(blocks, state, StrategyConfig(minimize=True, slack=True))
    slack = {rec.height: rec for rec in with_slack.bodies}

    def edit(model):
        for i, rec in enumerate(model.bodies):
            if rec.height in edits:
                model.bodies[i] = edits[rec.height](rec, slack[rec.height])

    return consistency._store(chain, tmp_path, StrategyConfig(minimize=True), edit)


def _payload(change):
    """An edit that replaces a record's payload by ``change(payload)``."""
    return lambda rec, _: store.BodyRecord(rec.height, rec.kind, change(rec.payload))


def _flip_last(payload):  # a raw block's last tx lock time, or a minimized record's last co-path node
    return payload[:-1] + bytes([payload[-1] ^ 1])


def _flip_nonce(payload):  # in a raw block's own header; the spine keeps its copy
    return payload[:79] + bytes([payload[79] ^ 1]) + payload[80:]


def test_content_rows_keep_their_order(consistency_chain, tmp_path):
    """Failures of every content check at interleaved heights: kind rows,
    then full-block rows, then co-path rows, each in record order."""
    edits = {
        3: _payload(_flip_last),
        4: lambda _, slack: slack,  # a compact record
        5: _payload(_flip_nonce),
        8: lambda _, slack: slack,  # a minimized record with slack-encoded kept txs
        9: _payload(_flip_last),
        10: _payload(_flip_last),
    }
    path = _edited_minimize_store(consistency_chain, tmp_path, edits)
    failures = [(c.name, c.height) for c in store.integrity_check(path).failures]
    assert failures == [
        ("body_kind", 4),
        ("body_kind", 8),
        ("block_hash", 5),
        ("merkle_root", 10),
        ("copath", 3),
        ("copath", 9),
    ]
    _compare("edited/interleaved_failures", path)


def test_a_decode_failure_hides_earlier_content_rows(consistency_chain, tmp_path):
    edits = {10: _payload(_flip_last), 12: _payload(lambda _: b"")}
    path = _edited_minimize_store(consistency_chain, tmp_path, edits)
    failures = [(c.name, c.detail) for c in store.integrity_check(path).failures]
    assert failures == [("decode", "TruncationError: minimized record at height 12 is empty")]
    _compare("edited/merkle_root_then_decode", path)


@pytest.mark.parametrize("label", list(BAD_POSITIONS))
def test_bad_kept_positions(tmp_path, label):
    _compare(f"kept_positions/{label}", _store_with_positions(tmp_path, BAD_POSITIONS[label]))
