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
  each body record with one junk byte appended to its payload.

No difference is expected.  A change that means the readers to differ
lists each store it affects by name in ``INTENDED_DIFFERENCES``.
"""

import io
import os
import random

import pytest

import reference_store as ref
from ledgerpack import store
from ledgerpack.chain import build_chain
from ledgerpack.fixture import gen_chain
from ledgerpack.store import BODIES_FILE, KVS_FILE, MANIFEST_FILE, SPINE_FILE, build_store_model, write_store
from ledgerpack.wire import read_block_stream

from test_golden import CHAINS, all_configs
from test_store_contract import MUTATED_CONFIGS, MUTATIONS_PER_STORE, chain  # noqa: F401
from test_store_mutations import MANIFEST_VALUES, MUTATIONS_PER_FILE, STORE_LABELS, _flip, _stamp
from test_verify_framing import _frame, _restamp_bodies_digest

# store name -> why the two readers give different results on it
INTENDED_DIFFERENCES = {}


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


def _compare(name, path):
    got = _read(store, path), [(c.name, c.height, c.ok, c.detail) for c in store.integrity_check(path).checks]
    want = _read(ref, path), ref.integrity_check(path).rows
    if name in INTENDED_DIFFERENCES:
        assert got != want, f"{name} is listed as a difference, but the readers agree"
    else:
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
