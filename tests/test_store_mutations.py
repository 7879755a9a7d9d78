"""Seeded mutations of every store file and of framed block streams.

Only ``LedgerError`` may escape ``read_store``, ``decode_store_content``,
``read_block_stream`` or a fold of its blocks through
``ChainState.connect`` and ``estimate_footprint``, and
``integrity_check`` never raises.  A store that the readers reject must
also fail ``integrity_check``.  The manifest is mutated with its
checksum re-stamped, so its parser, and not only the checksum, sees
each change.
"""

import hashlib
import io
import os
import random

import pytest

from ledgerpack.chain import ChainState
from ledgerpack.errors import LedgerError
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.store import (
    KVS_FILE,
    MANIFEST_FILE,
    SPINE_FILE,
    build_store_model,
    decode_store_content,
    estimate_footprint,
    integrity_check,
    read_store,
    write_store,
)
from ledgerpack.strategies import PruneConfig, StrategyConfig
from ledgerpack.wire import read_block_stream

from test_store_contract import MUTATED_CONFIGS, chain  # noqa: F401

# both take effect with dedup, so scripts.kvs is not empty
STORE_LABELS = ["slack+dedup", "minimize+slack+dedup"]
MUTATIONS_PER_FILE = 150
MANIFEST_VALUES = ["", "x", "-1", "1" * 20]


def _flip(data: bytes, rng: random.Random) -> bytes:
    mutated = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        mutated[rng.randrange(len(mutated))] ^= rng.randint(1, 255)
    return bytes(mutated)


def _stamp(head: bytes) -> bytes:
    """A manifest whose checksum line matches ``head``."""
    return head + b"checksum=" + hashlib.sha256(head).hexdigest().encode("ascii") + b"\n"


def _read_everything(path):
    report = integrity_check(path)  # must not raise
    try:
        decode_store_content(read_store(path))
    except LedgerError:
        assert not report.passed, [(c.name, c.detail) for c in report.checks]


def _store(chain, tmp_path, label):
    blocks, state = chain
    model = build_store_model(blocks, state, MUTATED_CONFIGS[label])
    assert model.dedup_effective and model.kvs
    path = str(tmp_path / "store")
    write_store(model, path)
    return path


def _write(path, name, data):
    with open(os.path.join(path, name), "wb") as fh:
        fh.write(data)


def _read(path, name):
    with open(os.path.join(path, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", [SPINE_FILE, KVS_FILE, MANIFEST_FILE])
@pytest.mark.parametrize("label", STORE_LABELS)
def test_flipped_store_bytes_raise_only_ledger_errors(chain, tmp_path, label, name):
    path = _store(chain, tmp_path, label)
    clean = _read(path, name)
    rng = random.Random(f"{label}-{name}-mutations")
    for _ in range(MUTATIONS_PER_FILE):
        if name == MANIFEST_FILE:
            mutated = _stamp(_flip(clean[: clean.rindex(b"checksum=")], rng))
        else:
            mutated = _flip(clean, rng)
        _write(path, name, mutated)
        _read_everything(path)


@pytest.mark.parametrize("value", MANIFEST_VALUES, ids=repr)
@pytest.mark.parametrize("label", STORE_LABELS)
def test_replaced_manifest_values_raise_only_ledger_errors(chain, tmp_path, label, value):
    path = _store(chain, tmp_path, label)
    lines = _read(path, MANIFEST_FILE).decode("ascii").splitlines()[:-1]
    assert len(lines) == 16
    for i, line in enumerate(lines):
        key = line.partition("=")[0]
        body = lines[:i] + [f"{key}={value}"] + lines[i + 1 :]
        _write(path, MANIFEST_FILE, _stamp("".join(f"{b}\n" for b in body).encode("ascii")))
        _read_everything(path)


FLIPPED_CHAIN = ChainPlan(seed=31, n_blocks=24, txs_per_block=8, segwit_fraction=0.6, dup_rate=0.7)


def test_flipped_block_stream_bytes_raise_only_ledger_errors():
    data, _ = gen_chain(FLIPPED_CHAIN)
    rng = random.Random("block-stream-mutations")
    for _ in range(4 * MUTATIONS_PER_FILE):
        try:
            for _ in read_block_stream(io.BytesIO(_flip(data, rng))):
                pass
        except LedgerError:
            pass


def test_flipped_block_streams_through_the_chain_and_every_strategy_raise_only_ledger_errors():
    data, _ = gen_chain(FLIPPED_CHAIN)
    config = StrategyConfig(prune=PruneConfig("blocks", blocks=12), minimize=True, slack=True, dedup=True)
    rng = random.Random("chain-fold-mutations")
    estimated = 0
    for _ in range(4 * MUTATIONS_PER_FILE):
        state, blocks = ChainState(), []
        try:
            for block, _ in read_block_stream(io.BytesIO(_flip(data, rng))):
                state.connect(block)
                blocks.append(block)
            estimate_footprint(blocks, state, config)
            estimated += 1
        except LedgerError:
            pass
    assert estimated  # some flips leave a chain that connects, and it is estimated
