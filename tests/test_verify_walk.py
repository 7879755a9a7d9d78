"""``verify`` walks a store once.

``integrity_check`` reads each of the four store files once, hashing and
parsing the same bytes, and checks each body record as
``store.walk_records`` decodes it, so it holds one decoded record at a
time.  Its ``tracemalloc`` peak on a 1000-block chain shaped like the
acceptance suite's 10k-block one therefore stays within a small multiple
of the store's size.  On a dedup store the slack decoder rebuilds each
compact tx's wire bytes, so no tx is serialized from its fields.
"""

import builtins
import io
import os
import tracemalloc
from collections import Counter

import pytest

from ledgerpack import wire
from ledgerpack.chain import build_chain
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.store import (
    BODIES_FILE,
    KIND_COMPACT,
    KVS_FILE,
    MANIFEST_FILE,
    SPINE_FILE,
    build_store_model,
    integrity_check,
    write_store,
)
from ledgerpack.strategies import StrategyConfig

# a store's peak verify memory, over the bytes of its four files
PEAK_BOUND = 4.0

CONFIGS = {
    "baseline": StrategyConfig(),
    "slack+dedup": StrategyConfig(slack=True, dedup=True),
    "minimize+slack+dedup": StrategyConfig(minimize=True, slack=True, dedup=True),
}


def _chain(plan):
    data, _ = gen_chain(plan)
    blocks = [b for b, _ in wire.read_block_stream(io.BytesIO(data))]
    return blocks, build_chain(blocks)


def _store(chain, config, path):
    model = build_store_model(*chain, config)
    write_store(model, path)
    return model


@pytest.fixture(scope="module")
def w1_shaped_chain():
    """1000 blocks shaped like the acceptance suite's 10k-block chain."""
    return _chain(
        ChainPlan(
            seed=3,
            n_blocks=1000,
            txs_per_block=10,
            spend_kind="fixed",
            spend_lifespan=2,
            dormant_fraction=0.1,
        )
    )


@pytest.mark.parametrize("label", list(CONFIGS))
def test_verify_opens_each_store_file_once(tmp_path, monkeypatch, label):
    path = str(tmp_path / "store")
    _store(_chain(ChainPlan(seed=5, n_blocks=40)), CONFIGS[label], path)
    opened = Counter()
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        if os.path.dirname(os.fspath(file)) == path:
            opened[os.path.basename(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    assert integrity_check(path).passed
    assert opened == {SPINE_FILE: 1, BODIES_FILE: 1, KVS_FILE: 1, MANIFEST_FILE: 1}


def test_dedup_verify_serializes_no_tx(tmp_path, monkeypatch):
    path = str(tmp_path / "store")
    model = _store(_chain(ChainPlan(seed=5, n_blocks=60, dup_rate=0.5)), CONFIGS["slack+dedup"], path)
    assert model.dedup_effective
    assert {rec.kind for rec in model.bodies} == {KIND_COMPACT}
    calls = []
    serialize = wire._serialize

    def spy(tx, codec):
        calls.append(tx)
        return serialize(tx, codec)

    monkeypatch.setattr(wire, "_serialize", spy)
    assert integrity_check(path).passed
    assert calls == []


@pytest.mark.parametrize("label", ["baseline", "slack+dedup"])
def test_verify_peak_memory_is_proportional_to_the_store(w1_shaped_chain, tmp_path, label):
    path = str(tmp_path / "store")
    model = _store(w1_shaped_chain, CONFIGS[label], path)
    assert model.dedup_effective == (label != "baseline")
    store_bytes = sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))
    tracemalloc.start()
    try:
        assert integrity_check(path).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUND * store_bytes, f"peak {peak / store_bytes:.1f}x the store's {store_bytes} bytes"
