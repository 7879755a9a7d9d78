"""Store decoding contract: corrupt bodies raise LedgerError and nothing else,
and every record form consumes exactly its bytes."""

import io
import os
import random

import pytest

from ledgerpack.chain import build_chain
from ledgerpack.errors import LedgerError, StoreError
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.store import (
    BODIES_FILE,
    KIND_MINIMIZED,
    build_store_model,
    decode_store_content,
    integrity_check,
    read_store,
    write_store,
)
from ledgerpack.strategies import StrategyConfig, deserialize_minimized, serialize_minimized
from ledgerpack.wire import read_block_stream

MUTATED_CONFIGS = {
    "baseline": StrategyConfig(),
    "slack+dedup": StrategyConfig(slack=True, dedup=True),
    "minimize+slack+dedup": StrategyConfig(minimize=True, slack=True, dedup=True),
    "minimize+dedup": StrategyConfig(minimize=True, dedup=True),
}
MUTATIONS_PER_STORE = 250


@pytest.fixture(scope="module")
def chain():
    data, _ = gen_chain(
        ChainPlan(
            seed=31,
            n_blocks=24,
            txs_per_block=8,
            segwit_fraction=0.6,
            dup_rate=0.7,
            noncanonical_rate=0.2,
        )
    )
    blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
    return blocks, build_chain(blocks)


@pytest.mark.parametrize("label", list(MUTATED_CONFIGS))
def test_flipped_body_bytes_raise_only_ledger_errors(chain, tmp_path, label):
    blocks, state = chain
    config = MUTATED_CONFIGS[label]
    model = build_store_model(blocks, state, config)
    # the mutations are only meaningful if the dedup token codec is in play
    assert model.dedup_effective == config.dedup
    path = str(tmp_path / "store")
    write_store(model, path)
    bodies_path = os.path.join(path, BODIES_FILE)
    with open(bodies_path, "rb") as fh:
        clean = fh.read()

    rng = random.Random(f"{label}-mutations")
    for _ in range(MUTATIONS_PER_STORE):
        mutated = bytearray(clean)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] ^= rng.randint(1, 255)
        with open(bodies_path, "wb") as fh:
            fh.write(mutated)
        try:
            decode_store_content(read_store(path))
        except LedgerError:
            pass


@pytest.mark.parametrize(
    "config, tx_mode",
    [
        (StrategyConfig(minimize=True), 0),
        (StrategyConfig(minimize=True, dedup=True), 0),
        (StrategyConfig(minimize=True, slack=True), 1),
    ],
    ids=["plain", "dedup", "slack"],
)
def test_junk_after_kept_tx_is_rejected(chain, tmp_path, config, tx_mode):
    blocks, state = chain
    model = build_store_model(blocks, state, config)
    assert model.dedup_effective == config.dedup
    rec = next(r for r in model.bodies if r.kind == KIND_MINIMIZED and r.payload[0] == tx_mode)
    mb = deserialize_minimized(rec.payload[1:], b"", b"")
    pos, tx_bytes = mb.kept[0]
    mb.kept[0] = (pos, tx_bytes + b"\x00")
    rec.payload = rec.payload[:1] + serialize_minimized(mb)
    path = str(tmp_path / "store")
    write_store(model, path)

    with pytest.raises(StoreError, match=f"stray bytes after kept tx {pos} "):
        decode_store_content(read_store(path))
    report = integrity_check(path)
    assert [(c.name, c.height) for c in report.failures] == [("decode", None)]
