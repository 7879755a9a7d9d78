"""A dedup store decodes to the chain's own transactions.

The dedup codec's reference token 1 stands for a script length written
in one byte, whether the tx was built (width 0) or decoded from the
wire (width 1).  The wire decoder records width 1, so the store reader
must too; otherwise decoded txs encode to the chain's bytes yet compare
unequal to its txs.  A raw record read from a dedup store gives its
block the size of the block's wire bytes, as compact records do.
"""

import io

import pytest

from ledgerpack.chain import build_chain
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.store import KIND_RAW, build_store_model, decode_store_content, read_store, write_store
from ledgerpack.strategies import StrategyConfig
from ledgerpack.wire import read_block_stream


@pytest.fixture(scope="module")
def chain():
    data, _ = gen_chain(ChainPlan(seed=5, n_blocks=60))
    blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
    return blocks, build_chain(blocks)


@pytest.mark.parametrize(
    "config", [StrategyConfig(dedup=True), StrategyConfig(slack=True, dedup=True)], ids=StrategyConfig.label
)
def test_dedup_store_decodes_to_the_chains_txs(chain, tmp_path, config):
    blocks, state = chain
    model = build_store_model(blocks, state, config)
    assert model.dedup_effective
    path = str(tmp_path / "store")
    write_store(model, path)
    content = decode_store_content(read_store(path))
    assert sorted(content.blocks) == list(range(len(blocks)))
    for height, block in content.blocks.items():
        assert block.transactions == blocks[height].transactions, height


def test_dedup_raw_records_give_the_blocks_wire_size(chain, tmp_path):
    """A raw record read from a dedup store gives its block the chain's
    size, not the size of its reference-framed payload."""
    blocks, state = chain
    model = build_store_model(blocks, state, StrategyConfig(dedup=True))
    assert model.dedup_effective
    framed = {rec.height: len(rec.payload) for rec in model.bodies if rec.kind == KIND_RAW}
    assert len(framed) == len(blocks) == 60
    path = str(tmp_path / "store")
    write_store(model, path)
    content = decode_store_content(read_store(path))
    sizes = {height: block.raw_size_bytes for height, block in content.blocks.items()}
    assert sizes == {height: block.raw_size_bytes for height, block in enumerate(blocks)}
    assert sizes == {height: len(raw) for height, raw in content.block_bytes.items()}
    # a reader sizing blocks by their payloads would differ at every height
    assert all(framed[h] != sizes[h] for h in framed)
