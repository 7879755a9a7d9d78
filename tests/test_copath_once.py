"""A dedup model computes each minimized block's co-path nodes once.

The nodes depend only on a block's txids and the positions it keeps,
which both encoding passes share, so ``build_store_model`` computes
them once per block that drops a tx.  On the golden "heavy" chain under
prune+minimize+slack+dedup, a spy on ``store.copath_nodes`` must count
exactly one call per such height.
"""

import io
from collections import Counter

from ledgerpack import store, wire
from ledgerpack.chain import build_chain
from ledgerpack.fixture import gen_chain
from ledgerpack.store import KIND_MINIMIZED, build_store_model
from ledgerpack.strategies import PruneConfig, StrategyConfig
from test_golden import CHAINS, PRUNE_BLOCKS


def test_copath_nodes_are_computed_once_per_minimized_height(monkeypatch):
    data, _ = gen_chain(CHAINS["heavy"])
    blocks = [b for b, _ in wire.read_block_stream(io.BytesIO(data))]
    state = build_chain(blocks)
    config = StrategyConfig(
        prune=PruneConfig("blocks", blocks=PRUNE_BLOCKS), minimize=True, slack=True, dedup=True
    )
    height_of = {tuple(ids): h for h, ids in enumerate(state.index.txids)}

    calls = Counter()
    copath_nodes = store.copath_nodes

    def spy(ids, positions):
        calls[height_of[tuple(ids)]] += 1
        return copath_nodes(ids, positions)

    monkeypatch.setattr(store, "copath_nodes", spy)
    model = build_store_model(blocks, state, config)

    # retained heights whose block keeps some of its txs but not all
    unspent = {op.tx_hash for op in state.utxos}
    minimized = set()
    for height in range(model.keep_from, len(blocks)):
        ids = state.index.txids[height]
        if 0 < sum(t in unspent for t in ids) < len(ids):
            minimized.add(height)
    assert model.keep_from > 0 and model.dedup_effective
    assert any(rec.kind == KIND_MINIMIZED for rec in model.bodies)
    assert set(calls) == minimized
    assert set(calls.values()) == {1}
