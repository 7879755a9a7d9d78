"""A dedup model hashes each script's reference once.

``dedup_scripts`` hashes every script it considers; the codec that
writes the second encoding pass reads the rewritten scripts' references
from the plan's table instead of hashing them again.
"""

import io
from collections import Counter

from ledgerpack import strategies, wire
from ledgerpack.chain import build_chain
from ledgerpack.fixture import gen_chain
from ledgerpack.store import build_store_model
from ledgerpack.strategies import PruneConfig, StrategyConfig
from test_golden import CHAINS, PRUNE_BLOCKS


def test_each_script_is_hashed_once_per_dedup_model(monkeypatch):
    data, _ = gen_chain(CHAINS["heavy"])
    blocks = [b for b, _ in wire.read_block_stream(io.BytesIO(data))]
    state = build_chain(blocks)
    config = StrategyConfig(
        prune=PruneConfig("blocks", blocks=PRUNE_BLOCKS), minimize=True, slack=True, dedup=True
    )

    hashed = Counter()
    script_ref = strategies.script_ref

    def spy(script):
        hashed[script] += 1
        return script_ref(script)

    monkeypatch.setattr(strategies, "script_ref", spy)
    model = build_store_model(blocks, state, config)

    assert model.dedup_effective and model.kvs
    assert set(model.kvs.values()) <= set(hashed)
    assert max(hashed.values()) == 1
