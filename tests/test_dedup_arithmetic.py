"""A raw-record dedup model is sized by arithmetic, and the size is exact.

A model with ``dedup`` and neither ``minimize`` nor ``slack`` keeps raw
records, so its first pass sizes the dedup body file without encoding
it (``store._DedupSizer``).  For both golden chains under ``dedup``,
``prune-blocks+dedup`` and ``prune-quantile+dedup``, and for hand-built
chains at the edges of that arithmetic, the ``estimate`` row equals the
model's ``retained_bytes``, which equals the store's size on disk, and
the manifest's ``dedup`` value is the one a pass that encodes every
record under the plan decides.  The arithmetic also equals that pass's
measured body file when dedup backs off, where no size shows it.
"""

import io
import os

import pytest

from blockkit import build_blocks, coinbase_tx
from ledgerpack.chain import build_chain
from ledgerpack.fixture import gen_chain
from ledgerpack.store import (
    BODIES_FILE,
    KIND_RAW,
    KVS_FILE,
    SPINE_FILE,
    _body_head,
    _kvs_parts,
    _Pass,
    _retained,
    _sweep,
    build_store_model,
    estimate_footprint,
    read_store,
    write_store,
)
from ledgerpack.strategies import PruneConfig, RefScriptCodec, StrategyConfig, dedup_scripts
from ledgerpack.wire import IDENTITY_CODEC, decode_block, encode_block, read_block_stream

from test_golden import CHAINS

CONFIGS = {
    "dedup": StrategyConfig(dedup=True),
    "prune-blocks+dedup": StrategyConfig(prune=PruneConfig("blocks", blocks=15), dedup=True),
    "prune-quantile+dedup": StrategyConfig(prune=PruneConfig("quantile", quantile=0.5), dedup=True),
}

SHARED = bytes(range(60, 120))  # a 60-byte script that repeats enough to be rewritten


def _decoded(blocks):
    """The blocks as a reader of their wire bytes sees them: every script
    width recorded, and each tx's source bytes kept."""
    return [decode_block(encode_block(block)) for block in blocks]


def _shrinking_head_chain():
    """Height 1's identity payload is over 252 bytes and its dedup payload
    under 253, so its body head's length varint shrinks from 3 bytes to 1.
    The segwit coinbases' 32-byte witness items repeat too."""
    return build_blocks([[coinbase_tx(h, out_scripts=[SHARED] * 3, witness=True)] for h in range(4)])


def _noncanonical_chain():
    """A rewritten script stored with a 3-byte length at some of its sites."""
    txs = [coinbase_tx(h, out_scripts=[SHARED, SHARED]) for h in range(3)]
    txs[1].outputs[0].script_len_width = 3
    txs[2].outputs[1].script_len_width = 3
    return build_blocks([[tx] for tx in txs])


def _unplanned_chain():
    """No script repeats, so the plan rewrites nothing."""
    return build_blocks([[coinbase_tx(h, out_scripts=[bytes([h]) * 40])] for h in range(3)])


def _backing_off_chain():
    """A 20-byte script at two sites is rewritten, but the token bytes and
    the KVS cost more than its references save."""
    script = bytes(range(20))
    return build_blocks([[coinbase_tx(h, out_scripts=[script, bytes([h]) * 5, b"\x51"])] for h in range(2)])


EDGE_CHAINS = {
    "shrinking-head": _shrinking_head_chain,
    "noncanonical": _noncanonical_chain,
    "unplanned": _unplanned_chain,
    "backing-off": _backing_off_chain,
}


def _golden_blocks(name):
    data, _ = gen_chain(CHAINS[name])
    return [block for block, _ in read_block_stream(io.BytesIO(data))]


def _measured(blocks, state, config):
    """(the plan, the raw body file, the body file a pass that encodes each
    record under the plan measures, or None without a rewrite, and what
    the sizer says of it), for ``config``'s retained heights."""
    retained = _retained(len(blocks), state, config.prune)
    first = _Pass(config, retained, {}, state.index, IDENTITY_CODEC, keep=False)
    _sweep(blocks, [first])
    plan = dedup_scripts(first.sites)
    assert plan.rewrite == dedup_scripts(blocks[retained[1] :]).rewrite
    if not plan.rewrite:
        return plan, first.bodies_size, None, None
    second = _Pass(config, retained, {}, state.index, RefScriptCodec(plan.kvs), keep=False)
    _sweep(blocks, [second])
    return plan, first.bodies_size, second.bodies_size, first.sizer.bodies_size(first.sites, plan.rewrite)


def _check_exact(blocks, config, tmp_path) -> bool:
    """Assert the row, the model and the disk agree, and that the manifest
    records the oracle's decision; returns that decision."""
    state = build_chain(blocks)
    plan, raw_body, dedup_body, sized = _measured(blocks, state, config)
    assert sized == dedup_body
    pays = dedup_body is not None and dedup_body + len(b"".join(_kvs_parts(plan.kvs))) < raw_body

    (row,) = [row for row in estimate_footprint(blocks, state, config).rows if row.strategy == config.label()]
    model = build_store_model(blocks, state, config)
    assert row.retained_bytes == model.retained_bytes
    write_store(model, str(tmp_path))
    on_disk = sum(os.path.getsize(tmp_path / name) for name in (SPINE_FILE, BODIES_FILE, KVS_FILE))
    assert model.retained_bytes == on_disk
    assert read_store(str(tmp_path)).manifest.dedup == pays
    return pays


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("chain_name", CHAINS)
def test_golden_chains_are_sized_exactly(chain_name, config_name, tmp_path):
    _check_exact(_golden_blocks(chain_name), CONFIGS[config_name], tmp_path)


@pytest.mark.parametrize("decode", [False, True], ids=["built", "decoded"])
@pytest.mark.parametrize("chain_name", EDGE_CHAINS)
def test_edge_chains_are_sized_exactly(chain_name, decode, tmp_path):
    blocks = EDGE_CHAINS[chain_name]()
    if decode:
        blocks = _decoded(blocks)
    pays = _check_exact(blocks, CONFIGS["dedup"], tmp_path)
    assert pays == (chain_name in ("shrinking-head", "noncanonical"))


def test_the_edge_chains_have_their_edges():
    """Each hand-built chain has the shape its name promises."""
    blocks = _shrinking_head_chain()
    plan = dedup_scripts(blocks)
    assert {SHARED, bytes(32)} <= plan.rewrite
    identity = encode_block(blocks[1])
    under_plan = encode_block(blocks[1], RefScriptCodec(plan.kvs))
    assert len(identity) >= 253 > len(under_plan)
    assert len(_body_head(KIND_RAW, 1, len(identity))) == len(_body_head(KIND_RAW, 1, len(under_plan))) + 2

    blocks = _noncanonical_chain()
    assert SHARED in dedup_scripts(blocks).rewrite
    stored = _decoded(blocks)[1].transactions[0].outputs[0]
    assert (stored.script, stored.script_len_width) == (SHARED, 3)

    assert not dedup_scripts(_unplanned_chain()).rewrite

    blocks = _backing_off_chain()
    assert dedup_scripts(blocks).rewrite
    assert not build_store_model(blocks, config=CONFIGS["dedup"]).dedup_effective
