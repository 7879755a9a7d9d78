"""A frame index serves the store models the same blocks a decoded list does.

``wire.FrameIndex`` records each frame's body offset, size and header
as the connect pass reads the block file, and decodes a frame again each
time it is indexed; a frame cut or rewritten since then is an error.
For both golden chains and all 16 strategy subsets (plus a quantile
prune), ``build_store_model`` and ``estimate_footprint`` over the index
must give the very store files and report rows they give over the
decoded list.  A model's ``retained_bytes``, measured from its records
before any file is joined, must equal the joined files' length.
"""

import io

import pytest

from ledgerpack.chain import ChainState, build_chain
from ledgerpack.errors import DecodeError, TruncationError
from ledgerpack.fixture import gen_chain
from ledgerpack.store import build_store_model, estimate_footprint
from ledgerpack.strategies import PruneConfig, StrategyConfig
from ledgerpack.wire import FrameIndex, decode_block, encode_block, read_block_stream, read_frames

from test_golden import CHAINS, all_configs

CONFIGS = [
    *all_configs(),
    StrategyConfig(prune=PruneConfig("quantile", quantile=0.5), minimize=True, slack=True, dedup=True),
]


def index_chain(data, source=None):
    """(frame index over ``source``, by default ``data`` itself, and chain
    state), from one connect pass over ``data``."""
    frames = FrameIndex(source or io.BytesIO(data))
    state = ChainState()
    for body, offset in read_frames(io.BytesIO(data)):
        block = decode_block(body)
        state.connect(block)
        frames.add(offset, body, block.header)
    return frames, state


def _files(model):
    return model.spine_bytes(), model.bodies_bytes(), model.kvs_bytes(), model.manifest_text()


@pytest.fixture(scope="module", params=list(CHAINS))
def chain(request):
    data, _ = gen_chain(CHAINS[request.param])
    blocks = [block for block, _ in read_block_stream(io.BytesIO(data))]
    return data, blocks, build_chain(blocks)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label() + ("-q" if c.prune and c.prune.mode == "quantile" else ""))
def test_a_frame_index_builds_the_listed_chains_store_and_report(chain, config):
    data, blocks, state = chain
    frames, frames_state = index_chain(data)
    from_index = build_store_model(frames, frames_state, config)
    measured = from_index.retained_bytes
    from_list = build_store_model(blocks, state, config)
    assert _files(from_index) == _files(from_list)
    assert measured == sum(map(len, _files(from_index)[:3]))
    assert from_index.slack_stats == from_list.slack_stats
    assert estimate_footprint(frames, frames_state, config) == estimate_footprint(blocks, state, config)


def test_the_index_is_a_sequence_of_the_chains_blocks(chain):
    data, blocks, _ = chain
    frames, _ = index_chain(data)
    assert len(frames) == len(blocks)
    assert [encode_block(block) for block in frames] == [encode_block(block) for block in blocks]
    assert frames.headers == [block.header for block in blocks]
    assert frames.sizes == [len(encode_block(block)) for block in blocks]
    assert frames.body(3) == encode_block(blocks[3])
    assert encode_block(frames[-1]) == encode_block(blocks[-1])
    with pytest.raises(IndexError):
        frames[len(blocks)]


def test_a_frame_rewritten_after_indexing_is_an_error(chain):
    data, _, _ = chain
    source = io.BytesIO(data)
    frames, _ = index_chain(data, source)
    source.seek(frames.offsets[5] + 76)  # the header's nonce
    source.write(b"\xff\xff\xff\xff")
    assert frames[4].header == frames.headers[4]
    with pytest.raises(DecodeError, match="changed since it was indexed"):
        frames[5]


def test_a_frame_cut_after_indexing_is_an_error(chain):
    data, blocks, _ = chain
    source = io.BytesIO(data)
    frames, _ = index_chain(data, source)
    source.truncate(len(data) - 10)
    assert frames.body(0) == encode_block(blocks[0])
    with pytest.raises(TruncationError, match="lost bytes"):
        frames[len(blocks) - 1]
