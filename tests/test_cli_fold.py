"""Every chain command takes one fold over the block file.

- Each command decodes each frame exactly once (a spy on every binding
  of ``decode_block``), so no pass decodes the chain a second time.
- ``parse``, the ``stats`` reports and ``compact`` without a strategy
  that rewrites bodies hold one decoded block at a time: their
  ``tracemalloc`` peak on an archive-shaped chain stays within a small
  multiple of the file size.
- A raw-only store built from the frame bytes equals the store built
  from decoded blocks, file for file and byte for byte.
- A block file with a fault gives no report and writes no store, and the
  first faulty frame in file order is the one reported.
"""

import io
import os
import tracemalloc
from collections import Counter

import pytest

from blockkit import build_blocks, coinbase_tx, spend_tx
from ledgerpack import analytics, cli, store, wire  # noqa: F401  (loaded before any trace)
from ledgerpack.chain import build_chain
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.strategies import PruneConfig, StrategyConfig
from ledgerpack.wire import OutPoint, encode_block, frame_block, read_block_stream, read_frames

from test_golden import CHAINS

REPORTS = [
    ["parse"],
    ["stats", "lifespan"],
    ["stats", "composition"],
    ["stats", "dedup"],
    ["stats", "dormancy"],
]
STRATEGY_FLAGS = [[], ["--prune-blocks", "10"], ["--minimize", "--slack"]]
STORE_FILES = (store.SPINE_FILE, store.BODIES_FILE, store.KVS_FILE, store.MANIFEST_FILE)


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)
    return str(path)


def _store_files(path):
    files = {}
    for name in STORE_FILES:
        with open(os.path.join(path, name), "rb") as fh:
            files[name] = fh.read()
    return files


@pytest.fixture(scope="module")
def small_chain(tmp_path_factory):
    data, _ = gen_chain(ChainPlan(seed=3, n_blocks=30, txs_per_block=5, segwit_fraction=0.5))
    return _write(tmp_path_factory.mktemp("chain") / "chain.dat", data), data


def _commands(chain_path, tmp_path):
    out = str(tmp_path / "report.csv")
    for report in REPORTS:
        yield [*report, chain_path, "--output", out]
    for flags in STRATEGY_FLAGS:
        yield ["estimate", chain_path, *flags, "--output", out]
        yield ["compact", chain_path, str(tmp_path / "store"), *flags, "--output", out]


def test_each_command_decodes_each_frame_once(small_chain, tmp_path, monkeypatch):
    chain_path, data = small_chain
    frames = Counter(body for body, _ in read_frames(io.BytesIO(data)))
    assert len(frames) == 30
    decoded = Counter()
    real = wire.decode_block

    def spy(body, codec=wire.IDENTITY_CODEC):
        decoded[bytes(body)] += 1
        return real(body, codec)

    for module in (wire, cli, store):
        if hasattr(module, "decode_block"):
            monkeypatch.setattr(module, "decode_block", spy)
    for argv in _commands(chain_path, tmp_path):
        decoded.clear()
        assert cli.main(argv) == 0, argv
        assert decoded == frames, argv


# the benchmark's archive workload: ten txs per block, spent two blocks on
ARCHIVE_PLAN = ChainPlan(
    seed=1, n_blocks=400, txs_per_block=10, spend_kind="fixed", spend_lifespan=2, dormant_fraction=0.1
)

# command -> the largest tracemalloc peak allowed, in multiples of the file size
PEAK_BOUNDS = [
    (["parse"], 4),
    (["stats", "lifespan"], 4),
    (["stats", "dedup"], 3),
    (["compact"], 6),
]


@pytest.fixture(scope="module")
def archive_chain(tmp_path_factory):
    data, _ = gen_chain(ARCHIVE_PLAN)
    return _write(tmp_path_factory.mktemp("archive") / "chain.dat", data), len(data)


@pytest.mark.parametrize("command, bound", PEAK_BOUNDS, ids=lambda c: "-".join(c) if isinstance(c, list) else str(c))
def test_peak_memory_follows_the_chain_state(archive_chain, tmp_path, command, bound):
    chain_path, size = archive_chain
    store_dir = [str(tmp_path / "store")] if command == ["compact"] else []
    argv = [*command, chain_path, *store_dir, "--output", str(tmp_path / "report.csv")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * size, f"{' '.join(command)}: peak {peak / size:.2f}x the file's {size} bytes"


# name -> (compact flags, the same config)
RAW_ONLY_CONFIGS = {
    "baseline": ([], StrategyConfig()),
    "prune-blocks": (["--prune-blocks", "15"], StrategyConfig(prune=PruneConfig("blocks", blocks=15))),
    "prune-quantile": (["--prune-quantile", "0.5"], StrategyConfig(prune=PruneConfig("quantile", quantile=0.5))),
}


@pytest.mark.parametrize("config_name", list(RAW_ONLY_CONFIGS))
@pytest.mark.parametrize("chain_name", list(CHAINS))
def test_store_from_frames_equals_store_from_decoded_blocks(tmp_path, chain_name, config_name):
    flags, config = RAW_ONLY_CONFIGS[config_name]
    data, _ = gen_chain(CHAINS[chain_name])
    chain_path = _write(tmp_path / "chain.dat", data)
    assert cli.main(["compact", chain_path, str(tmp_path / "frames"), *flags, "--output", str(tmp_path / "r")]) == 0
    blocks = [block for block, _ in read_block_stream(io.BytesIO(data))]
    model = store.build_store_model(blocks, build_chain(blocks), config)
    store.write_store(model, str(tmp_path / "decoded"))
    assert _store_files(tmp_path / "frames") == _store_files(tmp_path / "decoded")
    assert store.integrity_check(str(tmp_path / "frames")).passed


def _chain_with_last_block(data, txs):
    """``data`` with one more block of ``txs`` linked to its tip."""
    blocks = [block for block, _ in read_block_stream(io.BytesIO(data))]
    (extra,) = build_blocks([txs], start_prev=blocks[-1].block_hash())
    return data + frame_block(encode_block(extra))


@pytest.fixture(scope="module")
def bad_chains():
    data, _ = gen_chain(ChainPlan(seed=4, n_blocks=12, txs_per_block=4))
    unknown = spend_tx([OutPoint(b"\x42" * 32, 0)])
    return {
        "cut_last_frame": data[:-5],
        "unknown_outpoint": _chain_with_last_block(data, [coinbase_tx(12), unknown]),
    }, data


@pytest.mark.parametrize("fault", ["cut_last_frame", "unknown_outpoint"])
def test_a_faulty_block_file_gives_no_report(bad_chains, tmp_path, capsys, fault):
    chains, _ = bad_chains
    chain_path = _write(tmp_path / "chain.dat", chains[fault])
    for report in REPORTS:
        assert cli.main([*report, chain_path]) == 1, report
        captured = capsys.readouterr()
        assert captured.out == "", report
        assert captured.err.startswith("error: "), report


@pytest.mark.parametrize("flags", STRATEGY_FLAGS, ids=lambda f: " ".join(f) or "no-flags")
@pytest.mark.parametrize("fault", ["cut_last_frame", "unknown_outpoint"])
def test_a_faulty_block_file_writes_no_store(bad_chains, tmp_path, capsys, fault, flags):
    chains, good = bad_chains
    bad_path = _write(tmp_path / "bad.dat", chains[fault])
    fresh = str(tmp_path / "fresh")
    assert cli.main(["compact", bad_path, fresh, *flags]) == 1
    assert not os.path.exists(fresh)

    existing = str(tmp_path / "existing")
    assert cli.main(["compact", _write(tmp_path / "good.dat", good), existing, "--slack"]) == 0
    before = _store_files(existing)
    capsys.readouterr()
    assert cli.main(["compact", bad_path, existing, *flags]) == 1
    assert capsys.readouterr().out == ""
    assert _store_files(existing) == before


def test_the_first_faulty_frame_is_reported(bad_chains, tmp_path, capsys):
    """An unknown outpoint in the second-last block wins over a cut last frame."""
    chains, _ = bad_chains
    (tail,) = build_blocks([[coinbase_tx(13)]])
    cut_frame = frame_block(encode_block(tail))[:-3]
    chain_path = _write(tmp_path / "chain.dat", chains["unknown_outpoint"] + cut_frame)
    for report in REPORTS:
        assert cli.main([*report, chain_path]) == 1
        err = capsys.readouterr().err
        assert "height 12 tx 1 spends unknown outpoint" in err, (report, err)
