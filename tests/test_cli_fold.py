"""Every chain command takes one fold over the block file.

- The connect pass decodes each frame exactly once (a spy on every
  binding of ``decode_block``).  Reports and raw-only configs decode
  nothing more; a strategy model indexes the frames and decodes a frame
  once more per sweep that encodes its height, never the whole chain
  into a list.
- Every chain command holds one decoded block at a time: none is alive
  when the next frame is decoded, and the ``tracemalloc`` peak on an
  archive-shaped chain stays within a small multiple of the file size.
- A raw-only store built from the frame bytes equals the store built
  from decoded blocks, file for file and byte for byte.
- A block file with a fault gives no report and writes no store, and the
  first faulty frame in file order is the one reported.
- ``compact`` and ``estimate`` read the block file again while they build,
  so they refuse a named pipe before reading it; the reports read a pipe.
- Only a command that encodes slack records builds the txid locator.
"""

import gc
import io
import os
import threading
import tracemalloc
from collections import Counter

import pytest

from blockkit import build_blocks, coinbase_tx, spend_tx
from ledgerpack import analytics, cli, store, wire  # noqa: F401  (loaded before any trace)
from ledgerpack.chain import ChainIndex, build_chain
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.strategies import PruneConfig, RefScriptCodec, StrategyConfig, dedup_scripts
from ledgerpack.wire import OutPoint, decode_block, encode_block, frame_block, read_block_stream, read_frames

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
    for flags in [*STRATEGY_FLAGS, ["--dedup-scripts"]]:
        yield ["estimate", chain_path, *flags, "--output", out]
        yield ["compact", chain_path, str(tmp_path / "store"), *flags, "--output", out]


def _dedup_pays(blocks) -> bool:
    """Whether the chain's dedup plan shrinks its raw body file by more
    than the KVS costs, measured by encoding every block under the plan."""
    plan = dedup_scripts(blocks)
    if not plan.rewrite:
        return False

    def body_file(codec):
        payloads = [encode_block(block, codec) for block in blocks]
        return sum(len(store._body_head(store.KIND_RAW, h, len(p))) + len(p) for h, p in enumerate(payloads))

    kvs = len(b"".join(store._kvs_parts(plan.kvs)))
    return body_file(RefScriptCodec(plan.rewrite, plan.kvs)) + kvs < body_file(wire.IDENTITY_CODEC)


def _expected_decodes(data):
    """(command, strategy flags) -> how often each frame body is decoded:
    once by the connect pass, and once more by each model sweep that
    encodes its height.  A dedup model of raw records takes its dedup
    size from its first sweep, so ``estimate --dedup-scripts`` decodes
    each frame twice, and ``compact --dedup-scripts`` sweeps a third time,
    to build its records, only when dedup pays."""
    bodies = [body for body, _ in read_frames(io.BytesIO(data))]
    frames = Counter(bodies)
    blocks = [decode_block(body) for body in bodies]
    state = build_chain(blocks)
    unspent = {op.tx_hash for op in state.utxos}
    keeping = Counter(body for body, ids in zip(bodies, state.index.txids) if any(t in unspent for t in ids))
    return {
        # estimate's slack model encodes every height; compact's minimize
        # model only the heights that keep a tx
        ("estimate", "--minimize --slack"): frames + frames,
        ("compact", "--minimize --slack"): frames + keeping,
        ("estimate", "--dedup-scripts"): frames + frames,
        ("compact", "--dedup-scripts"): frames + frames + (frames if _dedup_pays(blocks) else Counter()),
    }, frames


def test_each_command_decodes_each_frame_once(small_chain, tmp_path, monkeypatch):
    """The connect pass decodes each frame once; a report or a raw-only
    config decodes nothing more, and a strategy model decodes a frame
    once per sweep that encodes its height."""
    chain_path, data = small_chain
    expected, frames = _expected_decodes(data)
    assert len(frames) == 30
    assert expected["compact", "--dedup-scripts"] == Counter({body: 3 for body in frames})
    assert expected["compact", "--minimize --slack"] != frames + frames
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
        flags = " ".join(arg for arg in argv if arg.startswith("--") and arg != "--output")
        assert decoded == expected.get((argv[0], flags), frames), argv


def test_estimate_sizes_raw_dedup_models_without_serializing(small_chain, tmp_path, monkeypatch):
    """A raw-record dedup model's row is arithmetic over the first sweep:
    ``estimate`` serializes no tx for it, with or without prune, while
    ``compact``, which builds the records, does."""
    chain_path, data = small_chain
    blocks = [decode_block(body) for body, _ in read_frames(io.BytesIO(data))]
    assert _dedup_pays(blocks)
    calls = []
    real = wire._serialize

    def spy(tx, codec):
        calls.append(codec)
        return real(tx, codec)

    monkeypatch.setattr(wire, "_serialize", spy)
    out = str(tmp_path / "report.csv")
    for flags in (["--dedup-scripts"], ["--prune-blocks", "10", "--dedup-scripts"]):
        assert cli.main(["estimate", chain_path, *flags, "--output", out]) == 0
        assert calls == [], flags
    assert cli.main(["compact", chain_path, str(tmp_path / "store"), "--dedup-scripts", "--output", out]) == 0
    assert len(calls) == sum(len(block.transactions) for block in blocks)


def test_one_decoded_block_is_alive_at_a_time(small_chain, tmp_path, monkeypatch):
    """When any chain command decodes a frame, no block it decoded before
    is still alive: every loop over blocks drops each one before it takes
    the next."""
    chain_path, _ = small_chain
    real = wire.decode_block
    alive = []

    def spy(body, codec=wire.IDENTITY_CODEC):
        alive.append(sum(type(obj) is wire.Block for obj in gc.get_objects()))
        return real(body, codec)

    for module in (wire, cli, store):
        if hasattr(module, "decode_block"):
            monkeypatch.setattr(module, "decode_block", spy)
    for argv in _commands(chain_path, tmp_path):
        alive.clear()
        assert cli.main(argv) == 0, argv
        assert len(alive) >= 30 and set(alive) == {0}, argv


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
    # the strategy models index the frames, so they hold no decoded chain
    (["compact", "--minimize", "--slack"], 3),
    (["estimate", "--minimize", "--slack"], 3),
]


@pytest.fixture(scope="module")
def archive_chain(tmp_path_factory):
    data, _ = gen_chain(ARCHIVE_PLAN)
    return _write(tmp_path_factory.mktemp("archive") / "chain.dat", data), len(data)


@pytest.mark.parametrize("command, bound", PEAK_BOUNDS, ids=lambda c: "-".join(c) if isinstance(c, list) else str(c))
def test_peak_memory_follows_the_chain_state(archive_chain, tmp_path, command, bound):
    chain_path, size = archive_chain
    store_dir = [str(tmp_path / "store")] if command[0] == "compact" else []
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


def _run_on_pipe(tmp_path, data, argv):
    """``cli.main(argv(path))`` with ``path`` a named pipe that a thread
    fills with ``data`` until the command closes it."""
    path = str(tmp_path / "chain.pipe")
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return cli.main(argv(path))
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()
        os.unlink(path)


def test_a_pipe_is_refused_by_the_store_commands_and_read_by_the_reports(small_chain, tmp_path, capsys):
    _, data = small_chain
    store_dir = str(tmp_path / "store")
    for argv in (
        lambda pipe: ["compact", pipe, store_dir],
        lambda pipe: ["compact", pipe, store_dir, "--minimize", "--slack"],
        lambda pipe: ["estimate", pipe],
        lambda pipe: ["estimate", pipe, "--dedup-scripts"],
    ):
        assert _run_on_pipe(tmp_path, data, argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {tmp_path / 'chain.pipe'}: not seekable")
        assert "needs a seekable file" in captured.err
        assert not os.path.exists(store_dir)
    for report in (["parse"], ["stats", "dedup"]):
        assert _run_on_pipe(tmp_path, data, lambda pipe: [*report, pipe]) == 0, report
        assert capsys.readouterr().out != ""


def test_only_slack_records_build_the_locator(small_chain, tmp_path, monkeypatch):
    chain_path, _ = small_chain
    reads = []
    built = ChainIndex.locator.fget

    def counting(index):
        reads.append(index)
        return built(index)

    monkeypatch.setattr(ChainIndex, "locator", property(counting))
    out, plain, slack = (str(tmp_path / name) for name in ("report.csv", "plain", "slack"))
    never = [[*report, chain_path, "--output", out] for report in REPORTS]
    never += [
        ["compact", chain_path, plain, "--output", out],
        ["verify", plain, "--output", out],
        ["estimate", chain_path, "--prune-blocks", "10", "--output", out],
        ["estimate", chain_path, "--minimize", "--output", out],
    ]
    for argv in never:
        assert cli.main(argv) == 0, argv
        assert not reads, argv
    assert cli.main(["compact", chain_path, slack, "--slack", "--output", out]) == 0
    assert reads
    reads.clear()
    assert cli.main(["verify", slack, "--output", out]) == 0
    assert not reads
