"""The CLI runs each command with the cyclic garbage collector off.

``cli.main`` turns the collector off for the length of a command and
restores the caller's setting however the command ends.  That is only
safe while commands build no reference cycles, so the cyclic garbage a
command leaves behind must not grow with its input.
"""

import contextlib
import gc
import io
import os

import pytest

from ledgerpack import cli
from ledgerpack.fixture import ChainPlan, gen_chain


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@contextlib.contextmanager
def collector(enabled):
    was = gc.isenabled()
    set_collector(enabled)
    try:
        yield
    finally:
        set_collector(was)


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def write_chain(path, n_blocks):
    data, _ = gen_chain(
        ChainPlan(seed=5505, n_blocks=n_blocks, txs_per_block=6, segwit_fraction=0.4, dup_rate=0.4)
    )
    with open(path, "wb") as fh:
        fh.write(data)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    return write_chain(tmp_path / "chain.blk", 10)


def test_collector_is_off_during_a_command_and_restored_after_success(chain_file, monkeypatch):
    seen = []
    real_parse = cli.cmd_parse

    def spy(args):
        seen.append(gc.isenabled())
        return real_parse(args)

    monkeypatch.setattr(cli, "cmd_parse", spy)
    with collector(True):
        assert run_quietly(["parse", chain_file]) == 0
        assert gc.isenabled()
    assert seen == [False]


def test_collector_restored_after_a_data_error(tmp_path):
    path = tmp_path / "bad.blk"
    path.write_bytes(b"\x01\x02\x03\x04" + bytes(8))
    with collector(True):
        assert run_quietly(["parse", str(path)]) == 1
        assert gc.isenabled()


def test_collector_restored_after_an_os_error(tmp_path):
    with collector(True):
        assert run_quietly(["parse", str(tmp_path / "missing.blk")]) == 1
        assert gc.isenabled()


def test_collector_restored_after_a_usage_error():
    with collector(True):
        with pytest.raises(SystemExit):
            run_quietly(["parse"])
        assert gc.isenabled()


def test_collector_left_off_when_it_was_off(chain_file, tmp_path):
    with collector(False):
        assert run_quietly(["parse", chain_file]) == 0
        assert not gc.isenabled()
        assert run_quietly(["parse", str(tmp_path / "missing.blk")]) == 1
        assert not gc.isenabled()


def cyclic_garbage(chain, store):
    """gc.collect() count after each command, collector off throughout."""
    commands = [
        ["parse", chain],
        ["estimate", chain, "--minimize", "--slack", "--dedup-scripts"],
        ["compact", chain, store],
        ["verify", store],
    ]
    counts = []
    with collector(False):
        for argv in commands:
            gc.collect()
            assert run_quietly(argv) == 0, argv
            counts.append(gc.collect())
    return counts


def test_cyclic_garbage_does_not_grow_with_the_chain(tmp_path):
    small = write_chain(tmp_path / "small.blk", 10)
    large = write_chain(tmp_path / "large.blk", 40)
    assert os.path.getsize(large) > 3 * os.path.getsize(small)
    assert cyclic_garbage(small, str(tmp_path / "small")) == cyclic_garbage(large, str(tmp_path / "large"))
