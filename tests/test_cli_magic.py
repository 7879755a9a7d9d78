"""``--magic``: a chain framed with another network's magic reads only
under that magic, reports what the same seed's mainnet-framed chain
reports, and carries its magic into the store's manifest."""

import os

import pytest

from ledgerpack.cli import main
from ledgerpack.store import MANIFEST_FILE, read_store

TESTNET = "0b110907"
STRATEGY = ["--prune-blocks", "5", "--minimize", "--slack", "--dedup-scripts"]


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


@pytest.fixture
def chains(tmp_path, capsys):
    """(mainnet-framed, testnet-framed) block files of one seed."""
    mainnet, testnet = str(tmp_path / "mainnet.blk"), str(tmp_path / "testnet.blk")
    for path, extra in [(mainnet, []), (testnet, ["--magic", TESTNET])]:
        code, _ = _run(capsys, ["genchain", path, "--seed", "4", "--blocks", "15", "--dup-rate", "0.4", *extra])
        assert code == 0
    return mainnet, testnet


@pytest.mark.parametrize("command", [["parse"], ["estimate", *STRATEGY]])
def test_magic_reads_the_same_rows(chains, capsys, command):
    mainnet, testnet = chains
    code, want = _run(capsys, [command[0], mainnet, *command[1:]])
    assert code == 0
    code, got = _run(capsys, [command[0], testnet, *command[1:], "--magic", TESTNET])
    assert code == 0
    assert got.out == want.out


def test_compact_writes_the_magic(chains, tmp_path, capsys):
    store = str(tmp_path / "store")
    code, _ = _run(capsys, ["compact", chains[1], store, *STRATEGY, "--magic", TESTNET])
    assert code == 0
    assert read_store(store).manifest.magic == int(TESTNET, 16)
    with open(os.path.join(store, MANIFEST_FILE), encoding="ascii") as fh:
        assert f"magic={TESTNET}\n" in fh.read()
    code, _ = _run(capsys, ["verify", store])
    assert code == 0


@pytest.mark.parametrize("command", ["parse", "estimate", "compact"])
def test_other_magic_is_rejected(chains, tmp_path, capsys, command):
    argv = [command, chains[1]]
    if command == "compact":
        argv.append(str(tmp_path / "store"))
    if command != "parse":
        argv += STRATEGY
    code, captured = _run(capsys, argv)
    assert code == 1
    assert "bad magic" in captured.err
    assert "Traceback" not in captured.err
