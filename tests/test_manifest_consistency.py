"""``verify`` checks the manifest's strategy fields against the records.

A manifest re-stamped with a fresh checksum passes every digest, so its
flags, ``keep_from`` and ``prune_threshold`` must agree with each other
and with the spine and body records, and each value must read back in
the form the writer writes: a flag ``0`` or ``1``, a number without a
sign, space, underscore or leading zero, the magic in lowercase hex.
The manifest as a whole must be the text the writer writes: no extra,
repeated or reordered line, blank line or padding.  Each probe below
passed ``verify`` before these checks; now it exits 1 without a
traceback, while every golden store and an empty pruned chain still
pass.  The manifest is read as bytes, like the other store files, so
CRLF line endings are not read as the LF text the writer wrote.
"""

import hashlib
import io
import os

import pytest

from ledgerpack import cli
from ledgerpack.chain import build_chain
from ledgerpack.errors import StoreError
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.store import MANIFEST_FILE, build_store_model, integrity_check, read_store, write_store
from ledgerpack.strategies import PruneConfig, StrategyConfig
from ledgerpack.wire import read_block_stream

from test_golden import CHAINS, all_configs

PRUNE = PruneConfig("blocks", blocks=5)


@pytest.fixture(scope="module")
def chain():
    data, _ = gen_chain(ChainPlan(seed=3, n_blocks=20))
    blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
    return blocks, build_chain(blocks)


def _store(chain, tmp_path, config, edit=None):
    blocks, state = chain
    model = build_store_model(blocks, state, config)
    if edit is not None:
        edit(model)  # before the model serializes its files
    path = str(tmp_path / "store")
    write_store(model, path)
    return path


def _restamp(path, key, value):
    """Replace one manifest value and re-stamp the checksum line."""
    manifest = os.path.join(path, MANIFEST_FILE)
    with open(manifest, encoding="ascii") as fh:
        lines = fh.read().splitlines(keepends=True)[:-1]  # drop the checksum line
    assert any(line.startswith(f"{key}=") for line in lines)
    head = "".join(f"{key}={value}\n" if line.startswith(f"{key}=") else line for line in lines)
    with open(manifest, "w", encoding="ascii") as fh:
        fh.write(head + f"checksum={hashlib.sha256(head.encode('ascii')).hexdigest()}\n")


def _failures(path):
    return [(c.name, c.height) for c in integrity_check(path).failures]


def _verify_exits_1(path, capsys):
    assert cli.main(["verify", path]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_probe_store_keeps_from_14(chain, tmp_path):
    path = _store(chain, tmp_path, StrategyConfig(prune=PRUNE))
    manifest = read_store(path).manifest
    assert (manifest.tip, manifest.keep_from, manifest.prune_threshold) == (19, 14, 5)
    assert integrity_check(path).passed


@pytest.mark.parametrize(
    "key, value, failure",
    [
        ("minimize", "x", ("manifest", None)),
        ("slack", "2", ("manifest", None)),
        ("keep_from", "2", ("manifest_keep_from", None)),
        ("keep_from", "-1", ("manifest_keep_from", None)),
        ("prune_threshold", "-1", ("manifest_prune", None)),
        ("prune", "0", ("manifest_prune", None)),
    ],
)
def test_restamped_prune_store_fails_verify(chain, tmp_path, capsys, key, value, failure):
    path = _store(chain, tmp_path, StrategyConfig(prune=PRUNE))
    _restamp(path, key, value)
    assert failure in _failures(path)
    _verify_exits_1(path, capsys)


def test_malformed_flag_is_named(chain, tmp_path):
    path = _store(chain, tmp_path, StrategyConfig(prune=PRUNE))
    _restamp(path, "minimize", "x")
    (failure,) = integrity_check(path).failures
    assert failure.detail.startswith("manifest has a malformed value")


def test_missing_body_fails_verify(chain, tmp_path, capsys):
    def drop_15(model):
        model.bodies[:] = [rec for rec in model.bodies if rec.height != 15]

    path = _store(chain, tmp_path, StrategyConfig(prune=PRUNE), drop_15)
    assert _failures(path) == [("spine_header", 15), ("body_missing", 15)]
    _verify_exits_1(path, capsys)


@pytest.mark.parametrize(
    "config, key, value, failure",
    [
        (StrategyConfig(slack=True, dedup=True), "dedup_requested", "0", "manifest_dedup"),
        (StrategyConfig(slack=True), "dedup", "1", "manifest_dedup"),
        (StrategyConfig(slack=True), "slack", "0", "body_kind"),
        (StrategyConfig(prune=PRUNE, minimize=True, slack=True), "minimize", "0", "body_kind"),
        (StrategyConfig(prune=PRUNE, minimize=True, slack=True), "slack", "0", "body_kind"),
    ],
)
def test_flag_without_its_records_fails_verify(chain, tmp_path, capsys, config, key, value, failure):
    path = _store(chain, tmp_path, config)
    assert integrity_check(path).passed
    _restamp(path, key, value)
    assert failure in [name for name, _ in _failures(path)]
    _verify_exits_1(path, capsys)


@pytest.mark.parametrize(
    "key, text",
    [("slack", text) for text in ["", "x", "2", "-1", " 1", "01", "true"]]
    + [("prune_threshold", "-2"), ("prune_threshold", "x")],
)
def test_malformed_flag_or_threshold_is_rejected(chain, tmp_path, key, text):
    path = _store(chain, tmp_path, StrategyConfig(prune=PRUNE))
    _restamp(path, key, text)
    with pytest.raises(StoreError, match="manifest has a malformed value"):
        read_store(path)


@pytest.mark.parametrize(
    "key, text, written",
    [
        ("tip", "+19", "19"),
        ("tip", " 19", "19"),
        ("tip", "1_9", "19"),
        ("keep_from", "014", "14"),
        ("magic", "0xf9beb4d9", "f9beb4d9"),
        ("magic", "F9BEB4D9", "f9beb4d9"),
    ],
)
def test_a_value_is_read_only_in_its_written_form(chain, tmp_path, capsys, key, text, written):
    # each text reads as the value the writer wrote, in another form
    path = _store(chain, tmp_path, StrategyConfig(prune=PRUNE))
    _restamp(path, key, text)
    (failure,) = integrity_check(path).failures
    assert (failure.name, failure.detail) == (
        "manifest",
        f"manifest has a malformed value: {key} {text!r} is not its written form {written!r}",
    )
    _verify_exits_1(path, capsys)


@pytest.mark.parametrize("text, threshold", [("-1", None), ("0", 0), ("5", 5)])
def test_threshold_reads_minus_one_as_none(chain, tmp_path, text, threshold):
    path = _store(chain, tmp_path, StrategyConfig(prune=PRUNE))
    _restamp(path, "prune_threshold", text)
    assert read_store(path).manifest.prune_threshold == threshold


def test_golden_stores_pass(tmp_path):
    for name, plan in CHAINS.items():
        data, _ = gen_chain(plan)
        blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
        state = build_chain(blocks)
        for config in all_configs():
            path = str(tmp_path / name / config.label())
            write_store(build_store_model(blocks, state, config), path)
            report = integrity_check(path)
            assert report.passed, (name, config.label(), report.failures)


def test_empty_pruned_chain_passes(tmp_path, capsys):
    chain_file, store = str(tmp_path / "empty.dat"), str(tmp_path / "store")
    assert cli.main(["genchain", chain_file, "--blocks", "0"]) == 0
    assert cli.main(["compact", chain_file, store, "--prune-blocks", "1"]) == 0
    manifest = read_store(store).manifest
    assert (manifest.tip, manifest.prune, manifest.prune_threshold) == (-1, True, None)
    capsys.readouterr()
    assert cli.main(["verify", store]) == 0


def _restamped_lines(edit):
    """A manifest rewrite that edits the lines before the checksum line
    and re-stamps the checksum."""

    def rewrite(text):
        head = "".join(edit(text.splitlines(keepends=True)[:-1]))
        return head + f"checksum={hashlib.sha256(head.encode('ascii')).hexdigest()}\n"

    return rewrite


def _before_keep_from(lines):
    at = next(i for i, line in enumerate(lines) if line.startswith("keep_from="))
    return lines[:at] + ["keep_from=0\n"] + lines[at:]


# each rewrite keeps every value the store was written with
REWRITTEN_MANIFESTS = {
    "extra_line": _restamped_lines(lambda lines: lines + ["foo=bar\n"]),
    "repeated_tip": _restamped_lines(lambda lines: lines + ["tip=19\n"]),
    "earlier_keep_from": _restamped_lines(_before_keep_from),
    "reversed_lines": _restamped_lines(lambda lines: lines[::-1]),
    "leading_blank_line": _restamped_lines(lambda lines: ["\n"] + lines),
    "padded_checksum": lambda text: text[:-1] + "  \n\n",
}


def _rewrite_manifest(path, rewrite):
    manifest = os.path.join(path, MANIFEST_FILE)
    with open(manifest, encoding="ascii") as fh:
        text = fh.read()
    with open(manifest, "w", encoding="ascii") as fh:
        fh.write(rewrite(text))


@pytest.mark.parametrize("name", list(REWRITTEN_MANIFESTS))
def test_manifest_is_read_only_as_written(chain, tmp_path, capsys, name):
    path = _store(chain, tmp_path, StrategyConfig(prune=PRUNE))
    _rewrite_manifest(path, REWRITTEN_MANIFESTS[name])
    (failure,) = integrity_check(path).failures
    assert (failure.name, failure.detail) == ("manifest", "manifest is not in its written form")
    _verify_exits_1(path, capsys)


def _manifest_bytes(path):
    with open(os.path.join(path, MANIFEST_FILE), "rb") as fh:
        return fh.read()


def _write_manifest(path, data):
    with open(os.path.join(path, MANIFEST_FILE), "wb") as fh:
        fh.write(data)


def _crlf_old_checksum(path):
    _write_manifest(path, _manifest_bytes(path).replace(b"\n", b"\r\n"))
    return "manifest checksum mismatch"


def _crlf_restamped(path):
    data = _manifest_bytes(path)
    head = data[: data.rindex(b"checksum=")].replace(b"\n", b"\r\n")
    _write_manifest(path, head + b"checksum=" + hashlib.sha256(head).hexdigest().encode("ascii") + b"\r\n")
    return "manifest is not in its written form"


def _missing(path):
    manifest = os.path.join(path, MANIFEST_FILE)
    os.remove(manifest)
    return f"cannot read store file {MANIFEST_FILE}: [Errno 2] No such file or directory: {manifest!r}"


# each edits the manifest and returns the message of reading it; a reader
# in text mode read the CRLF ones as LF text
BYTES_MANIFESTS = {
    "crlf_old_checksum": _crlf_old_checksum,
    "crlf_restamped": _crlf_restamped,
    "missing": _missing,
}


@pytest.mark.parametrize("name", list(BYTES_MANIFESTS))
def test_manifest_is_read_as_bytes(chain, tmp_path, capsys, name):
    path = _store(chain, tmp_path, StrategyConfig(prune=PRUNE))
    detail = BYTES_MANIFESTS[name](path)
    (failure,) = integrity_check(path).failures
    assert (failure.name, failure.detail) == ("manifest", detail)
    with pytest.raises(StoreError) as raised:
        read_store(path)
    assert str(raised.value) == detail
    _verify_exits_1(path, capsys)
