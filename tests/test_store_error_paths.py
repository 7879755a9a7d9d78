"""The store reader's error paths, one probe each.

Each probe cuts or removes one file of a minimize+slack+dedup store, or
cuts one record before the store is written, so that the manifest
agrees with it.  ``integrity_check`` must report the expected row and
message, ``read_store`` and ``decode_store_content`` must raise only
``LedgerError``, and ``ledgerpack verify`` must exit 1 without a
traceback.
"""

import os

import pytest

from ledgerpack import cli
from ledgerpack.errors import LedgerError
from ledgerpack.store import (
    BODIES_FILE,
    KIND_MINIMIZED,
    KVS_FILE,
    MANIFEST_FILE,
    SPINE_FILE,
    BodyRecord,
    build_store_model,
    decode_store_content,
    integrity_check,
    read_store,
    write_store,
)
from ledgerpack.wire import decode_varint, encode_varint

from test_store_contract import MUTATED_CONFIGS, chain  # noqa: F401  (module fixture)


def _store(chain, tmp_path, edit=None):
    blocks, state = chain
    model = build_store_model(blocks, state, MUTATED_CONFIGS["minimize+slack+dedup"])
    assert model.dedup_effective
    if edit is not None:
        edit(model)  # before the model serializes its files
    path = str(tmp_path / "store")
    write_store(model, path)
    return path, model


def _write(path, name, data):
    with open(os.path.join(path, name), "wb") as fh:
        fh.write(data)


def _remove(path, name):
    """Remove a store file; returns the message of reading it."""
    file = os.path.join(path, name)
    os.remove(file)
    return f"cannot read store file {name}: [Errno 2] No such file or directory: {file!r}"


def _last_minimized(model):
    return max(i for i, rec in enumerate(model.bodies) if rec.kind == KIND_MINIMIZED)


def _cut_minimized(cut):
    """An edit that replaces the last minimized record's payload by
    ``cut(payload)``."""

    def edit(model):
        i = _last_minimized(model)
        rec = model.bodies[i]
        model.bodies[i] = BodyRecord(rec.height, rec.kind, cut(rec.payload))

    return edit


def _first_kept_tx(payload):
    """Offset and length of a minimized payload's first kept tx, the
    offset counted from after the kept-tx form byte, as the reader does."""
    offset = 0
    for _ in range(4):  # leaf count, kept count, first position, its length
        length, used = decode_varint(payload, 1 + offset)
        offset += used
    return offset, length


# Each probe returns (store path, integrity row, its detail).


def manifest_without_checksum(chain, tmp_path):
    path, model = _store(chain, tmp_path)
    text = model.manifest_text()
    _write(path, MANIFEST_FILE, text[: text.rindex("checksum=")].encode("ascii"))
    return path, "manifest", "manifest is missing its checksum line"


def manifest_missing(chain, tmp_path):
    path, _ = _store(chain, tmp_path)
    return path, "manifest", _remove(path, MANIFEST_FILE)


def spine_record_cut_short(chain, tmp_path):
    path, model = _store(chain, tmp_path)
    data = model.spine_bytes()
    _write(path, SPINE_FILE, data[:-1])
    offset = len(data) - 33 - 80  # the tip's record has a header
    detail = f"spine record {model.tip} cut short (field=spine record, offset={offset})"
    return path, "structure", detail


def body_framing_cut_short(chain, tmp_path):
    path, model = _store(chain, tmp_path)
    data = model.bodies_bytes()
    last = model.bodies[-1]
    frame = bytes([last.kind]) + encode_varint(last.height) + encode_varint(len(last.payload)) + last.payload
    offset = len(data) - len(frame)
    _write(path, BODIES_FILE, data[: offset + 1])  # the kind byte only
    index = len(model.bodies) - 1
    detail = (
        f"body record {index} framing cut short: need 1 byte(s), have 0 "
        f"(field=varint prefix, offset={offset + 1}) (offset={offset})"
    )
    return path, "structure", detail


def kvs_reference_cut_short(chain, tmp_path):
    path, model = _store(chain, tmp_path)
    data = model.kvs_bytes()
    last = model.kvs[max(model.kvs)]
    offset = len(data) - 8 - len(encode_varint(len(last))) - len(last)
    _write(path, KVS_FILE, data[: offset + 4])
    detail = f"KVS record {len(model.kvs) - 1} reference cut short (offset={offset})"
    return path, "structure", detail


def kvs_script_length_cut_short(chain, tmp_path):
    path, model = _store(chain, tmp_path)
    data = model.kvs_bytes()
    last = model.kvs[max(model.kvs)]
    offset = len(data) - 8 - len(encode_varint(len(last))) - len(last)
    _write(path, KVS_FILE, data[: offset + 8])  # the reference only
    detail = (
        f"KVS record {len(model.kvs) - 1} script cut short: need 1 byte(s), have 0 "
        f"(field=varint prefix, offset={offset + 8}) (offset={offset})"
    )
    return path, "structure", detail


def minimized_payload_empty(chain, tmp_path):
    path, model = _store(chain, tmp_path, _cut_minimized(lambda payload: b""))
    height = model.bodies[_last_minimized(model)].height
    return path, "decode", f"TruncationError: minimized record at height {height} is empty"


def kept_tx_cut_short(chain, tmp_path):
    def cut(payload):
        offset, length = _first_kept_tx(payload)
        return payload[: 1 + offset + length // 2]

    path, model = _store(chain, tmp_path, _cut_minimized(cut))
    offset, _ = _first_kept_tx(model.bodies[_last_minimized(model)].payload)
    return path, "decode", f"TruncationError: kept tx cut short (field=minimized tx, offset={offset})"


PROBES = {
    "manifest_without_checksum": manifest_without_checksum,
    "manifest_missing": manifest_missing,
    "spine_record_cut_short": spine_record_cut_short,
    "body_framing_cut_short": body_framing_cut_short,
    "kvs_reference_cut_short": kvs_reference_cut_short,
    "kvs_script_length_cut_short": kvs_script_length_cut_short,
    "minimized_payload_empty": minimized_payload_empty,
    "kept_tx_cut_short": kept_tx_cut_short,
}


def _check(path, row, detail, capsys):
    report = integrity_check(path)
    assert (row, detail) in [(c.name, c.detail) for c in report.failures]
    with pytest.raises(LedgerError):
        decode_store_content(read_store(path))
    capsys.readouterr()
    assert cli.main(["verify", path]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name", list(PROBES))
def test_error_path(chain, tmp_path, capsys, name):
    _check(*PROBES[name](chain, tmp_path), capsys)


@pytest.mark.parametrize("name, row", [(SPINE_FILE, "spine"), (BODIES_FILE, "bodies"), (KVS_FILE, "kvs")])
def test_missing_data_file(chain, tmp_path, capsys, name, row):
    path, _ = _store(chain, tmp_path)
    _check(path, f"digest_{row}", _remove(path, name), capsys)
