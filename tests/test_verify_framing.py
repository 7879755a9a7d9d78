"""verify on stores whose body-record framing is rewritten.

Random byte flips almost never land on a record's kind byte, height
varint or length varint, so these rewrite each of them directly.  Every
such store must fail its integrity check with a report, never a
traceback.
"""

import hashlib
import io
import os

import pytest

from ledgerpack import cli
from ledgerpack.fixture import ChainPlan, gen_chain
from ledgerpack.store import (
    BODIES_FILE,
    KIND_COMPACT,
    KIND_MINIMIZED,
    KIND_RAW,
    MANIFEST_FILE,
    build_store_model,
    integrity_check,
    write_store,
)
from ledgerpack.wire import encode_varint, read_block_stream

# the four stores (and their chain) that the random-flip contract test uses
from test_store_contract import MUTATED_CONFIGS, chain  # noqa: F401


def _frame(kind, height, length, payload):
    return bytes([kind]) + encode_varint(height) + encode_varint(length) + payload


def _restamp_bodies_digest(path, bodies):
    """Write a bodies file and make the manifest agree with it, so only the
    structural and content checks can catch what changed."""
    with open(os.path.join(path, BODIES_FILE), "wb") as fh:
        fh.write(bodies)
    manifest = os.path.join(path, MANIFEST_FILE)
    with open(manifest) as fh:
        head = fh.read().rpartition("checksum=")[0]
    lines = [
        f"sha256_bodies={hashlib.sha256(bodies).hexdigest()}"
        if line.startswith("sha256_bodies=")
        else line
        for line in head.splitlines()
    ]
    head = "\n".join(lines) + "\n"
    with open(manifest, "w") as fh:
        fh.write(head + f"checksum={hashlib.sha256(head.encode('utf-8')).hexdigest()}\n")


def test_verify_reports_a_body_height_past_the_tip(tmp_path, capsys):
    data, _ = gen_chain(ChainPlan(seed=41, n_blocks=20))
    blocks = [b for b, _ in read_block_stream(io.BytesIO(data))]
    path = str(tmp_path / "store")
    write_store(build_store_model(blocks), path)
    bodies_path = os.path.join(path, BODIES_FILE)
    with open(bodies_path, "rb") as fh:
        data = bytearray(fh.read())
    data[1] = 0x50  # record 0's height varint: 80, past tip 19
    with open(bodies_path, "wb") as fh:
        fh.write(data)

    assert cli.main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "body_height,80,0," in out


@pytest.mark.parametrize("label", list(MUTATED_CONFIGS))
def test_rewritten_framing_fails_verify_without_raising(chain, tmp_path, label):
    blocks, state = chain
    model = build_store_model(blocks, state, MUTATED_CONFIGS[label])
    path = str(tmp_path / "store")
    write_store(model, path)
    frames = [_frame(r.kind, r.height, len(r.payload), r.payload) for r in model.bodies]
    assert b"".join(frames) == model.bodies_bytes()
    tip = len(blocks) - 1

    kinds = (0x00, KIND_RAW, KIND_MINIMIZED, KIND_COMPACT, 0xFF)
    for i, rec in enumerate(model.bodies):
        n = len(rec.payload)
        rewrites = [(kind, rec.height, n) for kind in kinds if kind != rec.kind]
        rewrites.append((rec.kind, tip + 1, n))
        if rec.height > 0:
            rewrites.append((rec.kind, rec.height - 1, n))
        rewrites += [(rec.kind, rec.height, n + 1), (rec.kind, rec.height, n - 1)]
        for kind, height, length in rewrites:
            frame = _frame(kind, height, length, rec.payload)
            _restamp_bodies_digest(path, b"".join(frames[:i] + [frame] + frames[i + 1 :]))
            report = integrity_check(path)
            failed = {c.name for c in report.failures}
            assert failed and "digest_bodies" not in failed, (label, i, kind, height, length)
