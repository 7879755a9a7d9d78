"""Output checks: every CLI report is compared with the generator's books.

A check returns a list of problems; an empty list means the output is
correct.  The expectations are worked out here from the chain bytes and
the fixture's ``GroundTruth``, never from the program's own analysis
code, so a wrong answer from the program cannot also be the reference.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import os
import struct
from collections import Counter

STORE_DATA_FILES = ("spine.bin", "bodies.bin", "scripts.kvs")
LIFESPAN_PERCENTILES = (0.5, 0.9, 0.99)  # the CLI's default --percentiles
DORMANCY_BUCKET_WIDTH = 10  # the CLI's default --bucket-width
COMPOSITION_BUCKETS = (
    "block_header",
    "tx_header",
    "txin_fixed",
    "txin_script",
    "txout_fixed",
    "txout_script",
    "witness",
)


def block_bodies(data: bytes) -> list:
    """Split a framed block file (magic, LE length, body) into block bodies."""
    bodies = []
    offset = 0
    while offset < len(data):
        (size,) = struct.unpack_from("<I", data, offset + 4)
        bodies.append(data[offset + 8 : offset + 8 + size])
        offset += 8 + size
    return bodies


def block_hash_hex(body: bytes) -> str:
    return hashlib.sha256(hashlib.sha256(body[:80]).digest()).digest()[::-1].hex()


def read_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _metric_table(text: str) -> dict:
    return {row["metric"]: row["value"] for row in read_csv(text)}


def _compare(problems: list, what: str, got, want) -> None:
    if str(got) != str(want):
        problems.append(f"{what}: got {got!r}, expected {want!r}")


class Expected:
    """Ground truth for one generated chain, in the shape the reports take."""

    def __init__(self, data: bytes, truth, n_blocks: int):
        self.data = data
        self.bodies = block_bodies(data)
        self.n_blocks = n_blocks
        self.n_txs = truth.n_txs
        self.utxos = truth.utxo_count
        self.lifespans = sorted(truth.lifespans)
        self.utxo_outpoints = truth.utxo_outpoints
        self.utxo_heights = truth.utxo_creation_heights
        self.composition = dict(truth.composition)
        self.input_scripts = truth.input_scripts
        self.output_scripts = truth.output_scripts

    def percentile(self, p: float):
        """Smallest lifespan L whose share of all outputs (spent or not) is >= p."""
        total = len(self.lifespans) + self.utxos
        for lifespan in sorted(set(self.lifespans)):
            if bisect.bisect_right(self.lifespans, lifespan) / total >= p:
                return lifespan
        return "unreachable"


def check_parse(text: str, exp: Expected) -> list:
    problems: list = []
    got = _metric_table(text)
    want = {
        "blocks": exp.n_blocks,
        "transactions": exp.n_txs,
        "block_bytes": sum(len(b) for b in exp.bodies),
        "tip_height": exp.n_blocks - 1,
        "tip_hash": block_hash_hex(exp.bodies[-1]),
        "utxos": exp.utxos,
        "spent_outputs": len(exp.lifespans),
    }
    for key, value in want.items():
        _compare(problems, f"parse {key}", got.get(key), value)
    return problems


def check_lifespan(text: str, exp: Expected) -> list:
    problems: list = []
    got = _metric_table(text)
    want = {
        "spent": len(exp.lifespans),
        "dormant": exp.utxos,
        "total": len(exp.lifespans) + exp.utxos,
    }
    for p in LIFESPAN_PERCENTILES:
        want[f"p{p * 100:g}"] = exp.percentile(p)
    for key, value in want.items():
        _compare(problems, f"lifespan {key}", got.get(key), value)
    return problems


def check_composition(text: str, exp: Expected) -> list:
    problems: list = []
    got = {(r["epoch"], r["bucket"]): r for r in read_csv(text)}
    # Every generated height lies below the CLI's default split height, so
    # all bytes belong to the "pre" epoch and "post" is empty.
    total = sum(exp.composition.values())
    for epoch, books in [("pre", exp.composition), ("post", None), ("total", exp.composition)]:
        for bucket in COMPOSITION_BUCKETS:
            row = got.get((epoch, bucket), {})
            value = books[bucket] if books else 0
            _compare(problems, f"composition {epoch}/{bucket} bytes", row.get("bytes"), value)
            share = f"{value / total:.6f}" if books else f"{0.0:.6f}"
            _compare(problems, f"composition {epoch}/{bucket} fraction", row.get("fraction"), share)
        row = got.get((epoch, "total"), {})
        _compare(problems, f"composition {epoch}/total bytes", row.get("bytes"), total if books else 0)
    return problems


def _dedup_side(counts: Counter) -> dict:
    repeated = {s: n for s, n in counts.items() if n >= 2}
    occurrences = sum(repeated.values())
    total = sum(n * len(s) for s, n in repeated.items())
    once = sum(len(s) for s in repeated)
    return {
        "duplicated_distinct": len(repeated),
        "duplicated_occurrences": occurrences,
        "total_bytes": total,
        "dedup_bytes": once,
        "avg_len": f"{total / occurrences if occurrences else 0.0:.2f}",
        "saved_bytes": total - once,
    }


def check_dedup(text: str, exp: Expected) -> list:
    problems: list = []
    got = {r["side"]: r for r in read_csv(text)}
    for side, counts in [("input", exp.input_scripts), ("output", exp.output_scripts)]:
        row = got.get(side, {})
        for key, value in _dedup_side(counts).items():
            _compare(problems, f"dedup {side} {key}", row.get(key), value)
    return problems


def check_dormancy(text: str, exp: Expected) -> list:
    problems: list = []
    width = DORMANCY_BUCKET_WIDTH
    n = exp.n_blocks
    want = []
    for i in range((n + width - 1) // width):
        count = sum(exp.utxo_heights[h] for h in range(i * width, min((i + 1) * width, n)))
        want.append([f"bucket_{i}", i * width, min((i + 1) * width, n) - 1, count])
    want.append(["blocks_with_utxo", 0, n - 1, sum(1 for c in exp.utxo_heights.values() if c)])
    got = [[r["row"], r["height_lo"], r["height_hi"], r["utxos"]] for r in read_csv(text)]
    _compare(problems, "dormancy rows", [[str(v) for v in row] for row in got], [[str(v) for v in row] for row in want])
    return problems


def check_estimate(text: str, context: dict) -> list:
    """Every row fits under the baseline and the combined row under every single."""
    problems: list = []
    rows = [(r["strategy"], int(r["bytes"])) for r in read_csv(text)]
    if not rows or rows[0][0] != "baseline":
        return [f"estimate: first row is not the baseline: {rows[:1]}"]
    baseline = rows[0][1]
    for label, size in rows:
        if size > baseline:
            problems.append(f"estimate {label}: {size} bytes exceeds the baseline {baseline}")
    combined_label, combined = rows[-1]
    for label, size in rows[1:-1]:
        if combined > size:
            problems.append(f"estimate {combined_label}: {combined} bytes exceeds single {label} {size}")
    context["estimate_bytes"] = combined
    return problems


def store_file_sizes(store: str) -> dict:
    return {name: os.path.getsize(os.path.join(store, name)) for name in sorted(os.listdir(store))}


def check_compact(text: str, store: str, expected_label: str, exp: Expected, context: dict) -> list:
    """Reported sizes equal the files on disk and the matching estimate row."""
    problems: list = []
    got = _metric_table(text)
    _compare(problems, "compact strategy", got.get("strategy"), expected_label)
    _compare(problems, "compact tip", got.get("tip"), exp.n_blocks - 1)
    sizes = store_file_sizes(store)
    on_disk = 0
    for key, name in zip(("spine_bytes", "bodies_bytes", "kvs_bytes"), STORE_DATA_FILES):
        _compare(problems, f"compact {key} vs {name} on disk", got.get(key), sizes.get(name))
        on_disk += sizes.get(name, 0)
    _compare(problems, "compact retained_bytes vs files on disk", got.get("retained_bytes"), on_disk)
    if "estimate_bytes" in context:
        _compare(problems, "compact retained_bytes vs estimate", got.get("retained_bytes"), context["estimate_bytes"])
    return problems


def check_verify(text: str) -> list:
    rows = read_csv(text)
    if not rows:
        return ["verify printed no checks"]
    return [f"verify check {r['check']} {r['height']} failed: {r['detail']}" for r in rows if r["ok"] != "1"]


def check_command(name: str, returncode: int, stdout: str, exp: Expected, context: dict, store: str, label: str) -> list:
    """Problems with one command's result; an exit code other than 0 is one."""
    if returncode != 0:
        return [f"{name} exited with code {returncode}"]
    if name == "parse":
        return check_parse(stdout, exp)
    if name == "stats.lifespan":
        return check_lifespan(stdout, exp)
    if name == "stats.composition":
        return check_composition(stdout, exp)
    if name == "stats.dedup":
        return check_dedup(stdout, exp)
    if name == "stats.dormancy":
        return check_dormancy(stdout, exp)
    if name == "estimate":
        return check_estimate(stdout, context)
    if name == "compact":
        return check_compact(stdout, store, label, exp, context)
    if name == "verify":
        return check_verify(stdout)
    return [f"no check for command {name}"]


def check_round_trip(store: str, exp: Expected) -> list:
    """Decode the store in-process and compare every retained record with the input.

    Full records must give back the input block bytes; minimized records
    must keep exactly the transactions that still carry unspent outputs,
    each byte for byte.  A retained height may lack a record only when
    minimize is on and none of its transactions carries an unspent output.
    """
    from ledgerpack.store import decode_store_content, read_store
    from ledgerpack.wire import decode_transaction, decode_varint, txid

    problems: list = []
    view = read_store(store)
    content = decode_store_content(view)
    unspent_txids = {tx_hash for tx_hash, _ in exp.utxo_outpoints}
    for height, raw in content.block_bytes.items():
        if raw != exp.bodies[height]:
            problems.append(f"round trip: block bytes differ at height {height}")
    for height, mb in content.minimized.items():
        body = exp.bodies[height]
        want = {}
        _, offset = decode_varint(body, 80)
        offset += 80
        for pos in range(mb.n_leaves):
            tx, used = decode_transaction(body, offset)
            if txid(tx) in unspent_txids:
                want[pos] = body[offset : offset + used]
            offset += used
        if {pos: bytes(raw) for pos, raw in mb.kept} != want:
            problems.append(f"round trip: minimized block at height {height} keeps the wrong transactions")
    for height in range(view.manifest.keep_from, exp.n_blocks):
        if height in content.blocks or height in content.minimized:
            continue
        if not view.manifest.minimize or exp.utxo_heights[height]:
            problems.append(f"round trip: no record for retained height {height}")
    return problems
