"""Every report on a chain of no blocks, pinned byte for byte.

These are the smallest reports the CLI writes.  Each must still exit 0
and keep its full header, in CSV and in ldjson alike.  ``stats
lifespan``'s default creation interval, ``[0, tip]``, holds no UTXO on
such a chain, so it reports zero counts and every percentile
unreachable; an explicit empty interval still exits 1.
"""

import json

import pytest

from ledgerpack.cli import main

ALL_FLAGS = ["--prune-blocks", "1", "--minimize", "--slack", "--dedup-scripts"]
COMMANDS = {
    "parse": ["parse", "{chain}"],
    "stats lifespan": ["stats", "lifespan", "{chain}"],
    "stats composition": ["stats", "composition", "{chain}"],
    "stats dedup": ["stats", "dedup", "{chain}"],
    "stats dormancy": ["stats", "dormancy", "{chain}"],
    "estimate": ["estimate", "{chain}", *ALL_FLAGS],
    "compact": ["compact", "{chain}", "{store}", *ALL_FLAGS],
    "verify": ["verify", "{store}"],
}
BUCKETS = [
    "block_header",
    "tx_header",
    "txin_fixed",
    "txin_script",
    "txout_fixed",
    "txout_script",
    "witness",
    "total",
]

EXPECTED_CSV = {
    "parse": (
        "metric,value\n"
        "blocks,0\n"
        "transactions,0\n"
        "block_bytes,0\n"
        "tip_height,-1\n"
        "tip_hash,\n"
        "utxos,0\n"
        "spent_outputs,0\n"
    ),
    "stats lifespan": (
        "metric,value\n"
        "spent,0\n"
        "dormant,0\n"
        "total,0\n"
        "p50,unreachable\n"
        "p90,unreachable\n"
        "p99,unreachable\n"
    ),
    "stats composition": "epoch,bucket,bytes,fraction\n"
    + "".join(f"{epoch},{bucket},0,0.000000\n" for epoch in ("pre", "post", "total") for bucket in BUCKETS),
    "stats dedup": (
        "side,duplicated_distinct,duplicated_occurrences,total_bytes,dedup_bytes,avg_len,saved_bytes\n"
        "input,0,0,0,0,0.00,0\n"
        "output,0,0,0,0,0.00,0\n"
    ),
    "stats dormancy": "row,height_lo,height_hi,utxos\nblocks_with_utxo,0,-1,0\n",
    "estimate": (
        "strategy,bytes,reduction_percent\n"
        "baseline,0,0.00\n"
        "prune,0,0.00\n"
        "minimize,0,0.00\n"
        "slack,0,0.00\n"
        "dedup,0,0.00\n"
        "prune+minimize+slack+dedup,0,0.00\n"
    ),
    "compact": (
        "metric,value\n"
        "store,{store}\n"
        "strategy,prune+minimize+slack+dedup\n"
        "tip,-1\n"
        "keep_from,0\n"
        "prune_threshold,\n"
        "body_records,0\n"
        "dedup_effective,0\n"
        "spine_bytes,0\n"
        "bodies_bytes,0\n"
        "kvs_bytes,0\n"
        "retained_bytes,0\n"
        "slack_txs,0\n"
        "slack_compact,0\n"
        "slack_passthrough,0\n"
        "slack_bytes_in,0\n"
        "slack_bytes_out,0\n"
    ),
    "verify": (
        "check,height,ok,detail\n"
        "manifest,,1,\n"
        "digest_spine,,1,\n"
        "digest_bodies,,1,\n"
        "digest_kvs,,1,\n"
        "structure,,1,\n"
        "spine,,1,\n"
        "layout,,1,\n"
        "decode,,1,\n"
        "content,,1,\n"
    ),
}

EXPECTED_LDJSON = {
    "parse": [
        {"metric": "blocks", "value": 0},
        {"metric": "transactions", "value": 0},
        {"metric": "block_bytes", "value": 0},
        {"metric": "tip_height", "value": -1},
        {"metric": "tip_hash", "value": ""},
        {"metric": "utxos", "value": 0},
        {"metric": "spent_outputs", "value": 0},
    ],
    "stats lifespan": [
        {"metric": "spent", "value": 0},
        {"metric": "dormant", "value": 0},
        {"metric": "total", "value": 0},
        {"metric": "p50", "value": "unreachable"},
        {"metric": "p90", "value": "unreachable"},
        {"metric": "p99", "value": "unreachable"},
    ],
    "stats composition": [
        {"epoch": epoch, "bucket": bucket, "bytes": 0, "fraction": 0.0}
        for epoch in ("pre", "post", "total")
        for bucket in BUCKETS
    ],
    "stats dedup": [
        {
            "side": side,
            "duplicated_distinct": 0,
            "duplicated_occurrences": 0,
            "total_bytes": 0,
            "dedup_bytes": 0,
            "avg_len": 0.0,
            "saved_bytes": 0,
        }
        for side in ("input", "output")
    ],
    "stats dormancy": [{"row": "blocks_with_utxo", "height_lo": 0, "height_hi": -1, "utxos": 0}],
    "estimate": [
        {"strategy": strategy, "bytes": 0, "reduction_percent": 0.0}
        for strategy in ("baseline", "prune", "minimize", "slack", "dedup", "prune+minimize+slack+dedup")
    ],
    "compact": [
        {"metric": "store", "value": "{store}"},
        {"metric": "strategy", "value": "prune+minimize+slack+dedup"},
        {"metric": "tip", "value": -1},
        {"metric": "keep_from", "value": 0},
        {"metric": "prune_threshold", "value": ""},
        {"metric": "body_records", "value": 0},
        {"metric": "dedup_effective", "value": 0},
        {"metric": "spine_bytes", "value": 0},
        {"metric": "bodies_bytes", "value": 0},
        {"metric": "kvs_bytes", "value": 0},
        {"metric": "retained_bytes", "value": 0},
        {"metric": "slack_txs", "value": 0},
        {"metric": "slack_compact", "value": 0},
        {"metric": "slack_passthrough", "value": 0},
        {"metric": "slack_bytes_in", "value": 0},
        {"metric": "slack_bytes_out", "value": 0},
    ],
    "verify": [
        {"check": name, "height": "", "ok": 1, "detail": ""}
        for name in (
            "manifest",
            "digest_spine",
            "digest_bodies",
            "digest_kvs",
            "structure",
            "spine",
            "layout",
            "decode",
            "content",
        )
    ],
}


@pytest.fixture
def empty_chain(tmp_path, capsys):
    path = str(tmp_path / "empty.dat")
    assert main(["genchain", path, "--blocks", "0"]) == 0
    assert capsys.readouterr().out == (
        f"metric,value\noutput,{path}\nblocks,0\ntransactions,0\nbytes,0\nutxos,0\n"
    )
    return path


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), argv
    return captured.out


@pytest.mark.parametrize("fmt", ["csv", "ldjson"])
def test_every_report_on_an_empty_chain(empty_chain, tmp_path, capsys, fmt):
    store = str(tmp_path / "store")
    for report, argv in COMMANDS.items():
        argv = [arg.format(chain=empty_chain, store=store) for arg in argv]
        out = _run(capsys, [*argv, "--format", fmt])
        if fmt == "csv":
            assert out == EXPECTED_CSV[report].format(store=store), report
        else:
            rows = [
                {k: v.format(store=store) if isinstance(v, str) else v for k, v in row.items()}
                for row in EXPECTED_LDJSON[report]
            ]
            assert out == "".join(json.dumps(row) + "\n" for row in rows), report


@pytest.mark.parametrize("interval", [["--created-to", "-1"], ["--created-from", "2"]])
def test_an_explicit_empty_interval_on_an_empty_chain_exits_1(empty_chain, capsys, interval):
    assert main(["stats", "lifespan", empty_chain, *interval]) == 1
    assert capsys.readouterr().err.startswith("error: empty creation interval")


def test_an_explicit_empty_interval_on_a_chain_exits_1(tmp_path, capsys):
    path = str(tmp_path / "chain.dat")
    assert main(["genchain", path, "--blocks", "5"]) == 0
    capsys.readouterr()
    assert main(["stats", "lifespan", path, "--created-from", "3", "--created-to", "2"]) == 1
    assert capsys.readouterr().err == "error: empty creation interval [3, 2]\n"
