"""No command computes what none of its outputs reads.

On the benchmark's squeeze chain (seed 1, 800 blocks, heavy on repeated
scripts and segwit), with the prune+minimize+slack+dedup flags:

- ``estimate`` reports sizes only, so it keeps no slack stats: it never
  sums a candidate's slack tally nor counts one into a ``SlackStats``.
  ``compact`` prints its stats: each encoding pass sums and counts the
  tally of each slack-encoded record it chooses once, and no other.
- Each dedup plan's KVS is measured once, when the plan is made.
  ``compact`` then takes it twice more, to hash it and to write it.
- Each distinct prune config is resolved once per command, so a
  quantile prune builds the lifespan CDF once.
- ``verify`` of a deduplicated store decodes script references and never
  builds the writer's script -> reference map.
"""

import contextlib
import io
from collections import Counter

import pytest

from ledgerpack import analytics, cli, store, strategies
from ledgerpack.fixture import ChainPlan, gen_chain

# the benchmark's squeeze workload at seed 1, and its strategy flags
SQUEEZE = ChainPlan(
    seed=1, n_blocks=800, dup_rate=0.6, segwit_fraction=0.6, noncanonical_rate=0.05, dormant_fraction=0.4
)
FLAGS = ["--prune-blocks", "400", "--minimize", "--slack", "--dedup-scripts"]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    data, _ = gen_chain(SQUEEZE)
    path = tmp_path_factory.mktemp("squeeze") / "chain.dat"
    path.write_bytes(data)
    return str(path)


def _spy(monkeypatch, owner, name, calls, when=lambda *args: True):
    """Count in ``calls[name]`` each call of ``owner.name`` whose arguments
    pass ``when``, and for a method, in ``calls[name, id(self)]`` too."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        if when(*args):
            calls[name] += 1
            if isinstance(owner, type):
                calls[name, id(args[0])] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture
def calls(monkeypatch):
    calls = Counter()
    _spy(monkeypatch, strategies.SlackStats, "count", calls)
    _spy(monkeypatch, store, "_tally", calls)
    _spy(monkeypatch, store, "_kvs_parts", calls, when=bool)  # only a non-empty KVS
    _spy(monkeypatch, analytics, "lifespan_cdf", calls)
    real = store.dedup_scripts

    def plan(counts):
        made = real(counts)
        calls["plans that rewrite"] += bool(made.kvs)
        return made

    monkeypatch.setattr(store, "dedup_scripts", plan)
    return calls


def _slack_records(path) -> int:
    """The store's compact records and minimized records of slack-encoded txs."""
    kinds = [(rec.kind, rec.payload[0]) for rec in store.read_store(path).bodies]
    return sum(kind == store.KIND_COMPACT or (kind, mode) == (store.KIND_MINIMIZED, 1) for kind, mode in kinds)


def test_estimate_keeps_no_slack_stats_and_measures_each_kvs_once(chain, calls):
    _run(["estimate", chain, *FLAGS])
    assert calls["count"] == calls["_tally"] == 0
    # the dedup row and the combined row
    assert calls["plans that rewrite"] == 2
    assert calls["_kvs_parts"] == 2


def test_compact_counts_each_chosen_record_and_uses_the_kvs_three_times(chain, calls, tmp_path):
    out = _run(["compact", chain, str(tmp_path), *FLAGS])
    slack = _slack_records(str(tmp_path))
    # the first pass and the dedup pass, which the store keeps
    per_pass = [n for key, n in calls.items() if isinstance(key, tuple)]
    assert slack > 0 and len(per_pass) == 2 and slack in per_pass
    assert calls["count"] == sum(per_pass) == calls["_tally"]
    assert "slack_txs" in out
    # measured with the plan, then hashed into the manifest and written
    assert calls["plans that rewrite"] == 1
    assert store.read_store(str(tmp_path)).manifest.dedup
    assert calls["_kvs_parts"] == 3


def test_quantile_prune_builds_the_lifespan_cdf_once(chain, calls):
    out = _run(["estimate", chain, "--prune-quantile", "0.5", "--minimize", "--slack"])
    assert out.count("\n") == 6  # the header, baseline, three singles and the combined row
    assert calls["lifespan_cdf"] == 1


def test_verify_never_builds_the_reference_map(chain, monkeypatch, tmp_path):
    _run(["compact", chain, str(tmp_path), "--dedup-scripts"])
    codecs = []

    class Recorded(strategies.RefScriptCodec):
        def __init__(self, *args):
            super().__init__(*args)
            codecs.append(self)

    monkeypatch.setattr(store, "RefScriptCodec", Recorded)
    out = _run(["verify", str(tmp_path)])
    assert "decode" in out and len(codecs) == 1 and codecs[0].kvs
    assert "_refs" not in vars(codecs[0])

    # a writer does build it, so the check above can see one
    _run(["compact", chain, str(tmp_path / "again"), "--dedup-scripts"])
    assert len(codecs) == 2 and "_refs" in vars(codecs[1])
