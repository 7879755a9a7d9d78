"""``outs_per_tx`` must satisfy 1 <= MIN <= MAX before any number is drawn.

A reversed range used to escape ``random.randint`` as a ``ValueError``
traceback, and a zero range failed late, on the first transaction with
no outputs (or never, on a chain of no blocks).
"""

import pytest

from ledgerpack.cli import main
from ledgerpack.errors import GenerationError
from ledgerpack.fixture import ChainPlan, gen_chain

BAD_RANGES = [(3, 1), (0, 0), (0, 2), (-1, 1), (2, 1)]


@pytest.mark.parametrize("n_blocks", [0, 3])
@pytest.mark.parametrize("outs", BAD_RANGES, ids=str)
def test_gen_chain_rejects_a_bad_outputs_range(outs, n_blocks):
    with pytest.raises(GenerationError, match=r"1 <= MIN <= MAX"):
        gen_chain(ChainPlan(seed=1, n_blocks=n_blocks, outs_per_tx=outs))


@pytest.mark.parametrize("outs", BAD_RANGES, ids=str)
def test_genchain_cli_exits_1_with_one_line(tmp_path, capsys, outs):
    path = tmp_path / "chain.dat"
    code = main(["genchain", str(path), "--blocks", "3", f"--outs-per-tx={outs[0]},{outs[1]}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: outputs per tx need 1 <= MIN <= MAX, got {outs}\n"
    assert not path.exists()


@pytest.mark.parametrize("outs", [(1, 1), (2, 2), (1, 4)], ids=str)
def test_gen_chain_accepts_a_good_outputs_range(outs):
    _, truth = gen_chain(ChainPlan(seed=1, n_blocks=4, outs_per_tx=outs))
    assert truth.n_txs >= 4
