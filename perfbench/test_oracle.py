"""The oracle passes real outputs and counts corrupted copies as failed.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_oracle.py -q
"""

from __future__ import annotations

import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from duplexqkd import cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import transcripts  # noqa: E402
from workloads import WORKLOADS, Bb84Sweep, DuplexBatch  # noqa: E402


def _main(argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def _duplex_output(tmp_path: Path) -> tuple[DuplexBatch, Path]:
    batch = DuplexBatch(seed=7)
    out = tmp_path / "run"
    _main(batch.argv(0, out))
    return batch, out


def _replay_output(tmp_path: Path) -> tuple[transcripts.GeneratedTranscript, Path]:
    truth, text = transcripts.generate(seed=7, index=0, n_slots=600, loss=0.1, error=0.05)
    source = tmp_path / "t.transcript"
    source.write_text(text, encoding="ascii")
    out = tmp_path / "replay.json"
    _main(["replay", str(source), "--variant", "search_pairs", "--json", str(out)])
    return truth, out


def test_real_outputs_pass(tmp_path):
    batch, out = _duplex_output(tmp_path)
    assert batch.check(0, out) == []
    assert batch.pooled.problems() == []
    truth, replay = _replay_output(tmp_path)
    assert oracle.check_replay(replay, truth) == []


def test_real_sweep_passes(tmp_path):
    sweep = Bb84Sweep(seed=7)
    sweep.sessions = 20
    out = tmp_path / "sweep"
    _main(sweep.argv(0, out, workers=1))
    assert sweep.check(0, out) == []
    assert sweep.pooled.problems() == []


def test_corrupted_ledger_cell_fails(tmp_path):
    batch, out = _duplex_output(tmp_path)
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    table = bad / "sessions.csv"
    header, first, *rest = table.read_text(encoding="ascii").splitlines()
    cells = first.split(",")
    column = header.split(",").index("unpaired")
    cells[column] = str(int(cells[column]) + 1)
    table.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="ascii")
    problems = batch.check(0, bad)
    assert any("unpaired" in p for p in problems)
    assert oracle.same_files(out, bad) != []


def test_corrupted_key_bit_fails(tmp_path):
    truth, replay = _replay_output(tmp_path)
    text = replay.read_text(encoding="ascii")
    start = text.index('"bob_key": [') + len('"bob_key": [')
    bit_at = start + next(i for i, ch in enumerate(text[start:]) if ch in "01")
    flipped = text[:bit_at] + ("1" if text[bit_at] == "0" else "0") + text[bit_at + 1 :]
    bad = tmp_path / "bad.json"
    bad.write_text(flipped, encoding="ascii")
    assert any("bob_key" in p for p in oracle.check_replay(bad, truth))


def test_pooled_tests_reject_rates_off_the_closed_form():
    pair = oracle.PooledPairTest(intercept=0.5, flip=0.01)
    pair.add({"checked": 10000, "failures": round(10000 * pair.p)})
    assert pair.problems() == []
    pair.add({"checked": 10000, "failures": 0})
    assert pair.problems() != []
    cells = [(1.0, 0.0)]
    mean = oracle.PooledMeanTest(cells)
    mean.add([{"mean_error_rate": 0.20, "error_rate_halfwidth": 0.0196}])
    assert mean.problems() != []


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
