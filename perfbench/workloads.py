"""The benchmark's workloads: each turns a seed into a stream of CLI operations.

Operation ``i`` of a workload is a fixed ``duplexqkd`` command line drawn
from ``(workload, seed, i)``, so the same seed gives the same inputs.  Each
workload also says how much work an operation is (sessions, timeslots) and
how to check its output.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import oracle
import transcripts


class DuplexBatch:
    """The paper's Monte Carlo use: many short flip-triple sessions, one worker.

    Mostly quantum transmission; it never reaches search pairing or the
    transcript parser.
    """

    name = "duplex_batch"
    sessions, timeslots = 100, 200
    intercept, flip, loss = 0.5, 0.01, 0.1
    trace_ops = 20

    def __init__(self, seed: int):
        self.seed = seed
        self.pooled = oracle.PooledPairTest(self.intercept, self.flip)

    def prepare(self, work: Path) -> None:
        """Nothing to generate: every input is on the command line."""

    def master_seed(self, i: int) -> int:
        return transcripts.derived_int(self.name, self.seed, i) % 2**31

    def argv(self, i: int, out: Path) -> list[str]:
        return [
            "run", "--protocol", "duplex", "--variant", "flip_triples",
            "--timeslots", str(self.timeslots), "--sessions", str(self.sessions),
            "--intercept", str(self.intercept), "--flip", str(self.flip), "--loss", str(self.loss),
            "--workers", "1", "--seed", str(self.master_seed(i)), "--out", str(out),
        ]

    def size(self, i: int) -> tuple[int, int]:
        return self.sessions, self.sessions * self.timeslots

    def check(self, i: int, out: Path) -> list[str]:
        problems, tally = oracle.check_run(
            out, sessions=self.sessions, timeslots=self.timeslots, master_seed=self.master_seed(i)
        )
        if not problems:
            self.pooled.add(tally)
        return problems


class ReplaySearch:
    """Replays of long benchmark-generated transcripts with search pairing.

    Dominated by transcript parsing and the search pairing; it never reaches
    transmission, the program's random streams or the process pool.
    """

    name = "replay_search"
    n_slots, loss, error = 20000, 0.1, 0.05
    n_transcripts = 12
    trace_ops = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.pooled = None
        self.inputs: list[tuple[Path, transcripts.GeneratedTranscript]] = []
        self.digest: bytes | None = None

    def prepare(self, work: Path) -> None:
        """Write the transcripts; every setup must write the same bytes."""
        work.mkdir(parents=True, exist_ok=True)
        inputs, digest = [], hashlib.sha256()
        for j in range(self.n_transcripts):
            truth, text = transcripts.generate(self.seed, j, self.n_slots, self.loss, self.error)
            path = work / f"t{j:02d}.transcript"
            path.write_text(text, encoding="ascii")
            digest.update(text.encode("ascii"))
            inputs.append((path, truth))
        if self.digest not in (None, digest.digest()):
            raise RuntimeError("transcript generator is not deterministic for a fixed seed")
        self.inputs, self.digest = inputs, digest.digest()

    def argv(self, i: int, out: Path) -> list[str]:
        path, _ = self.inputs[i % self.n_transcripts]
        return ["replay", str(path), "--variant", "search_pairs", "--json", str(out / "replay.json")]

    def size(self, i: int) -> tuple[int, int]:
        return 1, self.n_slots

    def check(self, i: int, out: Path) -> list[str]:
        _, truth = self.inputs[i % self.n_transcripts]
        return oracle.check_replay(out / "replay.json", truth)


class Bb84Sweep:
    """The baseline protocol over a 3x2 grid on a two-worker pool.

    Shares nothing with the duplex classical phase and is the only workload
    that starts the process pool (today once per grid cell).
    """

    name = "bb84_sweep"
    sessions, timeslots, workers = 200, 400, 2
    intercepts, flips = (0.0, 0.5, 1.0), (0.0, 0.02)
    trace_ops = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = oracle.sweep_cells(self.intercepts, self.flips)
        self.pooled = oracle.PooledMeanTest(self.cells)

    def prepare(self, work: Path) -> None:
        """Nothing to generate: every input is on the command line."""

    def argv(self, i: int, out: Path, workers: int | None = None) -> list[str]:
        seed = transcripts.derived_int(self.name, self.seed, i) % 2**31
        return [
            "sweep", "--protocol", "bb84",
            "--intercept", ",".join(map(str, self.intercepts)), "--flip", ",".join(map(str, self.flips)),
            "--timeslots", str(self.timeslots), "--sessions", str(self.sessions),
            "--workers", str(workers or self.workers), "--seed", str(seed), "--out", str(out),
        ]

    def size(self, i: int) -> tuple[int, int]:
        n = self.sessions * len(self.cells)
        return n, n * self.timeslots

    def check(self, i: int, out: Path) -> list[str]:
        problems, records = oracle.check_sweep(out, sessions=self.sessions, cells=self.cells)
        if not problems:
            self.pooled.add(records)
        return problems


WORKLOADS = {w.name: w for w in (DuplexBatch, ReplaySearch, Bb84Sweep)}
