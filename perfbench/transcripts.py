"""Benchmark-owned duplex transcripts with per-slot ground truth.

The ``replay_search`` workload replays files written here.  They are drawn
from this module's own generator and never from the program's transmission,
so a change to the program's random stream leaves the inputs byte-identical.
The generator keeps both parties' bits and bases for every slot, which is
what the replay oracle checks the program's partition, failed pairs and
keys against.

Slot model: odd slots Alice sends, even slots Bob sends.  The sender draws a
uniform basis and bit, the receiver a uniform basis; the photon is lost with
probability ``loss``; a matched-basis reading flips with probability
``error``; a cross-basis reading is a fair coin.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

BASES = "XY"
# Bit column value for a party that received nothing.
NOTHING = 2


def derived_int(*path: object) -> int:
    """A 64-bit integer from a label path, stable across platforms."""
    label = ":".join(str(p) for p in path).encode("ascii")
    return int.from_bytes(hashlib.sha256(label).digest()[:8], "big")


@dataclass(frozen=True)
class GeneratedTranscript:
    """Ground truth by column; entry ``t - 1`` describes timeslot ``t``.

    Bit columns hold 0, 1 or ``NOTHING``; basis columns hold ``X``/``Y``.
    """

    alice_basis: str
    bob_basis: str
    alice_bits: bytes
    bob_bits: bytes

    def __len__(self) -> int:
        return len(self.alice_bits)

    @staticmethod
    def alice_sends(timeslot: int) -> bool:
        return timeslot % 2 == 1

    def expected_partition(self) -> tuple[list[int], list[int], list[int]]:
        """(discard, set2, set3) as the paper defines them, in timeslot order."""
        discard, set2, set3 = [], [], []
        for t in range(1, len(self) + 1):
            i = t - 1
            if NOTHING in (self.alice_bits[i], self.bob_bits[i]) or self.alice_basis[i] != self.bob_basis[i]:
                discard.append(t)
            elif self.alice_sends(t):
                set2.append(t)
            else:
                set3.append(t)
        return discard, set2, set3


def generate(
    seed: int, index: int, n_slots: int, loss: float, error: float
) -> tuple[GeneratedTranscript, str]:
    """Transcript ``index`` of the set drawn from ``seed``: its truth and its file text."""
    rng = random.Random(derived_int("perfbench-transcript", seed, index))
    bits = rng.getrandbits
    coin = rng.random
    alice_basis, bob_basis, alice_bits, bob_bits = [], [], bytearray(), bytearray()
    lines = ["# timeslot direction sender_basis sender_bit receiver_basis receiver_bit"]
    for t in range(1, n_slots + 1):
        send_basis, recv_basis = BASES[bits(1)], BASES[bits(1)]
        send_bit = bits(1)
        if coin() < loss:
            recv_bit = NOTHING
        elif send_basis == recv_basis:
            recv_bit = send_bit ^ (coin() < error)
        else:
            recv_bit = bits(1)
        alice_sends = GeneratedTranscript.alice_sends(t)
        alice_basis.append(send_basis if alice_sends else recv_basis)
        bob_basis.append(recv_basis if alice_sends else send_basis)
        alice_bits.append(send_bit if alice_sends else recv_bit)
        bob_bits.append(recv_bit if alice_sends else send_bit)
        lines.append(
            f"{t} {'A>B' if alice_sends else 'B>A'} {send_basis} {send_bit} "
            f"{recv_basis} {'LOST' if recv_bit == NOTHING else recv_bit}"
        )
    truth = GeneratedTranscript("".join(alice_basis), "".join(bob_basis), bytes(alice_bits), bytes(bob_bits))
    return truth, "\n".join(lines) + "\n"
