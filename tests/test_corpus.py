"""Every output of the parity corpus (``corpus.py``) is unchanged.

Each family's sha256 covers every SolveResult field, ResidualReport
figure and profile sample of its solves in hex, or the name of the
exception a stage raised.  Like ``test_bit_pins.py``, the digests come
from the platform's libm.  A change that means to move outputs
re-freezes the digests it moves (``python tests/corpus.py digest``) and
says which and why.
"""
import pytest

import corpus

DIGESTS = {
    "sweep-small": "461b93e499de5958dafdbbbdd896c4652d58281e66221d6c65eed95511ccb653",
    "large-n": "c7beb6f4786ead2938c640d25f744648a4c176d25c75a6dd736734ed0fc3f096",
    "fuzz": "7d395b886ee485b0c8a23253a9bc046006dda93534ee7eae64f7bb27ac89546d",
}


@pytest.mark.parametrize("family", DIGESTS)
def test_corpus_digest_is_unchanged(family):
    assert corpus.digest(family) == DIGESTS[family]


def test_fuzz_scoreboard_counts_every_draw():
    board = corpus.scoreboard([corpus.fuzz_spec(s) for s in range(40)])
    outcomes = sum(board.values()) - board["anchor failures"]
    assert outcomes == 40 and board["other"] == 0
