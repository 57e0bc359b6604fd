"""``syndrome``/``is_codeword`` against a dense ``H`` built independently.

The oracle expands each code from ``base.nonzero_blocks()`` as shifted
identity blocks (``np.roll`` of ``I_z``) and multiplies over the
integers, so it shares nothing with the shift table the library reads.
"""

import numpy as np
import pytest

from repro.codes import QCLDPCCode, build_qc_base_matrix, get_code
from repro.encoder import make_encoder

MODES = [
    "802.16e:1/2:z24",
    "802.11n:1/2:z27",
    "DMB-T:0.6:z127",
    "NR:bg1:z16",
    "NR:bg2:z24",
    "synthetic",
]


def dense_h(code):
    z = code.z
    h = np.zeros((code.m, code.n), dtype=np.uint8)
    for block in code.base.nonzero_blocks():
        h[
            block.layer * z : (block.layer + 1) * z,
            block.column * z : (block.column + 1) * z,
        ] = np.roll(np.eye(z, dtype=np.uint8), block.shift, axis=1)
    return h


def oracle_syndrome(h, words):
    """``H x mod 2`` over the integers, a few rows at a time."""
    x = np.asarray(words, dtype=np.int64).T
    out = np.empty((h.shape[0], x.shape[1]), dtype=np.uint8)
    for start in range(0, h.shape[0], 512):
        rows = h[start : start + 512].astype(np.int64)
        out[start : start + 512] = (rows @ x) % 2
    return out.T


@pytest.fixture(scope="module", params=MODES)
def case(request):
    if request.param == "synthetic":
        base = build_qc_base_matrix(j=4, k=12, z=20, name="syn", seed=3)
        code = QCLDPCCode(base)
    else:
        code = get_code(request.param)
    return code, dense_h(code)


def words_for(code, batch, seed):
    """Random words, with a real codeword in every third row."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2, (batch, code.n), dtype=np.uint8)
    _, codewords = make_encoder(code).random_codewords(batch, rng)
    words[::3] = codewords[::3]
    return words


@pytest.mark.parametrize("batch", [0, 1, 2, 33])
def test_batch_matches_oracle(case, batch):
    code, h = case
    words = words_for(code, batch, seed=batch)
    expected = oracle_syndrome(h, words)
    syndrome = code.syndrome(words)
    assert syndrome.shape == (batch, code.m)
    assert syndrome.dtype == np.uint8
    assert np.array_equal(syndrome, expected)
    converged = code.is_codeword(words)
    assert converged.shape == (batch,)
    assert np.array_equal(converged, ~expected.any(axis=1))
    assert converged[::3].all()


def test_single_word(case):
    code, h = case
    words = words_for(code, 2, seed=5)
    for word in words:
        syndrome = code.syndrome(word)
        assert syndrome.shape == (code.m,)
        assert np.array_equal(syndrome, oracle_syndrome(h, word[None])[0])
        assert code.is_codeword(word) is (not syndrome.any())


def test_non_contiguous_slice(case):
    code, h = case
    words = words_for(code, 12, seed=7)[::3]  # strided rows, all codewords
    words[1, 0] ^= 1
    assert not words.flags.c_contiguous
    assert np.array_equal(code.syndrome(words), oracle_syndrome(h, words))
    assert code.is_codeword(words).tolist() == [True, False, True, True]


def test_entries_above_one_count_their_low_bit(case):
    code, h = case
    rng = np.random.default_rng(11)
    words = rng.integers(0, 256, (3, code.n), dtype=np.uint8)
    # A codeword's bits plus even values: still a codeword.
    words[0] = words_for(code, 1, seed=3)[0] + 2 * rng.integers(0, 128, code.n)
    expected = oracle_syndrome(h, words)
    assert np.array_equal(code.syndrome(words), expected)
    assert np.array_equal(code.syndrome(words), code.syndrome(words & 1))
    assert code.is_codeword(words)[0]


def test_wrong_length_raises(case):
    code, _ = case
    with pytest.raises(ValueError):
        code.syndrome(np.zeros((2, code.n - 1), dtype=np.uint8))
