import numpy as np
import pytest
from hypothesis import settings

from toepasym import LaurentMatrixSeries, scalar_symbol

# property tests draw the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rational_symbol():
    # (1 - 0.5 t)(1 - 0.5 / t) = 1.25 - 0.5 t - 0.5 / t, positive on the circle
    return scalar_symbol({0: 1.25, 1: -0.5, -1: -0.5})


@pytest.fixture
def geometric_symbol():
    return scalar_symbol({0: 1.0, 1: -0.5})


@pytest.fixture
def two_block_symbol():
    r = np.array([[1.0, 0.2], [0.0, 1.0]])
    return LaurentMatrixSeries(2, {0: 1.25 * np.eye(2), 1: -0.5 * r, -1: -0.5 * r.T})


@pytest.fixture
def rational_bc():
    # b = (1 - 0.5/t) / (1 - 0.5 t): geometric coefficients, c is its reversal
    from toepasym import reverse
    b = scalar_symbol({**{j: 0.75 * 0.5**j for j in range(0, 80)}, -1: -0.5})
    return b, reverse(b)


def assemble(table, idx, lo):
    """Reference block matrix whose (j, k) block is table[idx[j, k] - lo],
    gathered block by block; toeplitz builds the same matrices as windows."""
    n = table.shape[1]
    blocks = table[idx - lo]
    rows, cols = idx.shape
    return blocks.transpose(0, 2, 1, 3).reshape(rows * n, cols * n)


def random_scalar_symbol(rng, max_offset=4, scale=1.0):
    coeffs = {}
    for k in range(-max_offset, max_offset + 1):
        coeffs[k] = scale * (rng.standard_normal() + 1j * rng.standard_normal())
    return scalar_symbol(coeffs)


def random_block_symbol(rng, block_size=2, max_offset=3, scale=1.0):
    coeffs = {}
    for k in range(-max_offset, max_offset + 1):
        coeffs[k] = scale * (rng.standard_normal((block_size, block_size))
                             + 1j * rng.standard_normal((block_size, block_size)))
    return LaurentMatrixSeries(block_size, coeffs)
