"""``decode(encode(m)) == m`` for every registered feature format."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.registry import available_formats, get_format

#: Widths on both sides of the sliced BEICSR slice (96) and of the 2- and
#: 4-wide blocks, plus widths below any of them.
WIDTHS = (1, 3, 5, 95, 96, 97, 130)
DENSITIES = (0.0, 0.1, 1.0)


def random_features(rng, rows, width, density):
    values = rng.uniform(-2.0, 2.0, size=(rows, width)).astype(np.float32)
    values[values == 0] = 1.0
    values[rng.random((rows, width)) >= density] = 0.0
    return values


@pytest.mark.parametrize("format_name", available_formats())
@pytest.mark.parametrize("density", DENSITIES)
def test_round_trip(format_name, density):
    fmt = get_format(format_name)
    rng = np.random.default_rng(
        [available_formats().index(format_name), DENSITIES.index(density)]
    )
    for rows in (1, 2, 7, 33):
        for width in WIDTHS:
            matrix = random_features(rng, rows, width, density)
            decoded = fmt.decode(fmt.encode(matrix))
            assert decoded.shape == matrix.shape
            np.testing.assert_array_equal(decoded, matrix, err_msg=f"{rows}x{width}")


@pytest.mark.parametrize("format_name", available_formats())
def test_round_trip_without_rows(format_name):
    fmt = get_format(format_name)
    matrix = np.zeros((0, 7), dtype=np.float32)
    assert fmt.decode(fmt.encode(matrix)).shape == (0, 7)


@pytest.mark.parametrize("rows", [0, 5])
def test_non_sliced_beicsr_rejects_zero_width(rows):
    with pytest.raises(FormatError, match="dimensions must be positive"):
        get_format("beicsr_nonsliced").encode(np.zeros((rows, 0), dtype=np.float32))
