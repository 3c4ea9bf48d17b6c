import tracemalloc

import pytest

import pardiff.grid as grid_module


@pytest.fixture
def forbid_indicator_transform(monkeypatch):
    """A call that patches ``_valid_convolve``'s FFT of the two nonzero
    indicators to fail; the FFT of the values still runs."""

    def forbid():
        cyclic = grid_module._cyclic_convolve

        def value_transform_only(x, y, lengths):
            if x.dtype == bool:
                raise AssertionError("the exact-zero mask took the indicator FFT")
            return cyclic(x, y, lengths)

        monkeypatch.setattr(grid_module, "_cyclic_convolve", value_transform_only)

    return forbid


@pytest.fixture
def traced_peak():
    """A call that runs a function under ``tracemalloc`` and returns its peak in bytes."""

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
