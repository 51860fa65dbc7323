import collections
import math

import numpy as np
import pytest

from emlab.model import PhysicalConstants
from emlab.spectral import GridSpec


@pytest.fixture(scope="session")
def grid16():
    return GridSpec(16, 2.0 * math.pi)


@pytest.fixture(scope="session")
def grid32():
    return GridSpec(32, 2.0 * math.pi)


@pytest.fixture(scope="session")
def grid16_wide():
    # the smallest box here with modes below |k| = 1, where the data class acts
    return GridSpec(16, 4.0 * math.pi)


@pytest.fixture(scope="session")
def grid32_wide():
    return GridSpec(32, 8.0 * math.pi)


@pytest.fixture(scope="session")
def constants_b0():
    return PhysicalConstants(b_infty=(0.0, 0.0, 0.0))


@pytest.fixture(scope="session")
def constants_bz():
    return PhysicalConstants(b_infty=(0.0, 0.0, 1.0))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def fft_lines(monkeypatch):
    """Counts the numpy.fft passes made while a test runs: ``calls`` and
    ``lines`` (the 1-D transforms each pass makes), keyed by (function, axis).
    emlab looks the four functions up on numpy.fft at call time."""
    calls, lines = collections.Counter(), collections.Counter()
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counting(a, *args, _name=name, _original=original, axis=-1, **kwargs):
            calls[_name, axis] += 1
            lines[_name, axis] += a.size // a.shape[axis]
            return _original(a, *args, axis=axis, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls, lines
