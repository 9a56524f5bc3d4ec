"""Every test starts with an empty store of kept quantities.

The store (``ttensor.core._KEPT``) shares Fourier slices, spectra and
singular values between stacks of equal content, so without this a test
that counts kernel calls or injects a kernel failure would see what an
earlier test left behind."""

import pytest

from ttensor import core


@pytest.fixture(autouse=True)
def _empty_store():
    core._KEPT.clear()
    yield
    core._KEPT.clear()
