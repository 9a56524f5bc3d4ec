"""Every test starts with an empty store of kept quantities, and a test that
asks for ``kernels`` sees the calls made to the library's kernels.

The store (``ttensor.core._KEPT``) shares Fourier slices, spectra and
singular values between stacks of equal content, so without emptying it a
test that counts kernel calls or injects a kernel failure would see what an
earlier test left behind."""

import numpy as np
import pytest

from ttensor import core, eigensolvers, fourier

# the recorded kernels: the transforms, the two eigensolver kernels and the
# dense LAPACK calls, by name
KERNELS = {
    "_forward": fourier, "_inverse": fourier,
    "_jacobi": eigensolvers, "_qr_eig": eigensolvers,
    "svd": np.linalg, "inv": np.linalg,
}


@pytest.fixture(autouse=True)
def _empty_store():
    core._KEPT.clear()
    yield
    core._KEPT.clear()


class KernelCalls:
    """The array argument of each call to each of :data:`KERNELS`, copied
    when the call is made (also when it raises), in order, since the
    recorder was installed or last cleared.  An ``svd`` call also notes
    whether it asked for singular values alone (``compute_uv=False``)."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self.arrays = {name: [] for name in KERNELS}
        self.values_only = []  # one flag per svd call

    def record(self, name, kernel):
        def recorded(*args, **kwargs):
            self.arrays[name].append(np.array(args[0], copy=True))
            if name == "svd":
                self.values_only.append(kwargs.get("compute_uv") is False)
            return kernel(*args, **kwargs)
        return recorded

    def __getitem__(self, name) -> list:
        return self.arrays[name]

    def count(self, *names) -> tuple:
        """The number of calls to each named kernel."""
        return tuple(len(self.arrays[name]) for name in names)

    def sizes(self, name) -> list:
        """The stack size of each call: the length of its array's first axis."""
        return [len(a) for a in self.arrays[name]]

    def shapes(self, name) -> list:
        return [a.shape for a in self.arrays[name]]

    def members(self, name) -> list:
        """The bytes of every member of every call's stack, in order."""
        return [m.tobytes() for a in self.arrays[name] for m in a]

    def singular_value_shapes(self) -> list:
        """The shapes handed to ``np.linalg.svd`` for singular values alone."""
        return [a.shape for a, alone in zip(self.arrays["svd"], self.values_only) if alone]


@pytest.fixture
def kernels(monkeypatch) -> KernelCalls:
    """A recorder of the calls to :data:`KERNELS` from here to the test's end.
    A kernel that a test patches afterwards (to inject a failure) replaces
    the recorder's wrapper; the injector's own call to the kernel it found
    is still recorded."""
    calls = KernelCalls()
    for name, module in KERNELS.items():
        monkeypatch.setattr(module, name, calls.record(name, getattr(module, name)))
    return calls
