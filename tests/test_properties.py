"""Property tests of the tube algebra against an ``np.fft`` oracle.

Hypothesis draws the shape, the tube length ``n3`` (1..1024, both parities;
the longest even and odd lengths are always tried) and a seed; the entries
come from a numpy generator, since drawing tens of thousands of floats one
by one would be slow.  The oracle transforms tubes with ``np.fft.fft`` and
``np.fft.ifft``, multiplies and inverts slices with numpy, and so shares no
code with the library's dense DFT.

Tolerance policy.  The library applies a dense ``n3 x n3`` DFT, whose
roundoff grows like ``n3 * eps`` (``eps`` = float64 machine epsilon) relative
to the input; a slicewise matrix product over an inner dimension ``m`` adds
``m * eps``.  Every bound below is ``TOL_FACTOR`` times that scale, in the
Frobenius norm:

* forward transform: ``n3 * eps * ||fft(A)||``;
* round trip ``from_fourier(to_fourier(A))``: ``n3 * eps * ||A||``;
* ``t_product(A, B)`` with ``A`` ``n1 x n2`` and ``B`` ``n2 x n4``:
  ``(n2 + n3) * eps * ||A|| * ||B||`` (relative to the factors, not to the
  product, which can cancel);
* ``t_inverse(A)``: ``(n + n3) * eps * kappa * ||inv(A)||``, where ``kappa``
  is the condition number of the block-circulant operator, the largest
  singular value over all Fourier slices divided by the smallest.  The
  forward transform's error is absolute at the scale of the largest slice,
  so a small slice's inverse sees it amplified by that global ratio; the
  worst per-slice condition number alone misses tubes of 1 x 1 slices whose
  magnitudes spread widely.

This is the scaling the benchmark's tube-algebra check uses (relative error
times the condition number for inverses), with the ``n3`` factor made
explicit.  Over 1500 random cases (3000 for the inverse) the measured error
stayed below 0.9 of the scale for every property, so ``TOL_FACTOR = 16``
leaves more than 16x headroom while a wrong sign, index or normalization
errs at order one.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttensor import (
    ComplexTensor3,
    Tensor3,
    from_fourier,
    t_inverse,
    t_product,
    to_fourier,
)

EPS = np.finfo(float).eps
TOL_FACTOR = 16.0

tube_lengths = st.one_of(st.integers(1, 16), st.integers(17, 1024))
dims = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)
magnitudes = st.integers(-6, 6)

property_settings = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _entries(seed, shape, magnitude):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape) * 10.0**magnitude


def _fft_slices(data):
    """Fourier slices ``(n3, n1, n2)`` by the FFT oracle."""
    return np.fft.fft(data, axis=2).transpose(2, 0, 1)


def _ifft_tensor(slices):
    """Real tensor ``(n1, n2, n3)`` from Fourier slices by the FFT oracle."""
    return np.fft.ifft(slices, axis=0).real.transpose(1, 2, 0)


def _err(x, ref):
    return float(np.linalg.norm(x - ref))


@property_settings
@given(n1=dims, n2=dims, n3=tube_lengths, seed=seeds, magnitude=magnitudes)
@example(n1=3, n2=2, n3=1024, seed=0, magnitude=0)
@example(n1=2, n2=3, n3=1023, seed=1, magnitude=0)
def test_forward_transform_and_round_trip_match_fft(n1, n2, n3, seed, magnitude):
    a = Tensor3(_entries(seed, (n1, n2, n3), magnitude))
    ref = _fft_slices(a.data)
    fs = to_fourier(a)
    assert fs.origin_real
    assert _err(fs.slices, ref) <= TOL_FACTOR * n3 * EPS * np.linalg.norm(ref)
    back = from_fourier(fs)
    assert back.shape == a.shape
    assert _err(back.data, a.data) <= TOL_FACTOR * n3 * EPS * np.linalg.norm(a.data)


@property_settings
@given(n1=dims, n2=dims, n3=tube_lengths, seed=seeds)
@example(n1=2, n2=2, n3=1024, seed=2)
@example(n1=2, n2=2, n3=1023, seed=3)
def test_complex_forward_transform_matches_fft(n1, n2, n3, seed):
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1, 1, (n1, n2, n3)) + 1j * rng.uniform(-1, 1, (n1, n2, n3))
    ref = _fft_slices(data)
    fs = to_fourier(ComplexTensor3(data))
    assert not fs.origin_real
    assert _err(fs.slices, ref) <= TOL_FACTOR * n3 * EPS * np.linalg.norm(ref)


@property_settings
@given(n1=dims, n2=dims, n4=dims, n3=tube_lengths, seed=seeds, magnitude=magnitudes)
@example(n1=3, n2=2, n4=4, n3=1024, seed=4, magnitude=0)
@example(n1=4, n2=3, n4=1, n3=1023, seed=5, magnitude=0)
def test_rectangular_t_product_matches_fft(n1, n2, n4, n3, seed, magnitude):
    a = Tensor3(_entries(seed, (n1, n2, n3), magnitude))
    b = Tensor3(_entries(seed + 1, (n2, n4, n3), -magnitude))
    ref = _ifft_tensor(_fft_slices(a.data) @ _fft_slices(b.data))
    c = t_product(a, b)
    assert c.shape == (n1, n4, n3)
    scale = (n2 + n3) * EPS * np.linalg.norm(a.data) * np.linalg.norm(b.data)
    assert _err(c.data, ref) <= TOL_FACTOR * scale


@property_settings
@given(n=dims, n3=tube_lengths, seed=seeds, magnitude=magnitudes)
@example(n=3, n3=1024, seed=6, magnitude=0)
@example(n=3, n3=1023, seed=7, magnitude=0)
def test_t_inverse_matches_fft(n, n3, seed, magnitude):
    a = Tensor3(_entries(seed, (n, n, n3), magnitude))
    slices = _fft_slices(a.data)
    sv = np.linalg.svd(slices, compute_uv=False)
    if sv[:, -1].min() <= 1e-8 * sv[:, 0].max():
        return  # too close to singular for a relative comparison to mean anything
    kappa = sv[:, 0].max() / sv[:, -1].min()
    ref = _ifft_tensor(np.linalg.inv(slices))
    x = t_inverse(a)
    assert _err(x.data, ref) <= TOL_FACTOR * (n + n3) * EPS * kappa * np.linalg.norm(ref)
