"""Dense third-order tensors, elementary structural operations, norms, and
seeded random instance generation.

A :class:`Tensor3` stores its entries as a read-only float64 array of shape
``(n1, n2, n3)``; ``data[:, :, k]`` is frontal slice ``k`` (0-based).  The flat
serialization order used by files and oracles is slice-major with row-major
slices: flat index ``(k * n1 + i) * n2 + j`` for 0-based ``(i, j, k)``, for
real and complex tensors alike (``to_flat`` / ``from_flat``, its one
definition).

:class:`_Stack` holds ``b`` tensors of one shape along a leading trial axis,
``(b, n1, n2, n3)``.  Its methods are the stack algebra the certifiers are
written in: the t-product ``x @ y``, transpose, ``sym``, sums and scalings,
powers, ``|X|^r = (X^T X)^(r/2)``, the eigenbasis alignment
of the Young witness (:meth:`_Stack.align`), the Frobenius and spectral
norms, the residuals of the orthogonality and normality gates
(:meth:`_Stack.gram_residuals`), the min gaps (:meth:`_Stack.extremes`),
the t-eigenvalues (:meth:`_Stack.eigenvalues`), the norms of ``A + iB``,
and ``cat``, ``split`` and ``where``; a certifier body that calls only
these methods runs on any stack type that has them.  The Fourier-domain
kernels live beside the stack: the power loop (:func:`_clipped_power`),
the Hermitian tail of every power (:func:`_hermitian_tensors`) and the
inverse (:func:`_t_inverse`), so this is the one module that reads a
stack's half spectrum.  The modules it calls into (:mod:`ttensor.algebra`,
:mod:`ttensor.eigensolvers`, :mod:`ttensor.fourier`,
:mod:`ttensor.spectral`) are bound once, at the end of this module.  The
public functions are the ``b = 1`` case: a member's result never depends on
the rest of its stack.  A stack keeps its
Fourier slices, each member's self-conjugate slices made exactly real once,
when they are kept (the stack's ``slices``), and one decomposition of its
Hermitian half slices (:meth:`_Stack.spectra`), for its PSD
checks and its powers alike; its ``|X|^r`` takes one SVD of its half
slices instead and never forms the Gram, whose condition is the square of
the stack's.  It keeps the singular values of its half slices as well
(:meth:`_Stack.singular_values`), from one SVD that its spectral norm and
the inverse's singularity check both read.  A real member's slices
``n3 - k`` and ``k`` are conjugates,
so every SVD and eigen reader of a stack sees only its half slices
``0..n3//2`` (:meth:`_Stack.half_slices`, a read-only view of the kept
slices, with no copy): its spectral norm is the largest
singular value over them, as the 50-digit reference stack defines it, and
its gate residuals are Parseval sums over them.  A stack's half slices
are Hermitian by construction, so its spectra go to the Jacobi kernel
through the finite-entry check alone (:func:`_jacobi_spectra`), with no
Hermitian residual.  Since a member's decomposition does not depend on
the rest of its stack, a certifier puts the independent stacks it needs
at one point, a wave, into one Jacobi call (:func:`_solve_together`,
which also splits the call's result among them), for a whole campaign
window (:mod:`ttensor.campaigns`).  A :class:`Tensor3`
keeps its one-member stack (:meth:`_Stack.of`), so every public call on
the tensor reads the same slices, spectra and singular values, computed on
first use.  A stack holds
real tensors only: :meth:`_Stack.of` refuses anything but a
:class:`Tensor3`, and a :class:`Tensor3` refuses complex entries.  A
:class:`ComplexTensor3` ``A + iB`` takes the same half-spectrum path
through stacks of its parts: its spectral norm is
:meth:`_Stack.cartesian_norms` of ``A`` and ``B`` (slice ``n3 - k`` of
``A + iB`` is ``conj(A_k - i B_k)``), so no complex transform is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, SingularTensorError, TtensorError

__all__ = [
    "Tensor3",
    "ComplexTensor3",
    "RngStream",
    "transpose",
    "identity",
    "inner_product",
    "frobenius_norm",
    "spectral_norm",
    "gen_random",
    "gen_symmetric",
    "gen_t_psd",
    "gen_loewner_pair",
    "gen_commuting_psd_pair",
]

_MASK64 = (1 << 64) - 1
_DELTA = 1e-3  # the default identity shift of the positive semidefinite generators
_POWER_TOL = 1e-9  # t_power's symmetry and clamp window; a negative power's definiteness floor
INVERSE_TOL = 1e-12  # an invertible slice's smallest singular value exceeds this times its largest


def _validated(arr: np.ndarray, dtype) -> np.ndarray:
    if dtype is float and np.iscomplexobj(arr):
        raise ValueError("a real tensor takes no complex entries")
    arr = np.array(arr, dtype=dtype, order="C")
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-way array, got {arr.ndim} axes")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite (no NaN/Inf)")
    if min(arr.shape) < 1:
        raise ValueError(f"dimensions must be positive, got {arr.shape}")
    arr.setflags(write=False)
    return arr


class _Dense:
    """A dense third-order tensor of ``_dtype`` entries; immutable."""

    __slots__ = ("data",)
    _dtype = float

    def __init__(self, data):
        object.__setattr__(self, "data", _validated(data, self._dtype))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n1(self) -> int:
        return self.data.shape[0]

    @property
    def n2(self) -> int:
        return self.data.shape[1]

    @property
    def n3(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    def slice(self, k: int) -> np.ndarray:
        """Frontal slice ``k`` (0-based) as an ``(n1, n2)`` array."""
        return self.data[:, :, k]

    def to_flat(self) -> np.ndarray:
        """Entries in the canonical slice-major / row-major flat order."""
        return self.data.transpose(2, 0, 1).ravel()

    @classmethod
    def from_flat(cls, flat, n1: int, n2: int, n3: int):
        """Inverse of :meth:`to_flat`; requires exactly ``n1 * n2 * n3`` entries."""
        if np.size(flat) != n1 * n2 * n3:
            raise ShapeMismatchError(f"flat data has {np.size(flat)} entries, expected {n1 * n2 * n3}")
        return cls(np.reshape(flat, (n3, n1, n2)).transpose(1, 2, 0))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape})"

    def __reduce__(self):
        """Pickles and copies rebuild from the entries alone, through the
        validating constructor; a kept stack does not travel with them."""
        return type(self), (self.data,)


class Tensor3(_Dense):
    """Dense real third-order tensor; immutable after construction.

    A tensor keeps its one-member :class:`_Stack` (``_Stack.of(t)``) once a
    call has made it, so its Fourier slices and its half slices' spectra
    and singular values are computed once however many public calls use
    the tensor."""

    __slots__ = ("_stack",)

    @classmethod
    def zeros(cls, n1: int, n2: int, n3: int) -> "Tensor3":
        return cls(np.zeros((n1, n2, n3)))

    @classmethod
    def from_slices(cls, slices) -> "Tensor3":
        """Build from a sequence of equally-shaped frontal slices."""
        return cls(np.stack([np.asarray(s, dtype=float) for s in slices], axis=2))

    def __add__(self, other: "Tensor3") -> "Tensor3":
        _check_same_shape(self, other)
        return Tensor3(self.data + other.data)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        _check_same_shape(self, other)
        return Tensor3(self.data - other.data)

    def __neg__(self) -> "Tensor3":
        return Tensor3(-self.data)

    def __mul__(self, scalar: float) -> "Tensor3":
        return Tensor3(self.data * float(scalar))

    __rmul__ = __mul__


class ComplexTensor3(_Dense):
    """Complex third-order tensor; used for Cartesian assemblies ``A + iB``."""

    __slots__ = ()
    _dtype = complex

    @classmethod
    def from_parts(cls, real: Tensor3, imag: Tensor3) -> "ComplexTensor3":
        """Assemble ``real + 1j * imag`` from two real tensors of equal shape."""
        _check_same_shape(real, imag)
        return cls(real.data + 1j * imag.data)


class _Stack:
    """``b`` real tensors of one shape, member ``i`` at ``data[i]`` of one
    read-only C-contiguous ``(b, n1, n2, n3)`` float64 array: the trial axis.

    Its methods are the algebra the certifiers are written in: ``x @ y``,
    :meth:`transpose`, :meth:`sym`, ``+``, ``-`` and ``*``, :meth:`power`,
    :meth:`abs_power`, :meth:`align`, :meth:`frobenius`,
    :meth:`spectral`, :meth:`gram_residuals`, :meth:`extremes`,
    :meth:`eigenvalues`, :meth:`cartesian_norms`, :meth:`cat`, :meth:`split`
    and :meth:`where`.
    A certifier body that calls only these runs on any stack type that has
    them.  Each member's result is bit for bit what the public function
    gives that member alone; the public functions are the ``b = 1`` case.

    ``slices`` are the members' Fourier slices, ``(b, n3, n1, n2)``,
    transformed on first use and kept read-only, their self-conjugate
    slices exactly real, so a stack is transformed once however often it is
    used and :meth:`half_slices` is a view of them; :meth:`spectra` keeps
    the one decomposition of its half slices in the same way, and
    :meth:`singular_values` their singular values.  A stack made by
    :meth:`cat` starts with the slices that all of its parts hold and the
    spectra that all of them were asked for (so one power application
    covers a wave of stacks solved together), and no singular values;
    otherwise stacks share none of these.  One tensor's stack,
    ``_Stack.of(t)``, is kept by the tensor for its lifetime, so its slices,
    spectra and singular values serve every call on it.  Entries must be
    finite, as for :class:`Tensor3`.
    """

    __slots__ = ("data", "_slices", "_spectra", "_singular")

    def __init__(self, data):
        data = np.ascontiguousarray(data, dtype=float)
        if not np.isfinite(data).all():
            raise ValueError("tensor entries must be finite (no NaN/Inf)")
        data.flags.writeable = False
        self.data, self._slices, self._spectra, self._singular = data, None, None, None

    @classmethod
    def of(cls, t: Tensor3) -> "_Stack":
        """The one-member stack that ``t`` keeps, made on first use as a view
        of its read-only data; two threads that make it at once each get a
        stack of the same bits, and the tensor keeps one of them.  Anything
        but a :class:`Tensor3` raises :class:`TypeError`."""
        if not isinstance(t, Tensor3):
            raise TypeError(f"a stack holds real tensors (Tensor3), got {type(t).__name__}")
        x = getattr(t, "_stack", None)  # unset on a stack's member view
        if x is None:
            x = cls(t.data[None])
            object.__setattr__(t, "_stack", x)
        return x

    @classmethod
    def from_halves(cls, half: np.ndarray, n3: int) -> "_Stack":
        """The real stack whose members have the half slices ``half``,
        ``n3 // 2 + 1`` of each member in turn (as :meth:`half_slices` lays
        them out, or flattened over the members), mirrored as conjugates and
        inverted; the slices must be those of real tensors
        (:func:`ttensor.fourier._inverse`)."""
        half = half.reshape(-1, fourier._half_size(n3), *half.shape[-2:])
        return cls(fourier._inverse(fourier._mirror_half(half, n3)))

    def cat(self, *others: "_Stack") -> "_Stack":
        """The members of this stack and then of each other stack in turn,
        with the Fourier slices if every one of them holds its own (a
        member's slices are bit for bit its lone transform), and the spectra
        if every one of them was asked for (by :func:`_solve_together`, or
        solved and kept)."""
        for other in others:
            _check_same_shape(self, other)
        if not others:
            return self
        parts = (self, *others)
        out = _Stack(np.concatenate([x.data for x in parts]))
        if all(x._slices is not None for x in parts):
            out._slices = np.concatenate([x._slices for x in parts])
            out._slices.flags.writeable = False
        if all(x._spectra is not None for x in parts):  # each was asked for in a wave
            held = [x.spectra() for x in parts]  # solved alone after a failed wave
            out._spectra = eigensolvers.HermitianEigen(
                np.concatenate([e.values for e in held]), np.concatenate([e.vectors for e in held])
            )
        return out

    def split(self, parts: int) -> list["_Stack"]:
        """Inverse of :meth:`cat` for ``parts`` stacks of equal size."""
        if parts == 1:
            return [self]
        size = len(self) // parts
        return [_Stack(self.data[i:i + size]) for i in range(0, len(self), size)]

    def where(self, mask, other: "_Stack") -> "_Stack":
        """Member ``i`` of this stack where ``mask[i]``, else of ``other``."""
        _check_same_shape(self, other)
        return _Stack(np.where(np.asarray(mask)[:, None, None, None], self.data, other.data))

    @property
    def shape(self) -> tuple[int, int, int]:
        """The shape of each member."""
        return self.data.shape[1:]

    @property
    def n3(self) -> int:
        return self.data.shape[3]

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def slices(self) -> np.ndarray:
        """The members' Fourier slices, ``(b, n3, n1, n2)``, from
        :func:`ttensor.fourier._forward` on first use and kept read-only.
        Each member's self-conjugate slices, real in exact arithmetic, are
        set to their real part once, here, so every reader sees them exactly
        real and every result built from them is exactly conjugate-symmetric
        after mirroring."""
        if self._slices is None:
            slices = fourier._forward(self.data)
            slices.imag[:, fourier._self_conjugate_indices(self.n3)] = 0.0
            slices.flags.writeable = False  # a tensor's stack shares them with every call
            self._slices = slices
        return self._slices

    def half_slices(self) -> np.ndarray:
        """Fourier slices ``0..n3//2`` of each member, ``(b, n3//2 + 1, n1,
        n2)``, a read-only view of :attr:`slices`: the only slices a real
        stack's SVD and eigen readers see, since slices ``n3 - k`` and ``k``
        are conjugates and share a spectrum and singular values."""
        return self.slices[:, : fourier._half_size(self.n3)]

    def singular_values(self) -> np.ndarray:
        """The singular values of each member's :meth:`half_slices`,
        ``(b, n3//2 + 1, min(n1, n2))``, descending in each slice: one
        ``np.linalg.svd`` call on first use, kept read-only.  The spectral
        norm and the inverse's singularity check both read them, so a kept
        stack takes this SVD once however many of those calls it serves."""
        if self._singular is None:
            sv = np.linalg.svd(self.half_slices(), compute_uv=False)
            sv.flags.writeable = False  # a tensor's stack shares them with every call
            self._singular = sv
        return self._singular

    def halves(self) -> np.ndarray:
        """The Hermitian parts of each square member's :meth:`half_slices`,
        one ``(b * (n3//2 + 1), n, n)`` stack: the slices of the PSD checks,
        the powers and the symmetric branch of
        :func:`ttensor.spectral.t_eigenvalues`."""
        half = self.half_slices().reshape(-1, *self.shape[:2])
        return 0.5 * (half + eigensolvers._herm_t(half))

    def spectra(self):
        """The Jacobi decomposition of :meth:`halves`, solved on first use
        (or by :func:`_solve_together`) and kept (:func:`_jacobi_spectra`)."""
        if not self._spectra:  # None before any request, False after a failed wave
            self._spectra = _jacobi_spectra(self.halves())
        return self._spectra

    def align(self, other: "_Stack") -> "_Stack":
        """Each member's tensor whose half slice ``k`` is ``V_k W_k^H``, with
        ``V`` and ``W`` the eigenvectors of this stack's and ``other``'s
        :meth:`spectra`: the unitary per slice that carries ``other``'s
        eigenbasis onto this stack's, eigenvalues in ascending order."""
        _check_same_shape(self, other)
        v, w = self.spectra().vectors, other.spectra().vectors
        return _Stack.from_halves(v @ eigensolvers._herm_t(w), self.n3)

    def member(self, i: int) -> Tensor3:
        """Member ``i``, a read-only view, so a :class:`Tensor3` as it is."""
        t = object.__new__(Tensor3)
        object.__setattr__(t, "data", self.data[i])
        return t

    def transpose(self) -> "_Stack":
        return _Stack(_transpose(self.data))

    def sym(self) -> "_Stack":
        """The symmetric part ``(x + x^T) / 2`` of each member."""
        return 0.5 * (self + self.transpose())

    def __add__(self, other: "_Stack") -> "_Stack":
        _check_same_shape(self, other)
        return _Stack(self.data + other.data)

    def __sub__(self, other: "_Stack") -> "_Stack":
        _check_same_shape(self, other)
        return _Stack(self.data - other.data)

    def __mul__(self, scalar) -> "_Stack":
        """Times a number, or member ``i`` times ``scalar[i]``."""
        if np.ndim(scalar):
            return _Stack(self.data * np.asarray(scalar, dtype=float)[:, None, None, None])
        return _Stack(self.data * float(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "_Stack") -> "_Stack":
        """The t-product of each pair of members; the slice products go to
        BLAS one matrix at a time, so each member gets its lone product's bits."""
        _check_product_shapes(self, other)
        return _Stack(fourier._inverse(self.slices @ other.slices))

    def power(self, r) -> "_Stack":
        """Each member to the power ``r``, or member ``i`` to ``r[i]``: its
        :meth:`spectra` at the exponent, eigenvalues below zero clipped
        (:func:`_clipped_power`).  The members are symmetric and PSD, as a
        hypothesis gate has certified; :func:`ttensor.spectral.t_power`
        checks its own argument."""
        return _hermitian_tensors(_clipped_power(self.spectra(), r, len(self)), self.n3)

    def abs_power(self, r) -> "_Stack":
        """``|x|^r = (x^T x)^(r/2)`` of each member, or of member ``i`` at
        ``r[i]``.

        Each half slice ``U diag(sigma) V^H`` takes one ``np.linalg.svd``
        (LAPACK ``gesdd``, which keeps a real slice real), and its power is
        ``V diag(sigma^r) V^H``: ``|x|``'s eigendecomposition ``V diag(sigma)
        V^H`` at the exponent ``r``.  The Gram ``x^T x`` is never formed, so
        the power keeps the condition of ``x``, not its square (Golub & Van
        Loan, *Matrix Computations*, 5.3; Higham, *Functions of Matrices*,
        ch. 8).  A slice with fewer rows than columns has zeros for the
        missing singular values.
        """
        _, sigma, vh = np.linalg.svd(self.half_slices().reshape(-1, *self.shape[:2]))
        sigma = np.pad(sigma, [(0, 0), (0, self.shape[1] - sigma.shape[1])])
        # sigma descending: the power reads no order
        e = eigensolvers.HermitianEigen(sigma, eigensolvers._herm_t(vh))
        return _hermitian_tensors(_clipped_power(e, r, len(self)), self.n3)

    def frobenius(self) -> list:
        """Each member's :func:`frobenius_norm`, as a list of floats."""
        return _frobenius(self.data).tolist()

    def spectral(self) -> list:
        """Each member's :func:`spectral_norm`, as a list of floats: the
        largest of its :meth:`singular_values`."""
        return self.singular_values()[..., 0].max(axis=1).tolist()

    def gram_residuals(self) -> tuple[list, list, list]:
        """Each member's Frobenius norms of ``x^T x - I``, ``x x^T - I`` and
        ``x^T x - x x^T`` (square members), as three lists of floats: the
        Parseval sums of the half slices' ``S^H S - I``, ``S S^H - I`` and
        ``S^H S - S S^H``, so no transpose is transformed and no product
        inverted (Kilmer & Martin, LAA 2011)."""
        half = self.half_slices()
        left, right = eigensolvers._herm_t(half) @ half, half @ eigensolvers._herm_t(half)
        eye, weights = np.eye(self.shape[0]), fourier._parseval_weights(self.n3) / self.n3
        squares = [(np.abs(m) ** 2).sum(axis=(2, 3)) for m in (left - eye, right - eye, left - right)]
        return tuple(np.sqrt(sq @ weights).tolist() for sq in squares)

    def extremes(self) -> tuple[list, list]:
        """Each member's ``(smallest eigenvalue, largest eigenvalue magnitude)``
        over its Hermitian-symmetrized Fourier slices (:meth:`spectra`), as
        two lists of floats.

        This is the one min-gap routine; its callers keep their own tolerance
        scales, which are deliberately not reconciled because moving either can
        flip verdicts that sit near the band edge:

        * :func:`ttensor.algebra.is_t_psd` accepts ``min >= -tol * (1 + max
          |eig|)``, using the magnitude returned here for the tensor under test;
        * :func:`ttensor.certificates.loewner_certificate` takes the min of
          ``rhs - lhs`` and accepts ``gap >= -tol * (1 + ||R||_2)``, scaled by
          the spectral norm of the right-hand side ``R`` instead.
        """
        w = self.spectra().values.reshape(len(self), -1)
        return w.min(axis=1).tolist(), np.abs(w).max(axis=1).tolist()

    def eigenvalues(self) -> np.ndarray:
        """Each member's t-eigenvalues, one ``(b, n * n3)`` complex array, row
        ``i`` the values of member ``i``'s
        :func:`ttensor.spectral.t_eigenvalues` in its order
        (:func:`ttensor.spectral._mirrored_spectrum`).  The members
        symmetric within ``PREDICATE_TOL`` read :meth:`spectra`; the half
        slices of the others take one general solver call, made only when
        there are any (a member's values do not depend on the rest of the
        stack)."""
        (n, m, n3), half = self.shape, fourier._half_size(self.n3)
        if n != m:
            raise ShapeMismatchError(f"t-eigenvalues require a square tensor, got {self.shape}")
        symmetric = np.array([not reason for reason in algebra._asymmetry(self, algebra.PREDICATE_TOL)])
        w = np.empty((len(self), half, n), dtype=complex)  # each member's half spectrum
        if symmetric.any():
            w[symmetric] = self.spectra().values.reshape(len(self), half, n)[symmetric]
        if not symmetric.all():
            others = self.half_slices()[~symmetric].reshape(-1, n, n)
            w[~symmetric] = eigensolvers.general_eig(others).reshape(-1, half, n)
        return spectral._mirrored_spectrum(w, n3)

    def cartesian_norms(self, other: "_Stack") -> tuple[list, list]:
        """Each member's Frobenius and spectral norms of ``T = self + i other``,
        as lists of floats.

        With ``A_k`` and ``B_k`` the members' Fourier slices, slice ``k`` of
        ``T`` is ``A_k + i B_k`` and slice ``n3 - k`` is ``conj(A_k - i B_k)``
        (Kilmer & Martin, LAA 2011), so the spectral norm is the largest
        singular value of ``A_k + i B_k`` over both stacks'
        :meth:`half_slices` and of ``A_k - i B_k`` over those with a distinct
        partner (a self-conjugate slice's is the conjugate of its own), taken
        in one SVD of ``n3`` slices per member, and no complex transform is
        made.  The Frobenius norm sums the squares of both parts' entries
        (:func:`_frobenius`)."""
        _check_same_shape(self, other)
        a, ib = self.half_slices(), 1j * other.half_slices()
        partnered = fourier._parseval_weights(self.n3) == 2
        sv = np.linalg.svd(np.concatenate([a + ib, (a - ib)[:, partnered]], axis=1), compute_uv=False)
        return _frobenius(self.data + 1j * other.data).tolist(), sv[..., 0].max(axis=1).tolist()


def _check_same_shape(a, b) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")


def _check_product_shapes(a, b) -> None:
    a, b = a.shape, b.shape
    if a[1] != b[0] or a[2] != b[2]:
        raise ShapeMismatchError(f"cannot multiply {a} by {b}: need a.n2 == b.n1 and equal n3")


def _clipped_power(e, exponent, b: int) -> np.ndarray:
    """``V clip(w)^r V^H`` per slice of the decomposition ``e``, each of the
    ``b`` members' slices in turn, all at ``r = exponent`` or those of member
    ``i`` at ``exponent[i]``: the one power loop of :meth:`_Stack.power` and
    :meth:`_Stack.abs_power`.

    Eigenvalues are clipped at 0 first, so ``0**r = 0`` for ``r > 0`` and
    ``w**0 = 1``.  Only a member at a negative exponent is checked, for
    strict definiteness, so the first that fails raises the error it raises
    alone.  Each distinct exponent is applied as one Python number: numpy's
    ``**`` takes its square and square-root fast paths only for a scalar
    exponent, and those round differently from the general power."""
    exponents = list(exponent) if np.ndim(exponent) else [exponent] * b
    values = e.values.reshape(b, -1)
    for r, lam_max, min_eig in zip(exponents, values.max(axis=1).tolist(), values.min(axis=1).tolist()):
        if r < 0 and (lam_max <= 0.0 or min_eig < _POWER_TOL * lam_max):
            raise SingularTensorError(
                -1, np.inf,
                f"negative power needs strict definiteness: smallest eigenvalue {min_eig:.3e}",
            )
    w = np.clip(e.values, 0.0, None)
    row_exponent = np.repeat(np.asarray(exponents, dtype=float), len(w) // len(exponents))
    for r in dict.fromkeys(exponents):
        same = row_exponent == r
        w[same] = w[same] ** r
    return (e.vectors * w[:, None, :]) @ eigensolvers._herm_t(e.vectors)


def _hermitian_tensors(m: np.ndarray, n3: int) -> _Stack:
    """The stack whose members have the Hermitian parts of ``m`` as their
    half slices, ``n3 // 2 + 1`` of each member in turn: mirrored,
    inverted and symmetrized (which removes the transform roundoff)."""
    return _Stack.from_halves(0.5 * (m + eigensolvers._herm_t(m)), n3).sym()


def _t_inverse(x: _Stack) -> _Stack:
    """:func:`ttensor.algebra.t_inverse` of each member; the lowest member
    with a singular half slice raises.  The stack's kept
    :meth:`_Stack.singular_values` check them, LAPACK having taken each slice
    alone, and the inverses of the :meth:`_Stack.half_slices` are mirrored,
    so the result is exactly conjugate-symmetric."""
    if x.shape[0] != x.shape[1]:
        raise ShapeMismatchError(f"inverse requires a square tensor, got {x.shape}")
    sv = x.singular_values()
    # sigma_min / sigma_max of each slice; 0 for an all-zero slice
    ratios = np.divide(sv[..., -1], sv[..., 0], out=np.zeros(sv.shape[:-1]), where=sv[..., 0] > 0)
    for member in ratios:
        worst = int(np.argmin(member))
        if member[worst] <= INVERSE_TOL:
            cond = 1.0 / member[worst] if member[worst] > 0 else np.inf
            raise SingularTensorError(worst, float(cond))
    return _Stack.from_halves(np.linalg.inv(x.half_slices()), x.n3)


def _same_square(*xs: _Stack) -> bool:
    """Whether the stacks share one square member shape, so that their slice
    spectra can join one solver call."""
    return len({x.shape for x in xs}) == 1 and xs[0].shape[0] == xs[0].shape[1]


def _jacobi_spectra(halves: np.ndarray):
    """The Jacobi decomposition of each member of :meth:`_Stack.halves`, one
    stack's or a wave's: Hermitian by construction, so the members pass the
    finite-entry check of :func:`ttensor.eigensolvers.hermitian_eig` alone,
    and no Hermitian residual is taken."""
    return eigensolvers.HermitianEigen(*eigensolvers._jacobi(eigensolvers._square_stack(halves)[0]))


def _solve_together(*wave: _Stack) -> None:
    """Solve the spectra of a wave of independent stacks in one solver call;
    each stack not yet asked for them keeps its share as its
    :meth:`_Stack.spectra`, and a stack named twice is solved once.  Since a
    member's decomposition does not depend on the rest of its stack, the
    share is bit for bit what the stack gets alone.  When they cannot share
    a call (fewer than two, stacks of two shapes or not square, or a call
    that raises), each stack is solved, and raises its own error, where it
    is used; a stack of a failed call does not join a wave again.  Stacks of
    another type keep no spectra and ignore the request."""
    pending = list(dict.fromkeys(x for x in wave if isinstance(x, _Stack) and x._spectra is None))
    if len(pending) < 2 or not _same_square(*pending):
        return
    halves = [x.halves() for x in pending]
    try:
        e = _jacobi_spectra(np.concatenate(halves))
    except TtensorError:
        e = False  # each stack is then solved, and raises its own error, where it is used
    ends = np.cumsum([0] + [len(h) for h in halves])
    for x, start, end in zip(pending, ends, ends[1:]):
        x._spectra = e and eigensolvers.HermitianEigen(e.values[start:end], e.vectors[start:end])


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by ``(seed, stream)``.

    Philox is used underneath, so equal identifiers give bit-identical scalar
    sequences on every platform and regardless of thread scheduling.  Every
    generator call derives a fresh ``numpy`` Generator, hence a generator
    function called twice with the same stream produces identical output.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.stream & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def transpose(a: Tensor3) -> Tensor3:
    """Tensor transpose: each slice transposed, slices 2..n3 in reversed order."""
    return Tensor3(_transpose(a.data[None])[0])


def _transpose(d: np.ndarray) -> np.ndarray:
    """:func:`transpose` of every member of a ``(b, n1, n2, n3)`` stack."""
    b, n1, n2, n3 = d.shape
    out = np.empty((b, n2, n1, n3), dtype=d.dtype)
    out[..., 0] = d[..., 0].transpose(0, 2, 1)
    if n3 > 1:
        # slice k of the result is slice (n3 - k) of the input, transposed
        out[..., 1:] = d[..., :0:-1].transpose(0, 2, 1, 3)
    return out


def identity(n: int, n3: int) -> Tensor3:
    """Multiplicative identity: first slice I_n, remaining slices zero."""
    if n < 1 or n3 < 1:
        raise ValueError("dimensions must be >= 1")
    out = np.zeros((n, n, n3))
    out[:, :, 0] = np.eye(n)
    return Tensor3(out)


def inner_product(x: Tensor3, y: Tensor3) -> float:
    """Entrywise inner product; satisfies <x, x> = ||x||_F^2."""
    _check_same_shape(x, y)
    return float(np.vdot(x.data, y.data).real)


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entry magnitudes."""
    return float(_frobenius(a.data[None])[0])


def _frobenius(d: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a real or complex stack: the bits of
    ``np.linalg.norm`` on the member, which takes the same BLAS dot products
    (of the real and the imaginary parts).  A member whose plain sum of
    squares overflows or underflows (is infinite, or below the smallest
    normal number) is summed again with its entries' parts divided by the
    largest part magnitude, as LAPACK's ``dnrm2`` scales, so a representable
    norm is returned; every other member keeps the plain sum's bits."""
    flat = d.reshape(d.shape[0], math.prod(d.shape[1:]))
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    with np.errstate(over="ignore"):
        squares = sum(np.vecdot(p, p) for p in parts)
    norms, tiny = np.sqrt(squares), np.finfo(float).tiny  # the smallest normal number
    # an all-zero stack's norms are 0 as they are
    if not (squares.min(initial=math.inf) >= tiny and squares.max(initial=0.0) < math.inf) and flat.any():
        redo = ~(squares >= tiny) | np.isinf(squares)
        x = flat[redo].view(float)  # the parts' entries, side by side
        big = np.abs(x).max(axis=1, keepdims=True, initial=tiny)  # tiny: an all-zero member
        norms[redo] = big[:, 0] * np.sqrt(np.vecdot(x / big, x / big))
    return norms


def spectral_norm(a) -> float:
    """Largest singular value of the block-circulant unfolding.

    Equals the maximum over Fourier slices of the slice's largest singular
    value, because the unfolding is unitarily block-diagonalized by the DFT.
    A real tensor's norm is its stack's (:meth:`_Stack.spectral`), which
    takes the SVD of the half slices ``0..n3//2`` only; a complex tensor
    ``A + iB``'s is :meth:`_Stack.cartesian_norms` of its parts, which reads
    the half slices of ``A`` and ``B``.
    """
    if isinstance(a, Tensor3):
        return _Stack.of(a).spectral()[0]
    return _Stack(a.data.real[None]).cartesian_norms(_Stack(a.data.imag[None]))[1][0]


# ---------------------------------------------------------------------------
# seeded instance generators
# ---------------------------------------------------------------------------

def gen_random(dims: tuple[int, int, int], rng) -> Tensor3:
    """Tensor with entries i.i.d. uniform on [-1, 1]."""
    g = _as_generator(rng)
    n1, n2, n3 = dims
    return Tensor3(g.uniform(-1.0, 1.0, size=(n1, n2, n3)))


def gen_symmetric(n: int, n3: int, rng) -> Tensor3:
    """Symmetric tensor (R + R^T)/2; the symmetry is exact in floating point."""
    return _Stack.of(gen_random((n, n, n3), rng)).sym().member(0)


def gen_t_psd(n: int, n3: int, rng, delta: float = _DELTA) -> Tensor3:
    """Positive semidefinite tensor R^T * R + delta * I.

    ``delta > 0`` keeps all Fourier-slice eigenvalues away from zero so that
    fractional powers are well conditioned.
    """
    return _t_psd(_Stack.of(gen_random((n, n, n3), rng)), delta).member(0)


def gen_loewner_pair(n: int, n3: int, rng, delta: float = _DELTA) -> tuple[Tensor3, Tensor3]:
    """Pair (A, B) with A >= B >= 0: B and A - B both positive semidefinite."""
    g = _as_generator(rng)
    pair = _loewner_pairs(*(_Stack.of(gen_random((n, n, n3), g)) for _ in range(2)), delta)
    return tuple(x.member(0) for x in pair)


def gen_commuting_psd_pair(n: int, n3: int, rng, delta: float = _DELTA) -> tuple[Tensor3, Tensor3]:
    """Commuting positive semidefinite pair (p1(C), p2(C)).

    Both factors are random cubic polynomials of one positive semidefinite
    tensor C, with nonnegative coefficients, evaluated under the t-product;
    hence they commute and their product is positive semidefinite.
    """
    g = _as_generator(rng)
    r = _Stack.of(gen_random((n, n, n3), g))
    w1, w2 = (g.uniform(0.0, 1.0, (1, 4)) for _ in range(2))
    return tuple(x.member(0) for x in _commuting_psd_pairs(r, w1, w2, delta))


def _t_psd(r: _Stack, delta: float = _DELTA) -> _Stack:
    """:func:`gen_t_psd` of each member's uniforms ``r``: one t-product, one
    shift and one symmetrization (which removes the transform roundoff, so
    downstream symmetry checks are exact) for the whole stack."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return _Stack((r.transpose() @ r).data + delta * identity(r.shape[0], r.n3).data).sym()


def _loewner_pairs(r_b: _Stack, r_p: _Stack, delta: float = _DELTA) -> tuple[_Stack, _Stack]:
    """:func:`gen_loewner_pair` of each member's two draws of uniforms."""
    b, p = _t_psd(_Stack.cat(r_b, r_p), delta).split(2)
    return b + p, b


def _commuting_psd_pairs(r: _Stack, w1, w2, delta: float = _DELTA) -> tuple[_Stack, _Stack]:
    """:func:`gen_commuting_psd_pair` of each member's uniforms ``r`` and
    polynomial coefficients ``w1[i]``, ``w2[i]``, summed in order from 0."""
    c = _t_psd(r, delta)
    c2 = c @ c
    powers = [_Stack.of(identity(*c.shape[1:])), c, c2, c2 @ c]
    zero = _Stack(np.zeros_like(c.data))
    return tuple(sum((p * w[:, k] for k, p in enumerate(powers)), zero).sym() for w in (w1, w2))


# These modules import names from this one, so they load after it is defined.
from . import algebra, eigensolvers, fourier, spectral  # noqa: E402
