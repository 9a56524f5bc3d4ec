"""Dense third-order tensors, the stack algebra, the store of what stacks
keep, and seeded instance generation.

Owns :class:`Tensor3` and :class:`ComplexTensor3` (read-only ``(n1, n2, n3)``
arrays, slice ``k`` at ``data[:, :, k]``, flat order slice-major and
row-major: ``to_flat`` / ``from_flat``); :class:`_Stack`, ``b`` real tensors
along a leading trial axis, whose methods are the algebra every certifier is
written in, and which a :class:`Tensor3` keeps for itself (:meth:`_Stack.of`);
the Fourier-domain kernels beside it (powers, ``|X|^r``, the inverse, the
Jacobi solve of Hermitian half slices, a wave's one shared solve
:func:`_solve_together`); the store :data:`_KEPT`; :class:`RngStream` and
the generators.  A complex ``A + iB`` is read through stacks of its parts.

Invariants:

* A member's result is bit for bit the public function's on that member
  alone; the public functions are the ``b = 1`` case.
* A stack keeps what it computes (:meth:`_Stack._kept`): Fourier slices,
  half-slice spectra and singular values, t-eigenvalues, PSD instances.  A
  kept value is what the stack would compute: a stored one was computed on
  equal bytes, and equal bytes give the same computation.
* Only half slices ``0..n3//2`` reach an SVD or eigen reader.
* The store is bounded by ``_KEPT_BYTES``, evicts least recently used first,
  holds read-only arrays, is locked, and keeps no error and no failed wave.

Errors: :class:`ValueError` for non-finite or mis-dimensioned entries, a
complex entry in a real tensor or a bad ``delta``;
:class:`ShapeMismatchError` for mismatched shapes;
:class:`SingularTensorError` for a singular inverse or a negative power of a
tensor not strictly definite; :class:`TypeError` for a stack of anything but
a :class:`Tensor3`, or an :class:`RngStream` key that is not an integer.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import OrderedDict
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
# the bound of the kept-quantity store (_KEPT), keys and values together.
# One pass of the 19 theorems at n = 3, n3 = 128 or 127, one trial (seeds
# 0-3, both lengths) takes 47 store hits a pass at this bound, 35 at 1 MiB
# and 49 unbounded; a registry pass at (4, 4, 4) holds under 1 MiB.
_KEPT_BYTES = 1 << 21


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


class _Content:
    """A stack's key in the store: its data, compared by shape and exact
    bytes (so ``-0.0`` and ``0.0`` differ).  The key holds the read-only
    array, not a copy of its bytes; a view of a larger array is copied
    first, so the key holds just the bytes the store counts for it."""

    __slots__ = ("data", "_hash")

    def __init__(self, data: np.ndarray):
        if data.base is not None and getattr(data.base, "nbytes", None) != data.nbytes:
            data = data.copy()
            data.flags.writeable = False
        self.data, self._hash = data, hash((data.shape, data.tobytes()))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _Content)
            and self.data.shape == other.data.shape
            and self.data.tobytes() == other.data.tobytes()
        )


class _Store:
    """What stacks keep, by content: for each key (:class:`_Content`, a
    stack's data), the quantities computed for a stack of that content, by
    name.  Equal bytes give the same computation, so a stack that
    adopts a stored value has the bits it would compute.  The entries are
    held least recently used first and evicted in that order while keys and
    values together hold more than ``bound`` bytes; a value that would not
    fit beside its key alone is not stored.  Stored arrays are read-only.  A
    lock guards the entries, for concurrent callers."""

    def __init__(self, bound: int):
        self.bound, self.size = bound, 0
        self._entries = OrderedDict()  # key -> (bytes held, {name: value})
        self._lock = threading.Lock()

    def get(self, key, name):
        """The value stored as ``name`` for ``key``, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or name not in entry[1]:
                return None
            self._entries.move_to_end(key)
            return entry[1][name]

    def put(self, key: _Content | None, name: str, value) -> None:
        """Store ``value`` as ``name`` for ``key``, its arrays made read-only
        (also when it is not stored: the stack keeps it and shares it)."""
        arrays = (value.values, value.vectors) if isinstance(value, eigensolvers.HermitianEigen) else (value,)
        for a in arrays:
            a.flags.writeable = False
        if key is None:  # a stack whose data alone is over the bound
            return
        added = sum(a.nbytes for a in arrays)
        with self._lock:
            held, values = self._entries.get(key, (0, {}))
            size = (held or key.data.nbytes) + added
            if name in values or size > self.bound:
                return
            self._entries[key] = (size, {**values, name: value})
            self._entries.move_to_end(key)
            self.size += size - held
            while self.size > self.bound:  # the entry just stored fits alone, so it stays
                self.size -= self._entries.popitem(last=False)[1][0]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.size = 0


_KEPT = _Store(_KEPT_BYTES)


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

    A stack holds its quantities by name (``_held``), each got once through
    :meth:`_kept` however often it is used: its Fourier ``slices``, its half
    slices' :meth:`spectra` and :meth:`singular_values`, its
    :meth:`eigenvalues` and the PSD instance built from it (:func:`_t_psd`).
    A stack holds a quantity's value or nothing.  A stack made by
    :meth:`cat` starts with the slices and the spectra that all of its parts
    hold (so one power application covers a wave of stacks solved
    together).  One tensor's stack, ``_Stack.of(t)``, is kept by the tensor
    for its lifetime, so what it holds serves every call on it.  Entries
    must be finite, as for :class:`Tensor3`.
    """

    __slots__ = ("data", "_key", "_held")

    def __init__(self, data):
        data = np.ascontiguousarray(data, dtype=float)
        if not np.isfinite(data).all():
            raise ValueError("tensor entries must be finite (no NaN/Inf)")
        data.flags.writeable = False
        self.data, self._key, self._held = data, None, {}

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
        with the Fourier slices, and the spectra, if every one of them holds
        its own (a member's are bit for bit those it gets alone).  Nothing
        is computed here."""
        for other in others:
            _check_same_shape(self, other)
        parts = (self, *others)
        out = _Stack(np.concatenate([x.data for x in parts]))
        if all("slices" in x._held for x in parts):
            out._held["slices"] = np.concatenate([x.slices for x in parts])
            out._held["slices"].flags.writeable = False
        if all("spectra" in x._held for x in parts):
            held = [x._held["spectra"] for x in parts]
            out._held["spectra"] = eigensolvers.HermitianEigen(
                np.concatenate([e.values for e in held]), np.concatenate([e.vectors for e in held])
            )
        return out

    def split(self, parts: int) -> list["_Stack"]:
        """Inverse of :meth:`cat` for ``parts`` stacks of equal size."""
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
    def key(self):
        """The stack's key in the store (:data:`_KEPT`), its data's shape and
        bytes (:class:`_Content`), made on first use; ``None`` for data over
        the store's bound, which no entry could hold."""
        if self._key is None and self.data.nbytes <= _KEPT.bound:
            self._key = _Content(self.data)
        return self._key

    def _kept(self, name, compute):
        """The stack's quantity ``name`` (a string, or a tuple of a string
        and the quantity's parameters): the value the stack holds, else the
        store's value for its :attr:`key`, else ``compute()``, stored; the
        stack holds what it gets.  The one path that stores a value, and
        that fills a stack but for what :meth:`cat` carries over.  An error
        leaves nothing held or stored."""
        value = self._held.get(name)
        if value is None:
            value = _KEPT.get(self.key, name)
            if value is None:
                value = compute()
                _KEPT.put(self.key, name, value)
            self._held[name] = value
        return value

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
        def transformed():
            slices = fourier._forward(self.data)
            slices.imag[:, fourier._self_conjugate_indices(self.n3)] = 0.0
            return slices

        return self._kept("slices", transformed)

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
        return self._kept("singular", lambda: np.linalg.svd(self.half_slices(), compute_uv=False))

    def halves(self) -> np.ndarray:
        """The Hermitian parts of each square member's :meth:`half_slices`,
        one ``(b * (n3//2 + 1), n, n)`` stack: the slices of the PSD checks,
        the powers and the symmetric branch of
        :func:`ttensor.spectral.t_eigenvalues`.  They are exactly Hermitian
        (entry ``(i, j)`` and the conjugate of entry ``(j, i)`` round
        alike), as the Jacobi kernel takes its input."""
        half = self.half_slices().reshape(-1, *self.shape[:2])
        return 0.5 * (half + eigensolvers._herm_t(half))

    def spectra(self):
        """The Jacobi decomposition of :meth:`halves`
        (:func:`_jacobi_spectra`), kept: a wave's share
        (:func:`_solve_together`), or solved alone on first use."""
        return self._kept("spectra", lambda: _jacobi_spectra(self.halves()))

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
        (:func:`ttensor.spectral._mirrored_spectrum`).  The members whose
        symmetry residual is at most ``PREDICATE_TOL * ||X||_F`` read
        :meth:`spectra`; the half slices of the others take one general
        solver call, made only when there are any (a member's values do not
        depend on the rest of the stack).  The bound has no absolute floor,
        so a member's route does not change with its scale.  Computed on
        first use and kept read-only, as the stack's other quantities are."""
        if self.shape[0] != self.shape[1]:
            raise ShapeMismatchError(f"t-eigenvalues require a square tensor, got {self.shape}")
        return self._kept("eigenvalues", self._solved_eigenvalues)

    def _solved_eigenvalues(self) -> np.ndarray:
        (n, _, n3), half = self.shape, fourier._half_size(self.n3)
        residual = _frobenius(self.data - _transpose(self.data))
        symmetric = residual <= algebra.PREDICATE_TOL * _frobenius(self.data)
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


def _jacobi_spectra(halves: np.ndarray):
    """The Jacobi decomposition of each member of :meth:`_Stack.halves`, one
    stack's or a wave's: exactly Hermitian by construction, so the members
    pass the finite-entry check of :func:`ttensor.eigensolvers.hermitian_eig`
    alone and go to the kernel as they are, with their own Frobenius norms;
    they are not symmetrized again, and no Hermitian residual is taken."""
    h = eigensolvers._square_stack(halves)[0]
    return eigensolvers.HermitianEigen(*eigensolvers._jacobi(h, _frobenius(h)))


def _solve_together(*wave: _Stack) -> None:
    """Solve the spectra of a wave of independent stacks in one solver call;
    each stack that does not hold them keeps its share through
    :meth:`_Stack._kept`.  A stack whose spectra the store holds adopts them
    and leaves the wave, and a stack named twice is solved once.  Since a
    member's decomposition does not depend on the rest of its stack, the
    share is bit for bit what the stack gets alone.  With fewer than two
    stacks left, stacks of two shapes or stacks not square, the wave
    returns, as does a call that raises: each stack is then solved, and
    raises its own error, where it is used.  Stacks of another type keep no
    spectra and ignore the request."""
    pending = []
    for x in wave:
        if isinstance(x, _Stack) and "spectra" not in x._held and x not in pending:
            if _KEPT.get(x.key, "spectra") is None:
                pending.append(x)
            else:
                x.spectra()  # adopts the stored share
    if len(pending) < 2 or len({x.shape for x in pending}) > 1 or pending[0].shape[0] != pending[0].shape[1]:
        return
    halves = [x.halves() for x in pending]
    try:
        e = _jacobi_spectra(np.concatenate(halves))
    except TtensorError:  # each stack is then solved, and raises its own error, where it is used
        return
    ends = np.cumsum([len(h) for h in halves])[:-1]
    for x, values, vectors in zip(pending, np.split(e.values, ends), np.split(e.vectors, ends)):
        # copies, so the store holds and counts each share alone, not the wave's arrays
        x._kept("spectra", lambda: eigensolvers.HermitianEigen(values.copy(), vectors.copy()))


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by ``(seed, stream)``.

    Philox is used underneath, keyed by both integers modulo 2^64, so equal
    identifiers give bit-identical scalar sequences on every platform and
    regardless of thread scheduling, and distinct keys distinct ones.  Every
    generator call derives a fresh ``numpy`` Generator, hence a generator
    function called twice with the same stream produces identical output.
    A ``seed`` or ``stream`` that is not an integer (``operator.index``)
    raises :class:`TypeError` at construction, naming the field.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise TypeError(f"RngStream {name} must be an integer, got {getattr(self, name)!r}") from None

    def generator(self) -> np.random.Generator:
        # a uint64 array: numpy takes a list's integers through float64
        key = np.array([operator.index(i) & _MASK64 for i in (self.seed, self.stream)], dtype=np.uint64)
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
    fractional powers are well conditioned; a ``delta`` that is not a finite
    number ``>= 0`` raises :class:`ValueError`.
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
    downstream symmetry checks are exact) for the whole stack.

    The instance's data is a kept quantity of ``r`` (:meth:`_Stack._kept`),
    named by ``delta``'s exact bits (so ``-0.0`` and ``0.0`` differ), so a
    stack of equal uniforms adopts the instance an earlier build stored;
    equal uniforms give the same computation, so the bits are those it
    would build.  ``delta`` must be a finite number ``>= 0``."""
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be a finite number >= 0, got {delta}")

    def built():
        return _Stack((r.transpose() @ r).data + delta * identity(r.shape[0], r.n3).data).sym().data

    return _Stack(r._kept(("t_psd", float(delta).hex()), built))


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
