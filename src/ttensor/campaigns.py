"""Seeded verification campaigns over the theorem registry.

Owns the registry (:data:`THEOREM_IDS`; each entry a :class:`_Stacked`, a
draw and a stacked certifier from :mod:`ttensor.inequalities` or
:mod:`ttensor.localization`) and :func:`run_campaign`, which draws
hypothesis-valid instances, certifies them and aggregates the certificates.
Trials run in windows of at most ``_WINDOW_ENTRIES`` tensor entries (at
least one trial).  A window is drawn in two phases: each trial takes its
raw numbers from its own ``RngStream(seed, trial)`` in the order a lone
trial takes them (:class:`_Window`), then the window's tensors are built as
stacks along a trial axis.  The certifier takes each wave of independent
slice spectra of the whole window in one solver call, and every certificate
is made once, with the campaign ``seed`` and its ``"trial"`` first in
``params`` (:func:`_certified`, :func:`ttensor.certificates._build`).

Invariants:

* A report is byte-identical to running the trials one after another: a
  stacked member gets the bits it would get alone.
* A campaign keeps nothing that changes its output; what it shares through
  the store of :mod:`ttensor.core` is what it would compute.
* :func:`run_campaign` may be called from several threads at once; a window
  whose transforms stay below ``fourier._SPLIT_WORK`` starts no thread.

Errors: :class:`ttensor.errors.UnknownTheoremError` for an unknown theorem;
:class:`ValueError`, before any trial, for an unknown mode, a size, trial
count or seed that is not an integer (or is a bool) or out of range, a bad
``tol`` or a ``params`` key the draw does not read.  If a window's pass
raises, its trials run again one by one, so a campaign raises what the
lowest failing trial raises in a serial loop.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import inequalities as ineq
from . import localization as loc
from .algebra import PREDICATE_TOL, _require_symmetric, _t_inverse
from .certificates import DEFAULT_TOL, _build
from .core import RngStream, _commuting_psd_pairs, _frobenius, _loewner_pairs, _Stack, _t_psd, identity
from .errors import UnknownTheoremError, _require, _require_tol

__all__ = ["THEOREM_IDS", "CampaignResult", "run_campaign"]

_CONJUGATOR_DRAWS = 100
_CONJUGATOR_MAX_COND = 1e4
_WINDOW_ENTRIES = 4096


@dataclass(frozen=True)
class CampaignResult:
    theorem_id: str
    certificates: list
    summary: dict

    @property
    def violations(self) -> int:
        return self.summary["violations"]


class _Window:
    """A window's trials, each with its own generator.  Each draw takes one
    number or array from every trial's generator, so each trial takes its
    numbers in the order its lone draw takes them, whatever the window."""

    def __init__(self, seed: int, trials, n: int, n3: int, generators=None):
        self.seed, self.trials, self.n, self.n3 = seed, list(trials), n, n3
        self.generators = generators or [RngStream(seed, t).generator() for t in self.trials]

    def part(self, lo: int, hi: int) -> "_Window":
        """Trials ``lo..hi-1`` of the window, their generators as they stand."""
        return _Window(self.seed, self.trials[lo:hi], self.n, self.n3, self.generators[lo:hi])

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        """Each trial's ``uniform(low, high, size)``, along a leading trial axis."""
        return np.array([g.uniform(low, high, size) for g in self.generators])

    def random(self, *dims: int) -> _Stack:
        """Each trial's :func:`ttensor.core.gen_random` tensor, ``n x n x n3`` by default."""
        return _Stack(self.uniform(-1.0, 1.0, dims or (self.n, self.n, self.n3)))

    def grid(self, params: dict, key: str, values: list, every: int = 1) -> list:
        """Each trial's ``params[key]``, else ``values[(trial // every) % len(values)]``."""
        return [params.get(key, values[(t // every) % len(values)]) for t in self.trials]

    def group(self, stacks, *columns) -> list:
        """The window's instances as one group (see :class:`_Stacked`)."""
        return [(self.trials, list(stacks), list(columns))]

    def with_fixed_zero(self, tensors, scalars, draw, mode, params) -> list:
        """The groups of a window whose trial 0 takes the fixed instance
        ``(tensors, scalars)``: trial 0 alone, the others drawn by ``draw``."""
        fixed = ([0], [_Stack.of(t) for t in tensors], [[v] for v in scalars])
        return [fixed, *(draw(self.part(1, None), mode, params) if len(self.trials) > 1 else [])]


@dataclass(frozen=True)
class _Stacked:
    """A theorem whose campaign windows run as one stacked pass.

    ``draw(window, mode, params)`` gives the window's instances as groups
    ``(trials, stacks, columns)``: the ``k``-th tensors of the trials in
    ``stacks[k]``, their ``k``-th scalars in ``columns[k]``.
    ``certify(stacks, columns, tol, mode)`` gives the group's
    :class:`ttensor.certificates._Blocks`, one list of rows per trial.
    ``params`` names the keys of :func:`run_campaign`'s ``params`` that
    the draw reads; the campaign refuses any other key.
    """

    draw: Callable
    certify: Callable
    params: tuple = ()


def _stacked(certifier):
    """``certify`` for a stacked certifier that takes the stacks, the scalar
    columns, then ``tol``."""
    return lambda stacks, columns, tol, mode: certifier(*stacks, *columns, tol)


# --- per-theorem draws and stacked certifiers ---------------------------------

def _conjugate(p: list) -> list:
    return [pi / (pi - 1.0) for pi in p]


def _draw_loewner_heinz(w, mode, params):
    r = w.grid(params, "r", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    exploratory = [bool(params.get("exploratory", ri > 1.0)) for ri in r]
    if exploratory[0] and w.trials[0] == 0:
        scalars = (r[0], True, {"instance": "power-order-counterexample"})
        counterexample = ineq.power_order_counterexample()
        return w.with_fixed_zero(counterexample, scalars, _draw_loewner_heinz, mode, params)
    return w.group(_loewner_pairs(w.random(), w.random()), r, exploratory, [None] * len(r))


def _draw_hansen_power(w, mode, params):
    x = _t_psd(w.random())
    r = w.grid(params, "r", [0.25, 0.5, 0.75, 1.25, 1.5, 2.0])
    if mode == "literal":
        # as printed the conjugation is untransposed, so the middle product is
        # only symmetric for symmetric orthogonal Q; generic orthogonal Q is
        # rejected by the certifier, hence this campaign draws Householder-type
        # conjugators I - 2 v (v^T v)^-1 v^T (for which the statement reduces
        # to an equality case)
        v = w.random(w.n, 1, w.n3)
        vv = v @ _t_inverse(v.transpose() @ v)
        q = (_Stack.of(identity(w.n, w.n3)) - 2.0 * (vv @ v.transpose())).sym()
    else:
        raw = w.random()
        q = raw * (1.0 / (np.array(raw.spectral()) * w.uniform(1.0, 2.0)))
    return w.group((q, x), r)


def _certify_hansen_power(stacks, columns, tol, mode):
    return ineq._hansen_power(*stacks, *columns, tol, "literal" if mode == "literal" else "contraction")


def _furuta_exponents(g) -> tuple[float, float, float]:
    while True:
        r = float(g.uniform(0.0, 2.0))
        p = float(g.uniform(0.0, 4.0))
        q = float(g.uniform(1.0, 4.0))
        if (1 + 2 * r) * q >= p + 2 * r:
            return r, p, q


def _draw_furuta(w, mode, params):
    a, b = _loewner_pairs(w.random(), w.random())
    r, p, q = map(list, zip(*map(_furuta_exponents, w.generators)))
    return w.group((a, b), r, p, q)


def _draw_young_commuting(w, mode, params):
    pair = _commuting_psd_pairs(w.random(), w.uniform(0.0, 1.0, 4), w.uniform(0.0, 1.0, 4))
    p = w.grid(params, "p", [1.5, 2.0, 4.0])
    return w.group(pair, p, _conjugate(p))


def _draw_young_witness(w, mode, params):
    p = w.grid(params, "p", [1.5, 2.0, 3.0])
    return w.group((w.random(), w.random()), p, _conjugate(p))


def _complex_norm(variant) -> _Stacked:
    def draw(w, mode, params):
        a, b = w.random(), w.random()
        if variant == "c":
            return w.group(_t_psd(_Stack.cat(a, b)).split(2))
        return w.group((_t_psd(a) if variant == "b" else a.sym(), b.sym()))

    def certify(stacks, columns, tol, mode):
        return ineq._complex_norm_bounds(*stacks, variant, tol, mode)

    return _Stacked(draw, certify)


def _draw_am_gm(w, mode, params):
    if mode == "literal" and w.trials[0] == 0:
        # scalar counterexample family: a=2, x=1, b=1 gives 2 > 1.5
        one = identity(1, 1)
        return w.with_fixed_zero((2.0 * one, one, one), (), _draw_am_gm, mode, params)
    return w.group([w.random() for _ in range(3)])


def _draw_heinz_family(w, mode, params):
    r = w.grid(params, "r", [0.5, 0.75, 1.0, 1.25, 1.5])
    t = w.grid(params, "t", [-1.0, 0.0, 1.0, 2.0], every=5)
    a, b = _t_psd(_Stack.cat(w.random(), w.random())).split(2)
    return w.group((a, w.random(), b), r, t)


def _draw_holder(w, mode, params):
    r = w.grid(params, "r", [0.5, 1.0, 2.0])
    p = w.grid(params, "p", [1.25, 2.0, 5.0], every=3)
    a, b = _t_psd(_Stack.cat(w.random(), w.random())).split(2)
    return w.group((a, w.random(), b), r, p, _conjugate(p))


def _draw_holder_pairs(w, mode, params):
    p = w.grid(params, "p", [1.25, 2.0, 5.0])
    return w.group([w.random() for _ in range(4)], p, _conjugate(p))


def _draw_holder_corollary(w, mode, params):
    r = w.grid(params, "r", [0.5, 1.0, 2.0])
    p = w.grid(params, "p", [1.25, 2.0, 5.0], every=3)
    return w.group((w.random(), w.random()), r, p, _conjugate(p))


def _draw_minkowski(w, mode, params):
    return w.group([w.random() for _ in range(4)], w.grid(params, "p", [1.0, 1.5, 2.0, 3.0]))


def _draw_random(w, mode, params):
    return w.group([w.random()])


def _conjugators(w: _Window, q: _Stack) -> tuple[_Stack, _Stack]:
    """Each trial's conjugator and its inverse, from its candidate in ``q``.
    A candidate is accepted when the smallest singular value of its half
    slices is positive and the largest is at most ``_CONJUGATOR_MAX_COND``
    times it: their ratio is ``||q||_2 ||q^-1||_2``.  A trial whose
    candidate is rejected draws on alone, from where its stream stands,
    ``_CONJUGATOR_DRAWS`` candidates in all.  The accepted stack is
    inverted once."""
    accepted = _well_conditioned(q)
    if not accepted.all():
        data = q.data.copy()
        for i in np.flatnonzero(~accepted):
            redraws = (w.part(i, i + 1).random() for _ in range(_CONJUGATOR_DRAWS - 1))
            candidate = next((c for c in redraws if _well_conditioned(c)[0]), None)
            _require(
                candidate is not None,
                f"bauer-fike: no invertible conjugator with condition <= "
                f"{_CONJUGATOR_MAX_COND:.0e} in {_CONJUGATOR_DRAWS} draws "
                f"(seed={w.seed}, trial={w.trials[i]})",
            )
            data[i] = candidate.data[0]
        q = _Stack(data)
    return q, _t_inverse(q)


def _well_conditioned(q: _Stack) -> np.ndarray:
    """Whether each member's half slices have a positive smallest singular
    value and a largest at most ``_CONJUGATOR_MAX_COND`` times it."""
    sv = q.singular_values()
    low, high = sv[..., -1].min(axis=1), sv[..., 0].max(axis=1)
    return (low > 0) & (high <= _CONJUGATOR_MAX_COND * low)


def _draw_bauer_fike(w, mode, params):
    q, q_inv = _conjugators(w, w.random())
    diag = np.zeros((len(q), w.n, w.n, w.n3))
    diag[:, range(w.n), range(w.n), :] = w.uniform(-1.0, 1.0, (w.n, w.n3))
    s = _Stack(diag)
    a = q_inv @ s @ q
    e = w.random()
    b = a + e * (0.3 * (1.0 + _frobenius(a.data)) / (1.0 + _frobenius(e.data)))
    return w.group((a, b, q, s, q_inv))


def _draw_symmetric_pair(w, mode, params):
    return w.group(_Stack.cat(w.random(), w.random()).sym().split(2))


def _certify_hoffman_wielandt(stacks, columns, tol, mode):
    """The optimal-pairing certificates of each member, then the sorted pairing's:
    a symmetric pair's spectra are real, so its optimal pairing is the sorted one.
    The pair's spectra are one solver call, that of ``a.cat(b).eigenvalues()``."""
    a, b = stacks
    reports, blocks = loc._hoffman_wielandt(a, b, tol)
    _require_symmetric(PREDICATE_TOL, A=a, B=b)
    members = [[*rows, *loc._matching_rows("sorted", r)] for r, rows in zip(reports, blocks.members)]
    return blocks._replace(members=members)


_REGISTRY = {
    "loewner-heinz": _Stacked(_draw_loewner_heinz, _stacked(ineq._loewner_heinz), ("r", "exploratory")),
    "hansen-power": _Stacked(_draw_hansen_power, _certify_hansen_power, ("r",)),
    "furuta": _Stacked(_draw_furuta, _stacked(ineq._furuta)),
    "young-commuting": _Stacked(_draw_young_commuting, _stacked(ineq._young_commuting), ("p",)),
    "young-witness": _Stacked(_draw_young_witness, _stacked(ineq._young_witness_certificates), ("p",)),
    "complex-norm-a": _complex_norm("a"),
    "complex-norm-b": _complex_norm("b"),
    "complex-norm-c": _complex_norm("c"),
    "am-gm": _Stacked(
        _draw_am_gm, lambda stacks, columns, tol, mode: ineq._am_gm(*stacks, tol, mode)
    ),
    "heinz-family": _Stacked(_draw_heinz_family, _stacked(ineq._heinz_family), ("r", "t")),
    "holder": _Stacked(_draw_holder, _stacked(ineq._holder), ("r", "p")),
    "holder-pairs": _Stacked(_draw_holder_pairs, _stacked(ineq._holder_pairs), ("p",)),
    "holder-corollary": _Stacked(_draw_holder_corollary, _stacked(ineq._holder_corollary), ("r", "p")),
    "minkowski": _Stacked(_draw_minkowski, _stacked(ineq._minkowski), ("p",)),
    "schur": _Stacked(_draw_random, _stacked(loc._schur)),
    "gershgorin": _Stacked(_draw_random, _stacked(loc._gershgorin)),
    "bauer-fike": _Stacked(_draw_bauer_fike, _stacked(loc._bauer_fike)),
    "hoffman-wielandt": _Stacked(_draw_symmetric_pair, _certify_hoffman_wielandt),
    "diag-spectrum": _Stacked(_draw_symmetric_pair, _stacked(loc._diag_spectrum)),
}

THEOREM_IDS = tuple(sorted(_REGISTRY))


def run_campaign(
    theorem_id: str,
    n: int = 3,
    n3: int = 3,
    trials: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    mode: str = "corrected",
    params: dict | None = None,
) -> CampaignResult:
    """Run ``trials`` seeded instances of one registered theorem.

    Trial ``i`` draws its instance from ``RngStream(seed, i)``, so the full
    certificate list is a pure function of the arguments.  ``n``, ``n3``,
    ``trials`` and ``seed`` must be integers (not bools), ``n`` and ``n3``
    at least 1, ``trials`` at least 0 and ``tol`` a finite number at least
    0, and ``params`` may hold only keys the theorem's draw reads, else
    :class:`ValueError`, before any trial.  The summary holds them as plain
    ``int``.
    """
    if theorem_id not in _REGISTRY:
        raise UnknownTheoremError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    if mode not in (ineq.MODE_CORRECTED, ineq.MODE_LITERAL):
        raise ValueError(f"unknown mode {mode!r}")
    for name, value in {"n": n, "n3": n3, "trials": trials, "seed": seed}.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    n, n3, trials, seed = map(int, (n, n3, trials, seed))
    if n < 1 or n3 < 1 or trials < 0:
        raise ValueError(f"need n >= 1, n3 >= 1 and trials >= 0, got n={n}, n3={n3}, trials={trials}")
    _require_tol(tol)
    theorem = _REGISTRY[theorem_id]
    params = dict(params or {})
    unknown = [key for key in params if key not in theorem.params]
    if unknown:
        raise ValueError(
            f"{theorem_id} takes no params {unknown}; its params: {', '.join(theorem.params) or 'none'}"
        )
    certificates = []
    window = _window_size(n, n3)
    for start in range(0, trials, window):
        members = range(start, min(start + window, trials))
        try:
            outcomes = _certified(theorem, members, seed, n, n3, tol, mode, params)
        except Exception:  # one by one, so the lowest failing trial raises its serial error
            outcomes = [_run_trial(theorem, t, seed, n, n3, tol, mode, params) for t in members]
        for outcome in outcomes:
            certificates.extend(outcome)
    return _campaign_result(theorem_id, n, n3, trials, seed, mode, certificates)


def _run_trial(theorem: _Stacked, trial, seed, n, n3, tol, mode, params) -> list:
    """One trial alone, its certificates built: a window of one trial."""
    return _certified(theorem, [trial], seed, n, n3, tol, mode, params)[0]


def _certified(theorem: _Stacked, trials, seed, n, n3, tol, mode, params) -> list:
    """Each trial's certificates: the window's instances are drawn as
    stacks, each group of them is certified in one call, and its
    certificates are built with their provenance, the campaign ``seed``
    and each trial (:func:`ttensor.certificates._build`)."""
    out = {}
    for group, stacks, columns in theorem.draw(_Window(seed, trials, n, n3), mode, params):
        out.update(zip(group, _build(theorem.certify(stacks, columns, tol, mode), seed, group)))
    return [out[t] for t in trials]


def _window_size(n: int, n3: int) -> int:
    """Trials run at once: at most ``_WINDOW_ENTRIES`` tensor entries
    (``n * n * n3`` a trial) across the window, which bounds the memory the
    window's stacks hold at once, but at least one trial."""
    return max(1, _WINDOW_ENTRIES // max(1, n * n * n3))


def _campaign_result(theorem_id, n, n3, trials, seed, mode, certificates) -> CampaignResult:
    violations = [c for c in certificates if not c.holds]
    worst = min(certificates, key=lambda c: c.margin, default=None)
    summary = {
        "theorem_id": theorem_id,
        "n": n,
        "n3": n3,
        "trials": trials,
        "seed": seed,
        "mode": mode,
        "certificates": len(certificates),
        "violations": len(violations),
        "worst_margin": worst.margin if worst else 0.0,
        "worst_params": worst.params if worst else {},
    }
    return CampaignResult(theorem_id, certificates, summary)
