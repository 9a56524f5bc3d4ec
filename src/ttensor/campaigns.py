"""Seeded verification campaigns over the theorem registry.

A campaign draws hypothesis-valid instances (one counter-based substream per
trial, so runs are reproducible and order-independent), invokes the matching
certifier, and aggregates the certificates; a norm inequality's certifier
returns its Frobenius and its spectral certificates from one call.
Certifiers are pure functions of the instance; the campaign stamps each
certificate with its provenance, the campaign ``seed`` and ``"trial"`` as
the first key of ``params``, in one place (:func:`_stamp`).

Trials run in windows of at most 64 trials and at most 4096 tensor entries
(``n * n * n3`` a trial), but at least one trial; the bound keeps the
memory a window's stacks hold at once small.  There is no setting.  Each
theorem's registry entry is a :class:`_Stacked`: a draw and a stacked
certifier.  Each trial of a window still draws its instance from
``RngStream(seed, trial)``, rejection loops included; the instances are
stacked along a leading trial axis (instances of another shape, such as
literal ``am-gm``'s 1x1x1 trial 0, in a stack of their own) and certified in
one pass of array calls (:func:`_run_stacked`), and the certificates are
split per trial.  The certifier takes each wave of independent slice spectra
of the whole window in one solver call: Jacobi for the powers, PSD checks,
Loewner gaps and symmetric spectra, Hessenberg + QR for the t-eigenvalues of
non-symmetric tensors (``gershgorin``, ``bauer-fike``, ``schur``).  If the
pass raises, the window's trials run again one by one, so the campaign
raises the error the lowest failing trial raises in a serial loop.

Every member of a stacked call gets the bits it would get alone, so reports
are byte-identical to running the trials one after another.  A campaign
keeps no state outside its call and starts no thread, so
:func:`run_campaign` may be called from several threads at once and each
call's report is byte-identical to a lone serial run.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import inequalities as ineq
from . import localization as loc
from .certificates import DEFAULT_TOL, FROBENIUS, norm_certificate
from .core import (
    RngStream,
    Tensor3,
    _Stack,
    frobenius_norm,
    gen_commuting_psd_pair,
    gen_loewner_pair,
    gen_random,
    gen_symmetric,
    gen_t_psd,
    identity,
    spectral_norm,
    transpose,
)
from .errors import HypothesisViolationError, SingularTensorError, UnknownTheoremError
from .spectral import _t_eigenvalues
from .algebra import t_inverse, t_product

__all__ = ["THEOREM_IDS", "CampaignResult", "run_campaign"]

_CONJUGATOR_DRAWS = 100
_CONJUGATOR_MAX_COND = 1e4
_WINDOW_TRIALS = 64
_WINDOW_ENTRIES = 4096


@dataclass(frozen=True)
class CampaignResult:
    theorem_id: str
    certificates: list
    summary: dict

    @property
    def violations(self) -> int:
        return self.summary["violations"]


def _grid(values, trial):
    return values[trial % len(values)]


@dataclass(frozen=True)
class _Stacked:
    """A theorem whose campaign windows run as one stacked pass.

    ``draw(trial, stream, n, n3, mode, params)`` gives a trial's instance:
    its tensors and the scalar arguments that follow them.
    ``certify(stacks, columns, tol, mode)`` certifies a stack of instances,
    the ``k``-th tensors of the trials in ``stacks[k]`` and the ``k``-th
    scalars in ``columns[k]``, and returns one certificate list per trial.
    Called as a trial function, it certifies its one trial as a one-member
    stack: the serial form of a window.
    """

    draw: Callable
    certify: Callable

    def __call__(self, trial, stream, n, n3, tol, mode, params):
        tensors, scalars = self.draw(trial, stream, n, n3, mode, params)
        return self.certify([_Stack.of(t) for t in tensors], [[v] for v in scalars], tol, mode)[0]


def _stacked(certifier):
    """``certify`` for a stacked certifier that takes the stacks, the scalar
    columns, then ``tol``."""
    return lambda stacks, columns, tol, mode: certifier(*stacks, *columns, tol)


# --- per-theorem draws and stacked certifiers ---------------------------------
# a draw returns one trial's (tensors, scalars)

def _draw_loewner_heinz(trial, stream, n, n3, mode, params):
    r = params.get("r", _grid([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], trial))
    exploratory = bool(params.get("exploratory", r > 1.0))
    if exploratory and trial == 0:
        a, b = ineq.power_order_counterexample()
        extra = {"instance": "power-order-counterexample"}
    else:
        a, b = gen_loewner_pair(n, n3, stream)
        extra = None
    return (a, b), (r, exploratory, extra)


def _householder_tensor(n, n3, g) -> Tensor3:
    """Symmetric orthogonal tensor I - 2 v (v^T v)^-1 v^T for a random lateral v."""
    v = gen_random((n, 1, n3), g)
    gram_inv = t_inverse(t_product(transpose(v), v))
    h = identity(n, n3) - 2.0 * t_product(t_product(v, gram_inv), transpose(v))
    return 0.5 * (h + transpose(h))


def _draw_hansen_power(trial, stream, n, n3, mode, params):
    g = stream.generator()
    x = gen_t_psd(n, n3, g)
    r = params.get("r", _grid([0.25, 0.5, 0.75, 1.25, 1.5, 2.0], trial))
    if mode == "literal":
        # as printed the conjugation is untransposed, so the middle product is
        # only symmetric for symmetric orthogonal Q; generic orthogonal Q is
        # rejected by the certifier, hence this campaign draws Householder-type
        # conjugators (for which the statement reduces to an equality case)
        q = _householder_tensor(n, n3, g)
    else:
        raw = gen_random((n, n, n3), g)
        q = raw * (1.0 / (spectral_norm(raw) * float(g.uniform(1.0, 2.0))))
    return (q, x), (r,)


def _certify_hansen_power(stacks, columns, tol, mode):
    return ineq._hansen_power(*stacks, *columns, tol, "literal" if mode == "literal" else "contraction")


def _draw_furuta(trial, stream, n, n3, mode, params):
    g = stream.generator()
    a, b = gen_loewner_pair(n, n3, g)
    while True:
        r = float(g.uniform(0.0, 2.0))
        p = float(g.uniform(0.0, 4.0))
        q = float(g.uniform(1.0, 4.0))
        if (1 + 2 * r) * q >= p + 2 * r:
            break
    return (a, b), (r, p, q)


def _draw_young_commuting(trial, stream, n, n3, mode, params):
    a, b = gen_commuting_psd_pair(n, n3, stream)
    p = params.get("p", _grid([1.5, 2.0, 4.0], trial))
    return (a, b), (p, p / (p - 1.0))


def _draw_young_witness(trial, stream, n, n3, mode, params):
    g = stream.generator()
    a = gen_random((n, n, n3), g)
    b = gen_random((n, n, n3), g)
    p = params.get("p", _grid([1.5, 2.0, 3.0], trial))
    return (a, b), (p, p / (p - 1.0))


def _complex_norm(variant) -> _Stacked:
    def draw(trial, stream, n, n3, mode, params):
        g = stream.generator()
        a = gen_t_psd(n, n3, g) if variant in ("b", "c") else gen_symmetric(n, n3, g)
        b = gen_t_psd(n, n3, g) if variant == "c" else gen_symmetric(n, n3, g)
        return (a, b), ()

    def certify(stacks, columns, tol, mode):
        return ineq._complex_norm_bounds(*stacks, variant, tol, mode)

    return _Stacked(draw, certify)


def _draw_am_gm(trial, stream, n, n3, mode, params):
    g = stream.generator()
    if mode == "literal" and trial == 0:
        # scalar counterexample family: a=2, x=1, b=1 gives 2 > 1.5
        return (2.0 * identity(1, 1), identity(1, 1), identity(1, 1)), ()
    return tuple(gen_random((n, n, n3), g) for _ in range(3)), ()


def _draw_heinz_family(trial, stream, n, n3, mode, params):
    g = stream.generator()
    a = gen_t_psd(n, n3, g)
    b = gen_t_psd(n, n3, g)
    x = gen_random((n, n, n3), g)
    r = params.get("r", _grid([0.5, 0.75, 1.0, 1.25, 1.5], trial))
    t = params.get("t", _grid([-1.0, 0.0, 1.0, 2.0], trial // 5))
    return (a, x, b), (r, t)


def _draw_holder(trial, stream, n, n3, mode, params):
    g = stream.generator()
    a = gen_t_psd(n, n3, g)
    b = gen_t_psd(n, n3, g)
    x = gen_random((n, n, n3), g)
    r = params.get("r", _grid([0.5, 1.0, 2.0], trial))
    p = params.get("p", _grid([1.25, 2.0, 5.0], trial // 3))
    return (a, x, b), (r, p, p / (p - 1.0))


def _draw_holder_pairs(trial, stream, n, n3, mode, params):
    g = stream.generator()
    tensors = tuple(gen_random((n, n, n3), g) for _ in range(4))
    p = params.get("p", _grid([1.25, 2.0, 5.0], trial))
    return tensors, (p, p / (p - 1.0))


def _draw_holder_corollary(trial, stream, n, n3, mode, params):
    g = stream.generator()
    a = gen_random((n, n, n3), g)
    b = gen_random((n, n, n3), g)
    r = params.get("r", _grid([0.5, 1.0, 2.0], trial))
    p = params.get("p", _grid([1.25, 2.0, 5.0], trial // 3))
    return (a, b), (r, p, p / (p - 1.0))


def _draw_minkowski(trial, stream, n, n3, mode, params):
    g = stream.generator()
    tensors = tuple(gen_random((n, n, n3), g) for _ in range(4))
    return tensors, (params.get("p", _grid([1.0, 1.5, 2.0, 3.0], trial)),)


def _draw_random(trial, stream, n, n3, mode, params):
    return (gen_random((n, n, n3), stream),), ()


def _certify_gershgorin(stacks, columns, tol, mode):
    """The containment and component-count certificates of each member;
    the spectra of the whole stack take one solver call, the discs and
    their components are found member by member."""
    (x,) = stacks
    out = []
    for i, spectrum in enumerate(_t_eigenvalues(x)):
        discs = loc.gershgorin_discs(x.member(i))
        gaps, _, scale = loc.gershgorin_gaps(discs, spectrum)
        contain = norm_certificate(
            "gershgorin", dims=x.shape, params={"claim": "containment"}, norm_kind="n/a",
            lhs=float(gaps.max()) / scale, rhs=0.0, tol=tol,
        )
        components = loc.gershgorin_component_count(discs, spectrum, tol)
        miscount = max(abs(c.eigenvalue_count - c.disc_count) for c in components)
        counting = norm_certificate(
            "gershgorin", dims=x.shape, params={"claim": "component-count"}, norm_kind="n/a",
            lhs=float(miscount), rhs=0.0, tol=tol,
        )
        out.append([contain, counting])
    return out


def _draw_bauer_fike(trial, stream, n, n3, mode, params):
    g = stream.generator()
    for _ in range(_CONJUGATOR_DRAWS):
        q = gen_random((n, n, n3), g)
        try:
            q_inv = t_inverse(q)
        except SingularTensorError:
            continue
        if spectral_norm(q) * spectral_norm(q_inv) <= _CONJUGATOR_MAX_COND:
            break
    else:
        raise HypothesisViolationError(
            f"bauer-fike: no invertible conjugator with condition <= "
            f"{_CONJUGATOR_MAX_COND:.0e} in {_CONJUGATOR_DRAWS} draws "
            f"(seed={stream.seed}, trial={trial})"
        )
    diag = np.zeros((n, n, n3))
    idx = np.arange(n)
    diag[idx, idx, :] = g.uniform(-1.0, 1.0, size=(n, n3))
    s = Tensor3(diag)
    a = t_product(t_product(q_inv, s), q)
    e = gen_random((n, n, n3), g)
    b = a + (0.3 * (1.0 + frobenius_norm(a)) / (1.0 + frobenius_norm(e))) * e
    return (a, b, q, s), ()


def _draw_symmetric_pair(trial, stream, n, n3, mode, params):
    g = stream.generator()
    return (gen_symmetric(n, n3, g), gen_symmetric(n, n3, g)), ()


def _certify_hoffman_wielandt(stacks, columns, tol, mode):
    """The optimal-pairing certificates of each member, then those of the
    sorted pairing, which reuses the optimal pairing's spectra."""
    a, b = stacks
    matched, spectra = loc._hoffman_wielandt(a, b, tol)
    out = []
    for (report, cert_sqrt, cert_stated), dist in zip(
        matched, loc._sorted_pairing_distances(a, b, spectra)
    ):
        sorted_certs = [
            norm_certificate(
                "hoffman-wielandt", dims=a.shape, params={"pairing": "sorted", "constant": const},
                norm_kind=FROBENIUS, lhs=dist, rhs=rhs, tol=tol,
            )
            for const, rhs in (("sqrt-n3", report.bound_sqrt), ("n3", report.bound_stated))
        ]
        out.append([cert_sqrt, cert_stated, *sorted_certs])
    return out


_REGISTRY = {
    "loewner-heinz": _Stacked(_draw_loewner_heinz, _stacked(ineq._loewner_heinz)),
    "hansen-power": _Stacked(_draw_hansen_power, _certify_hansen_power),
    "furuta": _Stacked(_draw_furuta, _stacked(ineq._furuta)),
    "young-commuting": _Stacked(_draw_young_commuting, _stacked(ineq._young_commuting)),
    "young-witness": _Stacked(_draw_young_witness, _stacked(ineq._young_witness_certificates)),
    "complex-norm-a": _complex_norm("a"),
    "complex-norm-b": _complex_norm("b"),
    "complex-norm-c": _complex_norm("c"),
    "am-gm": _Stacked(
        _draw_am_gm, lambda stacks, columns, tol, mode: ineq._am_gm(*stacks, tol, mode)
    ),
    "heinz-family": _Stacked(_draw_heinz_family, _stacked(ineq._heinz_family)),
    "holder": _Stacked(_draw_holder, _stacked(ineq._holder)),
    "holder-pairs": _Stacked(_draw_holder_pairs, _stacked(ineq._holder_pairs)),
    "holder-corollary": _Stacked(_draw_holder_corollary, _stacked(ineq._holder_corollary)),
    "minkowski": _Stacked(_draw_minkowski, _stacked(ineq._minkowski)),
    "schur": _Stacked(_draw_random, _stacked(loc._schur)),
    "gershgorin": _Stacked(_draw_random, _certify_gershgorin),
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
    certificate list is a pure function of the arguments.
    """
    if theorem_id not in _REGISTRY:
        raise UnknownTheoremError(
            f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}"
        )
    theorem = _REGISTRY[theorem_id]
    params = dict(params or {})
    certificates = []
    window = _window_size(n, n3)
    for start in range(0, trials, window):
        members = range(start, min(start + window, trials))
        for outcome in _run_stacked(theorem, members, seed, n, n3, tol, mode, params):
            certificates.extend(outcome)
    return _campaign_result(theorem_id, n, n3, trials, seed, mode, certificates)


def _run_trial(theorem: _Stacked, trial, seed, n, n3, tol, mode, params) -> list:
    """One trial alone, its certificates stamped."""
    return _stamp(theorem(trial, RngStream(seed, trial), n, n3, tol, mode, params), seed, trial)


def _run_stacked(theorem: _Stacked, trials, seed, n, n3, tol, mode, params) -> list:
    """Each trial's stamped certificates from one stacked pass over a window.

    Each trial still draws its instance from its own stream; instances of
    one shape are stacked and certified in one call.  If the pass raises,
    the trials run again one by one, so the lowest failing trial raises the
    error it raises in a serial loop.
    """
    try:
        draws = [theorem.draw(t, RngStream(seed, t), n, n3, mode, params) for t in trials]
        groups: dict[tuple, list[int]] = {}
        for k, (tensors, _) in enumerate(draws):
            groups.setdefault(tuple(x.shape for x in tensors), []).append(k)
        outcomes = [None] * len(draws)
        for ks in groups.values():
            stacks = [_Stack.of(*column) for column in zip(*(draws[k][0] for k in ks))]
            columns = [list(column) for column in zip(*(draws[k][1] for k in ks))]
            for k, certificates in zip(ks, theorem.certify(stacks, columns, tol, mode)):
                outcomes[k] = _stamp(certificates, seed, trials[k])
        return outcomes
    except Exception:  # find and raise the serial error below
        return [_run_trial(theorem, t, seed, n, n3, tol, mode, params) for t in trials]


def _stamp(certificates, seed, trial) -> list:
    """The certificates stamped with their provenance: ``seed`` set and
    ``"trial"`` put first in ``params``.  This is the only place a
    certificate gets its seed and trial."""
    return [replace(c, seed=int(seed), params={"trial": trial, **c.params}) for c in certificates]


def _window_size(n: int, n3: int) -> int:
    """Trials run at once: at most ``_WINDOW_TRIALS``, and at most
    ``_WINDOW_ENTRIES`` tensor entries (``n * n * n3`` a trial) across the
    window, which bounds the memory the window's stacks hold at once."""
    return max(1, min(_WINDOW_TRIALS, _WINDOW_ENTRIES // max(1, n * n * n3)))


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
