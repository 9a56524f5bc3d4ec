"""Workload schedules, input generation and output checks.

A workload is a list of passes; each pass is a list of :class:`Call` objects
that the runner issues one at a time (closed loop, one client).  Every call
resolves its ttensor function through the module namespace at call time, so
the tracer in ``spans.py`` sees it once it has rebound that name.

Campaign outputs are checked against reference counts and margins recorded
from the program (``reference/*.json``, written by ``record_reference.py``).
The campaign seed of a pass is drawn from a fixed pool, so every seed the
benchmark can use has a recorded reference; ``--seed`` picks the starting
point in the pool.  ``tube-algebra`` outputs are checked against an
independent numpy oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Margin agreement with the reference, per certificate:
#   |margin - margin_ref| <= MARGIN_RTOL * |margin_ref| + MARGIN_ATOL_FRAC * tol_ref
# where tol_ref is the certificate's own effective tolerance (1e-8 * (1 + |rhs|)
# by default).  A refactor that only reorders floating-point sums (an rfft core,
# batched Jacobi) moves margins by roundoff: about 1e-15 relative for norm
# certificates, and about 1e-15 * ||R|| absolute for eigenvalue gaps near zero.
# Both sit many orders below these terms.  Anything that could flip a verdict
# has to move a margin by a sizeable share of tol_ref, and a change to the
# mathematics moves margins at order one; both are caught.  Bytes are never
# compared.
MARGIN_RTOL = 1e-6
MARGIN_ATOL_FRAC = 1e-2

# tube-algebra: relative Frobenius error against the numpy FFT oracle.  The
# dense O(n3^2) DFT in the program has roundoff growing like n3 * eps, about
# 1.4e-13 measured at n3 = 1024 for t_product; 1e-10 leaves ~700x headroom
# while any indexing, sign or normalization error shows at order one.  The
# inverse error also scales with the worst slice condition number kappa, so
# its tolerance is TUBE_RTOL * max(1, kappa) (measured error/kappa <= 3e-15).
TUBE_RTOL = 1e-10

SMALL_SHAPE = (4, 4)
SMALL_TRIALS = 4
LONG_N = 3
LONG_TUBES = (128, 127)  # even length has a self-conjugate middle slice, odd not
LONG_TRIALS = 1
POOL_SIZE = {"registry-small": 32, "registry-long-tube": 16}

# (theorem id, mode, params): the literal and exploratory configurations whose
# violations are expected outputs, recorded in the reference like any count
COUNTEREXAMPLES = (
    ("am-gm", "literal", None),
    ("complex-norm-a", "literal", None),
    ("complex-norm-b", "literal", None),
    ("hansen-power", "literal", None),
    ("loewner-heinz", "corrected", {"r": 2.0}),
)

TUBE_SHAPES = ((4, 256), (8, 256), (8, 512), (16, 128))
TUBE_BIG = (8, 1024)
TUBE_ORTHO = (8, 256)


class CheckError(Exception):
    """An output disagrees with its reference or oracle."""


@dataclass(frozen=True)
class Call:
    label: str
    config: str  # the label without what varies between passes (seed, tube parity)
    invoke: Callable[[], Any]
    check: Callable[[Any], None]
    trials: int


@dataclass(frozen=True)
class Workload:
    name: str
    warmup_passes: int
    trace_passes: int
    build: Callable  # (tt, seed) -> state; timed as set-up
    prepare: Callable  # (state) -> None; oracles and references, untimed
    calls: Callable  # (state, pass_index) -> list[Call]


# ---------------------------------------------------------------------------
# campaign workloads
# ---------------------------------------------------------------------------

def campaign_key(theorem_id, mode, params, n, n3, trials, seed) -> str:
    p = json.dumps(params, sort_keys=True) if params else "-"
    return f"{theorem_id}|{mode}|{p}|n={n}|n3={n3}|trials={trials}|seed={seed}"


def campaign_digest(result) -> dict:
    """The parts of a campaign result that the check compares."""
    return {
        "certificates": int(result.summary["certificates"]),
        "violations": int(result.summary["violations"]),
        "margins": [float(c.margin) for c in result.certificates],
        "tols": [float(c.tol) for c in result.certificates],
    }


def check_campaign(ref: dict, result) -> None:
    """Raise :class:`CheckError` unless ``result`` matches the reference entry."""
    got = campaign_digest(result)
    if len(result.certificates) != got["certificates"]:
        raise CheckError(
            f"summary says {got['certificates']} certificates, list has {len(result.certificates)}"
        )
    violations = sum(1 for c in result.certificates if not c.holds)
    if violations != got["violations"]:
        raise CheckError(f"summary says {got['violations']} violations, list has {violations}")
    for field in ("certificates", "violations"):
        if got[field] != ref[field]:
            raise CheckError(f"{field}: got {got[field]}, reference {ref[field]}")
    for i, (m, m_ref, t_ref) in enumerate(zip(got["margins"], ref["margins"], ref["tols"])):
        allowed = MARGIN_RTOL * abs(m_ref) + MARGIN_ATOL_FRAC * t_ref
        if not abs(m - m_ref) <= allowed:
            raise CheckError(
                f"certificate {i}: margin {m!r} vs reference {m_ref!r} (allowed {allowed:.3e})"
            )


def small_pass_seed(state, p) -> int:
    return (state["start"] + p) % POOL_SIZE["registry-small"]


def long_pass_params(state, p) -> tuple[int, int]:
    """(n3, campaign seed) of long-tube pass ``p``: parities alternate."""
    return LONG_TUBES[p % 2], (state["start"] + p // 2) % POOL_SIZE["registry-long-tube"]


def _campaign_call(state, tid, mode, params, n, n3, trials, seed) -> Call:
    campaigns = state["tt"].campaigns
    key = campaign_key(tid, mode, params, n, n3, trials, seed)

    def invoke():
        return campaigns.run_campaign(
            tid, n=n, n3=n3, trials=trials, seed=seed, mode=mode, params=params
        )

    def check(result):
        ref = state["reference"].get(key)
        if ref is None:
            raise CheckError(f"no reference entry for {key}")
        check_campaign(ref, result)

    config = campaign_key(tid, mode, params, n, "*", trials, "*")
    return Call(key, config, invoke, check, trials)


def _registry_build(workload_name):
    def build(tt, seed):
        return {"tt": tt, "start": (seed * 11) % POOL_SIZE[workload_name], "reference": {}}
    return build


def _registry_prepare(workload_name):
    def prepare(state):
        state["reference"] = load_reference(workload_name)
    return prepare


def load_reference(workload_name) -> dict:
    with open(REFERENCE_DIR / f"{workload_name}.json") as fh:
        return json.load(fh)


def small_calls(state, p):
    """Every theorem in corrected mode plus the counterexample configurations."""
    seed = small_pass_seed(state, p)
    n, n3 = SMALL_SHAPE
    configs = [(tid, "corrected", None) for tid in state["tt"].THEOREM_IDS]
    return [
        _campaign_call(state, tid, mode, params, n, n3, SMALL_TRIALS, seed)
        for tid, mode, params in configs + list(COUNTEREXAMPLES)
    ]


def long_calls(state, p):
    n3, seed = long_pass_params(state, p)
    return [
        _campaign_call(state, tid, "corrected", None, LONG_N, n3, LONG_TRIALS, seed)
        for tid in state["tt"].THEOREM_IDS
    ]


# ---------------------------------------------------------------------------
# tube-algebra
# ---------------------------------------------------------------------------

def _rel_err(x, ref) -> float:
    import numpy as np

    den = float(np.linalg.norm(ref))
    return float(np.linalg.norm(x - ref)) / (den if den > 0 else 1.0)


def oracle_t_product(a, b):
    """Per-slice FFT matmul with numpy's FFT: independent of ttensor.fourier."""
    import numpy as np

    fc = np.einsum("ijk,jlk->ilk", np.fft.fft(a, axis=2), np.fft.fft(b, axis=2))
    return np.fft.ifft(fc, axis=2).real


def oracle_inverse(a):
    """(inverse, worst slice condition number) through numpy FFT and SVD."""
    import numpy as np

    stack = np.moveaxis(np.fft.fft(a, axis=2), 2, 0)
    sv = np.linalg.svd(stack, compute_uv=False)
    cond = float((sv[:, 0] / sv[:, -1]).max())
    inv = np.fft.ifft(np.moveaxis(np.linalg.inv(stack), 0, 2), axis=2).real
    return inv, cond


def oracle_spectral_norm(a) -> float:
    import numpy as np

    stack = np.moveaxis(np.fft.fft(a, axis=2), 2, 0)
    return float(np.linalg.svd(stack, compute_uv=False)[:, 0].max())


def check_tensor(ref, tol):
    def check(result):
        err = _rel_err(result.data, ref)
        if not err <= tol:
            raise CheckError(f"relative error {err:.3e} exceeds {tol:.1e}")
    return check


def check_scalar(ref, tol):
    def check(result):
        err = abs(float(result) - ref) / max(abs(ref), 1.0)
        if not err <= tol:
            raise CheckError(f"relative error {err:.3e} exceeds {tol:.1e}")
    return check


def check_truthy(result):
    if not result:
        raise CheckError(f"predicate failed: {result!r}")


def _tube_build(tt, seed):
    import numpy as np

    g = np.random.default_rng(seed)
    inputs = {}
    for n, n3 in TUBE_SHAPES + (TUBE_BIG,):
        inputs[(n, n3)] = (
            tt.Tensor3(g.uniform(-1.0, 1.0, (n, n, n3))),
            tt.Tensor3(g.uniform(-1.0, 1.0, (n, n, n3))),
        )
    n, n3 = TUBE_ORTHO
    ortho = tt.spectral.gen_orthogonal(n, n3, tt.RngStream(seed, 1))
    return {"tt": tt, "inputs": inputs, "ortho": ortho, "checks": {}}


def _tube_prepare(state):
    import numpy as np

    checks = state["checks"]
    for shape, (a, b) in state["inputs"].items():
        checks[("t_product", shape)] = check_tensor(oracle_t_product(a.data, b.data), TUBE_RTOL)
        if shape == TUBE_BIG:
            continue
        inv, cond = oracle_inverse(a.data)
        checks[("t_inverse", shape)] = check_tensor(inv, TUBE_RTOL * max(1.0, cond))
        checks[("round_trip", shape)] = check_tensor(a.data, TUBE_RTOL)
        checks[("spectral_norm", shape)] = check_scalar(oracle_spectral_norm(a.data), TUBE_RTOL)
    # the orthogonality verdict is only meaningful if the input is orthogonal:
    # confirm that independently (every FFT slice unitary)
    q = np.moveaxis(np.fft.fft(state["ortho"].data, axis=2), 2, 0)
    eye = np.eye(q.shape[1])
    if _rel_err(q.conj().transpose(0, 2, 1) @ q, np.broadcast_to(eye, q.shape)) > TUBE_RTOL:
        raise CheckError("gen_orthogonal input is not orthogonal by the numpy oracle")
    checks[("is_orthogonal", TUBE_ORTHO)] = check_truthy


def tube_calls(state, p):
    tt = state["tt"]
    algebra, fourier, core = tt.algebra, tt.fourier, tt.core

    def call(op, shape, invoke):
        # the oracle is built after set-up, so the check is looked up lazily
        key = (op, shape)
        label = f"{op} {shape[0]}x{shape[0]}x{shape[1]}"
        return Call(label, label, invoke,
                    lambda result: state["checks"][key](result), 1)

    out = []
    for shape in TUBE_SHAPES:
        a, b = state["inputs"][shape]
        out += [
            call("t_product", shape, lambda a=a, b=b: algebra.t_product(a, b)),
            call("t_inverse", shape, lambda a=a: algebra.t_inverse(a)),
            call("round_trip", shape, lambda a=a: fourier.from_fourier(fourier.to_fourier(a))),
            call("spectral_norm", shape, lambda a=a: core.spectral_norm(a)),
        ]
    a, b = state["inputs"][TUBE_BIG]
    out.append(call("t_product", TUBE_BIG, lambda: algebra.t_product(a, b)))
    q = state["ortho"]
    out.append(call("is_orthogonal", TUBE_ORTHO, lambda: algebra.is_orthogonal(q)))
    return out


WORKLOADS = {
    "registry-small": Workload(
        "registry-small", warmup_passes=1, trace_passes=4,
        build=_registry_build("registry-small"),
        prepare=_registry_prepare("registry-small"), calls=small_calls,
    ),
    "registry-long-tube": Workload(
        "registry-long-tube", warmup_passes=2, trace_passes=4,
        build=_registry_build("registry-long-tube"),
        prepare=_registry_prepare("registry-long-tube"), calls=long_calls,
    ),
    "tube-algebra": Workload(
        "tube-algebra", warmup_passes=1, trace_passes=4,
        build=_tube_build, prepare=_tube_prepare, calls=tube_calls,
    ),
}
