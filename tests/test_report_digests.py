"""Report-digest tripwire: campaign reports keep their exact bytes.

Every corrected theorem plus the literal and exploratory counterexample
configurations run at four shapes, seed 0, and the sha256 of each report (the
bytes ``ttensor check --json`` prints) must equal the digest recorded in
``report_digests.json``.  A change meant to keep roundoff as it is (a faster
kernel, a new layout) must leave every digest alone; a change that moves
roundoff on purpose re-records the file and says why:

    PYTHONPATH=src python tests/test_report_digests.py

Float bytes depend on the numpy build and the machine, so the file records
both and the check runs only where they match.

The direct outputs of the library's tensor functions (``t_product``,
``t_inverse``, ``t_power`` at several exponents, ``t_abs``,
``gen_orthogonal``, ``young_witness``) are pinned the same way, outside any
campaign, in ``direct_digests.json``; record that file alone with

    PYTHONPATH=src python tests/test_report_digests.py direct
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from ttensor import (
    THEOREM_IDS,
    RngStream,
    cli,
    gen_orthogonal,
    gen_random,
    gen_t_psd,
    identity,
    run_campaign,
    spectral_norm,
    t_abs,
    t_inverse,
    t_power,
    t_product,
    young_witness,
)

DIGEST_FILE = Path(__file__).resolve().parent / "report_digests.json"
DIRECT_FILE = Path(__file__).resolve().parent / "direct_digests.json"
SEED = 0
# (n, n3, trials): short tubes of both middle-slice parities with two
# trials, long tubes of both parities with one, 20 trials at (4, 4), which
# cover every (r, t) pair of heinz-family and every (r, p) pair of holder,
# and one full long-tube window of three trials with an odd middle slice
SHAPES = ((4, 4, 2), (3, 5, 2), (3, 127, 1), (3, 128, 1), (4, 4, 20), (3, 127, 3))
COUNTEREXAMPLES = (
    ("am-gm", "literal", None),
    ("complex-norm-a", "literal", None),
    ("complex-norm-b", "literal", None),
    ("hansen-power", "literal", None),
    ("loewner-heinz", "corrected", {"r": 2.0}),
)
CONFIGS = [(tid, "corrected", None) for tid in THEOREM_IDS] + list(COUNTEREXAMPLES)
GRID = [(config, shape) for shape in SHAPES for config in CONFIGS]


def config_key(config, shape) -> str:
    theorem_id, mode, params = config
    n, n3, trials = shape
    p = json.dumps(params, sort_keys=True) if params else "-"
    return f"{theorem_id}|{mode}|{p}|n={n}|n3={n3}|trials={trials}|seed={SEED}"


def report_bytes(result) -> bytes:
    """The report as ``ttensor check --json`` prints it."""
    lines = [json.dumps(c.to_json_dict()) for c in result.certificates]
    lines.append(json.dumps({"summary": result.summary}))
    return ("\n".join(lines) + "\n").encode()


def report_digest(config, shape) -> str:
    theorem_id, mode, params = config
    n, n3, trials = shape
    result = run_campaign(
        theorem_id, n=n, n3=n3, trials=trials, seed=SEED, mode=mode, params=params
    )
    return hashlib.sha256(report_bytes(result)).hexdigest()


# (n, n3) of the direct outputs: both middle-slice parities, short and long
# tubes, and one shape whose transforms are large enough to run on two threads
DIRECT_SHAPES = ((4, 4), (3, 5), (3, 127), (3, 128), (8, 256))
# exponents whose numpy power takes the reciprocal, the zero, the
# square-root, the identity, the general and the square paths
DIRECT_POWERS = (-1.0, 0.0, 0.5, 1.0, 1.25, 2.0)


def _direct_cases(n: int, n3: int) -> dict:
    """Name -> call of each direct output at ``(n, n3)``."""
    a = gen_random((n, n, n3), RngStream(SEED, 1))
    b = gen_random((n, n, n3), RngStream(SEED, 2))
    psd = gen_t_psd(n, n3, RngStream(SEED, 3))
    # every Fourier slice of a + 2 ||a||_2 I has condition at most 3
    well_conditioned = a + 2.0 * spectral_norm(a) * identity(n, n3)
    return {
        "t_product": lambda: t_product(a, b),
        "t_inverse": lambda: t_inverse(well_conditioned),
        **{f"t_power r={r}": lambda r=r: t_power(psd, r) for r in DIRECT_POWERS},
        "t_abs": lambda: t_abs(a),
        "gen_orthogonal": lambda: gen_orthogonal(n, n3, RngStream(SEED, 4)),
        "young_witness": lambda: young_witness(a, b, 3.0, 1.5),
    }


DIRECT_GRID = [(name, shape) for shape in DIRECT_SHAPES for name in _direct_cases(1, 1)]


def direct_key(name: str, shape) -> str:
    n, n3 = shape
    return f"{name}|n={n}|n3={n3}|seed={SEED}"


def direct_digest(name: str, shape) -> str:
    out = _direct_cases(*shape)[name]()
    if isinstance(out, tuple):  # young_witness: the witness and its verdict
        u, verdict = out
        fields = [verdict.holds, verdict.min_gap_eigenvalue, verdict.tolerance_used]
        data = u.data.tobytes() + json.dumps(fields).encode()
    else:
        data = out.data.tobytes()
    return hashlib.sha256(data).hexdigest()


def _platform() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def _recorded(path: Path = DIGEST_FILE) -> dict:
    with open(path) as fh:
        recorded = json.load(fh)
    if recorded["platform"] != _platform():
        pytest.skip(f"digests recorded on {recorded['platform']}, running on {_platform()}")
    return recorded["digests"]


@pytest.mark.parametrize(
    "config,shape", GRID, ids=[config_key(c, s).replace("|", " ") for c, s in GRID]
)
def test_report_digest_unchanged(config, shape):
    assert report_digest(config, shape) == _recorded()[config_key(config, shape)]


def test_digest_grid_is_the_recorded_grid():
    assert sorted(_recorded()) == sorted(config_key(c, s) for c, s in GRID)


def test_report_bytes_are_what_the_cli_prints(capsysbinary):
    argv = ["check", "holder", "--n", "3", "--n3", "5", "--trials", "2",
            "--seed", str(SEED), "--json"]
    cli.main(argv)
    result = run_campaign("holder", n=3, n3=5, trials=2, seed=SEED)
    assert capsysbinary.readouterr().out == report_bytes(result)


@pytest.mark.parametrize(
    "name,shape", DIRECT_GRID, ids=[direct_key(n, s).replace("|", " ") for n, s in DIRECT_GRID]
)
def test_direct_digest_unchanged(name, shape):
    assert direct_digest(name, shape) == _recorded(DIRECT_FILE)[direct_key(name, shape)]


def test_direct_grid_is_the_recorded_grid():
    assert sorted(_recorded(DIRECT_FILE)) == sorted(direct_key(n, s) for n, s in DIRECT_GRID)


def record(path: Path, digests: dict) -> None:
    doc = {"platform": _platform(), "digests": digests}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] != ["direct"]:
        record(DIGEST_FILE, {config_key(c, s): report_digest(c, s) for c, s in GRID})
    record(DIRECT_FILE, {direct_key(n, s): direct_digest(n, s) for n, s in DIRECT_GRID})
