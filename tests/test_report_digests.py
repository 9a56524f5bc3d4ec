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
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from ttensor import THEOREM_IDS, cli, run_campaign

DIGEST_FILE = Path(__file__).resolve().parent / "report_digests.json"
SEED = 0
# (n, n3, trials): short tubes of both middle-slice parities with two
# trials, and long tubes of both parities with one
SHAPES = ((4, 4, 2), (3, 5, 2), (3, 127, 1), (3, 128, 1))
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


def _platform() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def _recorded() -> dict:
    with open(DIGEST_FILE) as fh:
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


def record() -> None:
    digests = {config_key(c, s): report_digest(c, s) for c, s in GRID}
    doc = {"platform": _platform(), "digests": digests}
    DIGEST_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}", file=sys.stderr)


if __name__ == "__main__":
    record()
