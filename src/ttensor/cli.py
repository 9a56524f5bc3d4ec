"""Command-line surface: tensor file I/O, algebra, spectra, and campaigns.

Tensor files are JSON documents ``{"dims": [n1, n2, n3], "data": [...]}`` with
the flat array in slice-major / row-major order (complex tensors use
``data_re`` and ``data_im``); unknown keys are rejected.  Exit codes: 0 all
certificates hold, 1 at least one violation, 2 usage or file error,
3 numerical failure or hypothesis violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .campaigns import THEOREM_IDS, run_campaign
from .certificates import DEFAULT_TOL
from .core import ComplexTensor3, Tensor3, frobenius_norm
from .errors import ShapeMismatchError, TtensorError, UnknownTheoremError, _require_tol
from .localization import gershgorin_discs, gershgorin_gaps
from .algebra import t_product
from .spectral import t_eigenvalues

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class FileFormatError(TtensorError):
    pass


def read_tensor(path: str):
    """Read a tensor file; returns Tensor3 or ComplexTensor3."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    keys = set(doc)
    if keys == {"dims", "data"}:
        complex_input = False
    elif keys == {"dims", "data_re", "data_im"}:
        complex_input = True
    else:
        raise FileFormatError(
            f"{path}: expected keys dims+data or dims+data_re+data_im, got {sorted(keys)}"
        )
    dims = doc["dims"]
    if not (
        isinstance(dims, list) and len(dims) == 3
        and all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise FileFormatError(f"{path}: dims must be three positive integers")
    n1, n2, n3 = dims
    for key in ("data_re", "data_im") if complex_input else ("data",):
        values = doc[key]
        if not (
            isinstance(values, list) and len(values) == n1 * n2 * n3
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        ):
            raise FileFormatError(f"{path}: {key} must be a flat array of {n1 * n2 * n3} numbers")
    try:
        if complex_input:
            re, im = (np.asarray(doc[key], dtype=float) for key in ("data_re", "data_im"))
            return ComplexTensor3.from_flat(re + 1j * im, n1, n2, n3)
        return Tensor3.from_flat(doc["data"], n1, n2, n3)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_tensor(path: str, tensor) -> None:
    """Write a tensor file; a path that cannot be written raises
    :class:`FileFormatError`."""
    dims = [tensor.n1, tensor.n2, tensor.n3]
    flat = tensor.to_flat()
    if isinstance(tensor, ComplexTensor3):
        doc = {
            "dims": dims,
            "data_re": [float(v) for v in flat.real],
            "data_im": [float(v) for v in flat.imag],
        }
    else:
        doc = {"dims": dims, "data": [float(v) for v in flat]}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def _sorted_spectrum(spectrum):
    """Display order: descending magnitude, then descending real part."""
    vals = spectrum.values
    order = np.lexsort((spectrum.slice_index, -vals.imag, -vals.real, -np.abs(vals)))
    return [(complex(vals[i]), int(spectrum.slice_index[i])) for i in order]


def cmd_tprod(args) -> int:
    a = read_tensor(args.file_a)
    b = read_tensor(args.file_b)
    if isinstance(a, ComplexTensor3) or isinstance(b, ComplexTensor3):
        raise FileFormatError("tprod expects real tensors")
    c = t_product(a, b)
    write_tensor(args.output, c)
    print(f"dims: {c.n1} {c.n2} {c.n3}")
    print(f"frobenius_norm: {frobenius_norm(c)!r}")
    return EXIT_OK


def cmd_eig(args) -> int:
    a = read_tensor(args.file)
    spectrum = t_eigenvalues(a)
    entries = _sorted_spectrum(spectrum)
    if args.format == "json":
        doc = {
            "eigenvalues": [
                {"re": z.real, "im": z.imag, "slice": k} for z, k in entries
            ]
        }
        print(json.dumps(doc))
    else:
        print(f"{len(entries)} t-eigenvalues (slice indices 0-based):")
        for z, k in entries:
            print(f"  {z.real!r} {z.imag:+.17g}j  slice {k}")
    return EXIT_OK


def cmd_check(args) -> int:
    result = run_campaign(
        args.theorem,
        n=args.n,
        n3=args.n3,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        mode=args.mode,
    )
    if args.json:
        for cert in result.certificates:
            print(json.dumps(cert.to_json_dict()))
        print(json.dumps({"summary": result.summary}))
    else:
        for cert in result.certificates:
            status = "ok " if cert.holds else "VIOLATED"
            claim = cert.params.get("claim", cert.params.get("part", ""))
            extra = f" {claim}" if claim else ""
            print(
                f"trial {cert.params.get('trial', -1):>4} {status} {cert.theorem_id}"
                f"{extra} [{cert.norm_kind}] margin {cert.margin:.6e}"
            )
        s = result.summary
        print(
            f"{s['theorem_id']}: {s['certificates']} certificates over {s['trials']} trials, "
            f"{s['violations']} violations, worst margin {s['worst_margin']:.6e}"
        )
    return EXIT_OK if result.violations == 0 else EXIT_VIOLATION


def cmd_gershgorin(args) -> int:
    _require_tol(args.tol)
    a = read_tensor(args.file)
    discs = gershgorin_discs(a)
    entries = _sorted_spectrum(t_eigenvalues(a))
    gaps, _, scale = gershgorin_gaps(discs, [z for z, _ in entries])
    rows = [
        {
            "re": z.real, "im": z.imag, "slice": k,
            "contained": bool(gap <= args.tol * scale), "boundary_distance": float(gap),
        }
        for (z, k), gap in zip(entries, gaps)
    ]
    all_contained = all(row["contained"] for row in rows)
    if args.json:
        doc = {
            "discs": [d.to_json_dict() for d in discs],
            "eigenvalues": rows,
            "all_contained": bool(all_contained),
        }
        print(json.dumps(doc))
    else:
        print(f"{len(discs)} discs:")
        for d in discs:
            print(f"  center ({d.center.real!r}, {d.center.imag!r}) radius {d.radius!r}")
        for row in rows:
            mark = "in " if row["contained"] else "OUT"
            print(
                f"  {mark} {row['re']!r} {row['im']:+.17g}j  slice {row['slice']}"
                f"  boundary distance {row['boundary_distance']:.6e}"
            )
        print("all contained" if all_contained else "containment VIOLATED")
    return EXIT_OK if all_contained else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttensor",
        description="t-product tensor algebra and inequality verification lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tprod = sub.add_parser("tprod", help="t-product of two tensor files")
    p_tprod.add_argument("file_a")
    p_tprod.add_argument("file_b")
    p_tprod.add_argument("-o", "--output", required=True, help="output tensor file")
    p_tprod.set_defaults(fn=cmd_tprod)

    p_eig = sub.add_parser("eig", help="t-eigenvalues of a square tensor")
    p_eig.add_argument("file")
    p_eig.add_argument("--format", choices=("text", "json"), default="text")
    p_eig.set_defaults(fn=cmd_eig)

    p_check = sub.add_parser(
        "check",
        help="run a seeded verification campaign",
        description="Theorem registry: " + ", ".join(THEOREM_IDS),
    )
    p_check.add_argument("theorem", metavar="theorem-id")
    p_check.add_argument("--n", type=int, default=3, help="square slice size (default 3)")
    p_check.add_argument("--n3", type=int, default=3, help="tube length (default 3)")
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_check.add_argument("--mode", choices=("corrected", "literal"), default="corrected")
    p_check.add_argument("--json", action="store_true", help="one JSON line per certificate")
    p_check.set_defaults(fn=cmd_check)

    p_g = sub.add_parser("gershgorin", help="disc localization of t-eigenvalues")
    p_g.add_argument("file")
    p_g.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_g.add_argument("--json", action="store_true")
    p_g.set_defaults(fn=cmd_gershgorin)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileFormatError, UnknownTheoremError, ShapeMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TtensorError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
