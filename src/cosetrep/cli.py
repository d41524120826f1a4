"""Command line interface.

Commands
--------
coeffs    print the rational coefficient table
realize   infinitesimal action of a generator at a coset point, with oracle
factor    split a finite transformation into coset representative x rotation
gauge     flow a section of attached vectors along a node-wise generator field
verify    run a self-check suite and report every measured property

Exit codes: 0 success, 1 a mathematical check or domain guard failed,
2 usage or input-document error.  Reports are plain JSON (or CSV where
offered) with sorted keys and no timestamps, so identical inputs produce
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .coeffs import l_coeffs
from .errors import ClosureError, DimensionError, DomainError
from .induced import (
    _compensator_action,
    factor_boost_rotation,
    flow_section,
    group_from_spec,
    reconstruct,
    section_from_json_dict,
    section_to_json_dict,
    spinor_hrep,
    vector_hrep,
)
from .lie import (
    CosetPoint,
    algebra_from_json_dict,
    generator_coords,
    reject_non_numbers,
    so1m_algebra,
)
from .series import DEFAULT_ORDER, realize
from .verify import SUITES, fd_action_derivative, suite_algebra

__all__ = ["main"]


class _UsageError(Exception):
    """Bad flags or an unreadable/malformed input document (exit 2)."""


def _int_from(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_from(1, text)


def _non_negative_int(text: str) -> int:
    return _int_from(0, text)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise _UsageError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def _numeric(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float array; a missing or non-numeric field is a usage error."""
    try:
        reject_non_numbers([doc[key]], key)
        return np.asarray(doc[key], dtype=float)
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise _UsageError(f"document needs a numeric {key}: {exc}") from exc


def _integer(doc: dict, key: str, default: int | None) -> int | None:
    """doc[key], or default when the key is absent; a present value must be an integer."""
    value = doc.get(key, default)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise _UsageError(f"{key} must be an integer, got {value!r}")
    return value


def _element_from_doc(alg, doc) -> "object":
    """Generator from {"boost": [...], "rotations": [[i,k,theta]...]}."""
    try:
        h, f = generator_coords(alg.dim_f, doc.get("boost"), doc.get("rotations", ()))
    except (DomainError, DimensionError) as exc:
        raise _UsageError(str(exc)) from exc
    return alg.element(h=h, f=f)


def _matrix_from_doc(doc, m_flag: int | None) -> np.ndarray:
    """Finite transformation from {"matrix": ...} or {"m", "boost", "rotations"}."""
    if "matrix" in doc:
        g = _numeric(doc, "matrix")
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise _UsageError(f"matrix must be square, got shape {g.shape}")
        if m_flag is not None and g.shape[0] != m_flag + 1:
            raise _UsageError(f"matrix is {g.shape[0]}x{g.shape[0]} but --m {m_flag} was given")
        return g
    m = _integer(doc, "m", m_flag)
    if m is None:
        raise _UsageError("document needs either a matrix or an m with boost/rotations")
    if m_flag is not None and m != m_flag:
        raise _UsageError(f"document has m={m} but --m {m_flag} was given")
    try:
        return group_from_spec(m, doc.get("boost"), doc.get("rotations", ()))
    except (DomainError, DimensionError) as exc:
        raise _UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_coeffs(args) -> int:
    table = l_coeffs(args.order)
    if args.format == "csv":
        lines = ["n,numerator,denominator,value"]
        for n in range(1, args.order + 1):
            c: Fraction = table.l(n)
            lines.append(f"{n},{c.numerator},{c.denominator},{float(c)!r}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    rows = [
        {
            "n": n,
            "numerator": table.l(n).numerator,
            "denominator": table.l(n).denominator,
            "value": float(table.l(n)),
        }
        for n in range(1, args.order + 1)
    ]
    _emit(_json_text({"order": args.order, "coefficients": rows}), args.out)
    return 0


def _cmd_realize(args) -> int:
    doc = _load_json(args.infile)
    sigma = _numeric(doc, "sigma")
    m = _integer(doc, "m", sigma.shape[0] if sigma.ndim == 1 else 0)
    if args.m is not None and args.m != m:
        raise _UsageError(f"document has m={m} but --m {args.m} was given")
    if sigma.shape != (m,):
        raise _UsageError(f"sigma must have {m} entries, got shape {sigma.shape}")
    alg = so1m_algebra(m)
    xi_doc = doc.get("xi")
    if not isinstance(xi_doc, dict):
        raise _UsageError('document needs "xi": {"boost": [...], "rotations": [...]}')
    xi = _element_from_doc(alg, xi_doc)
    point = CosetPoint(sigma)

    act = realize(alg, xi, point, order=args.order)
    fd_sigma, fd_comp = fd_action_derivative(alg, xi, point)
    diff = max(
        float(abs(act.dF - fd_sigma).max()) if act.dF.size else 0.0,
        float(abs(act.dI - fd_comp).max()) if act.dI.size else 0.0,
    )

    payload = {
        "m": m,
        "order": args.order,
        "sigma": sigma.tolist(),
        "d_sigma": {"series": act.dF.tolist(), "oracle": fd_sigma.tolist()},
        "d_compensator": {"series": act.dI.tolist(), "oracle": fd_comp.tolist()},
        "max_abs_diff": diff,
    }
    if "v" in doc:
        v = _numeric(doc, "v")
        hrep = (vector_hrep if args.rep == "vector" else spinor_hrep)(m)
        if v.shape != (hrep.d,):
            raise _UsageError(
                f"v must have {hrep.d} entries for the {args.rep} representation, got shape {v.shape}"
            )
        payload["d_v"] = _compensator_action(hrep, act.dI[None], v[None])[0].tolist()
        payload["rep"] = args.rep

    if args.format == "csv":
        lines = ["part,index,series,oracle"]
        for i, (s, o) in enumerate(zip(act.dF, fd_sigma)):
            lines.append(f"sigma,{i},{float(s)!r},{float(o)!r}")
        for i, (s, o) in enumerate(zip(act.dI, fd_comp)):
            lines.append(f"compensator,{i},{float(s)!r},{float(o)!r}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text(payload), args.out)
    return 0


def _cmd_factor(args) -> int:
    doc = _load_json(args.infile)
    g = _matrix_from_doc(doc, args.m)
    pair = factor_boost_rotation(g)
    err = float(abs(reconstruct(pair) - g).max())
    payload = {
        "m": pair.f_prime.m,
        "f_prime": pair.f_prime.sigma.tolist(),
        "rho": pair.rho.tolist(),
        "reconstruction_error": err,
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_gauge(args) -> int:
    doc = _load_json(args.infile)
    try:
        section, xi = section_from_json_dict(doc)
    except (DomainError, DimensionError) as exc:
        raise _UsageError(str(exc)) from exc
    if xi is None:
        raise _UsageError("gauge flow needs a generator field: every node must carry xi")
    m = section.m
    alg = so1m_algebra(m)
    hrep = (vector_hrep if args.rep == "vector" else spinor_hrep)(m)
    if section.d != hrep.d:
        raise _UsageError(
            f"section vectors have d={section.d} but the {args.rep} representation needs d={hrep.d}"
        )
    flowed = flow_section(alg, section, xi, args.t, args.steps, hrep)
    _emit(_json_text(section_to_json_dict(flowed, xi)), args.out)
    return 0


def _cmd_verify(args) -> int:
    suite_fn = SUITES[args.suite]
    if args.infile is not None:
        if args.suite != "algebra":
            raise _UsageError("--in is only meaningful for the algebra suite")
        doc = _load_json(args.infile)
        try:
            alg = algebra_from_json_dict(doc)
        except (ValueError, KeyError, TypeError) as exc:
            raise _UsageError(f"bad algebra document: {exc}") from exc
        results = suite_algebra(args.seed, alg=alg)
    else:
        results = suite_fn(args.seed)
    failures = [r for r in results if not r.informational and not r.passed]
    payload = {
        "suite": args.suite,
        "seed": args.seed,
        "passed": not failures,
        "n_failed": len(failures),
        "results": [r.as_dict() for r in results],
    }
    if args.format == "csv":
        lines = ["name,passed,measured,threshold,informational"]
        for r in results:
            thr = "" if r.threshold is None else repr(float(r.threshold))
            lines.append(
                f"{r.name},{str(r.passed).lower()},{float(r.measured)!r},{thr},{str(r.informational).lower()}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text(payload), args.out)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetrep",
        description="Coset realizations of pseudo-orthogonal groups: series, factorization, gauge flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print the rational coefficient table")
    p.add_argument("--order", type=_positive_int, default=12, help="largest index to print")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("realize", help="infinitesimal action of a generator at a point")
    p.add_argument("--in", dest="infile", required=True, help="JSON with sigma and xi")
    p.add_argument("--m", type=_positive_int, default=None, help="check the document against this m")
    p.add_argument("--order", type=_positive_int, default=DEFAULT_ORDER, help="series truncation")
    p.add_argument("--rep", choices=("vector", "spinor"), default="vector")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("factor", help="split a finite transformation")
    p.add_argument("--in", dest="infile", required=True, help="JSON with a matrix or boost/rotations")
    p.add_argument("--m", type=_positive_int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("gauge", help="flow a section along its generator field")
    p.add_argument("--in", dest="infile", required=True, help="section JSON, every node carrying xi")
    p.add_argument("--t", type=_finite_float, default=1.0, help="total flow time")
    p.add_argument("--steps", type=_positive_int, default=16, help="number of Euler steps")
    p.add_argument("--rep", choices=("vector", "spinor"), default="vector")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gauge)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--in", dest="infile", default=None, help="algebra JSON for the algebra suite")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (_UsageError, DimensionError, OSError) as exc:
        print(f"cosetrep: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ClosureError) as exc:
        print(f"cosetrep: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
