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
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from .coeffs import l_coeffs
from .errors import (
    ClosureError,
    DimensionError,
    DomainError,
    _array,
    _check_finite,
    _check_int,
    _check_real,
    _check_square,
)
from .induced import (
    _check_vector,
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
    so1m_algebra,
)
from .series import DEFAULT_ORDER, realize
from .verify import SUITES, fd_action_derivative, suite_algebra

__all__ = ["main"]


class _UsageError(Exception):
    """Bad flags or an unreadable/malformed input document (exit 2)."""


def _flag_number(text: str) -> int | float:
    """The int, or else the float, that a flag's text spells."""
    for kind in (int, float):
        with suppress(ValueError):
            return kind(text)
    raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _positive_int(text: str) -> int:
    return _check_int(_flag_number(text), 1, "value", argparse.ArgumentTypeError)


def _non_negative_int(text: str) -> int:
    return _check_int(_flag_number(text), 0, "value", argparse.ArgumentTypeError)


def _finite_float(text: str) -> float:
    try:
        return _check_real(_flag_number(text), "value")
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


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


def _csv_field(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return repr(float(x))
    return "" if x is None else str(x)


def _emit_report(args, payload: dict, columns: tuple[str, ...], rows: list[dict]) -> None:
    """Write payload as JSON or, under --format csv, the rows as CSV: a header
    of the columns, then each row's fields in that order, a float as its
    repr, a bool as true or false and None as an empty field."""
    if args.format == "csv":
        lines = [columns, *([row[c] for c in columns] for row in rows)]
        _emit("".join(",".join(map(_csv_field, line)) + "\n" for line in lines), args.out)
    else:
        _emit(_json_text(payload), args.out)


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def _numeric(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float array; a missing or non-numeric field is a usage error."""
    if key not in doc:
        raise _UsageError(f"document needs a numeric {key}")
    return _array(doc[key], key, _UsageError)


def _integer(doc: dict, key: str, default: int | None) -> int | None:
    """doc[key], or default when the key is absent; a present value must be an integer >= 1."""
    return _check_int(doc[key], 1, key, _UsageError) if key in doc else default


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
        d = _check_square(g, 2, "matrix")
        _check_finite(g, "matrix entries must be finite", _UsageError)
        if m_flag is not None and d != m_flag + 1:
            raise _UsageError(f"matrix is {d}x{d} but --m {m_flag} was given")
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
    rows = [
        {"n": n, "numerator": c.numerator, "denominator": c.denominator, "value": float(c)}
        for n, c in enumerate(map(table.l, range(1, args.order + 1)), start=1)
    ]
    payload = {"order": args.order, "coefficients": rows}
    _emit_report(args, payload, ("n", "numerator", "denominator", "value"), rows)
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
    diff = float(max(abs(act.dF - fd_sigma).max(initial=0.0), abs(act.dI - fd_comp).max(initial=0.0)))

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
        v = _check_vector(v, hrep.d)
        payload["d_v"] = _compensator_action(hrep, act.dI[None], v[None])[0].tolist()
        payload["rep"] = args.rep

    rows = [
        {"part": part, "index": i, "series": s, "oracle": o}
        for part, series, oracle in (("sigma", act.dF, fd_sigma), ("compensator", act.dI, fd_comp))
        for i, (s, o) in enumerate(zip(series, oracle))
    ]
    _emit_report(args, payload, ("part", "index", "series", "oracle"), rows)
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
    columns = ("name", "passed", "measured", "threshold", "informational")
    _emit_report(args, payload, columns, payload["results"])
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
