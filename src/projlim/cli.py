"""Command-line interface for exact projective-geometry degenerations.

Every subcommand supports ``--format {table,json}`` and ``--out PATH``; JSON
output is canonical (sorted keys, two-space indent, trailing newline) and
carries a schema version.  Any flag value may be ``@path`` to read the actual
value from a file.  Exit codes: 0 on success, 1 on a domain error (signature
mismatch, divergent limit, singular matrix, ...), 2 on a syntax error in an
input expression.

The argparse parser is built once per process, on the first ``main`` call,
and reused by every later request; parsing leaves no state on it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .acceptance import run_all
from .correlator import (
    FUNDAMENTAL,
    RIGHT_ACTION,
    SCHEMA_VERSION,
    RepTag,
    degenerate,
    figure1_json,
    figure1_table,
    make_correlator,
    uv_ir_report,
)
from .errors import DimError, NotColumnOnly, ParseError, ProjlimError, SignatureError
from .geometry import classify_point_limit, geometry_limit
from .lie import (
    build_po,
    contract,
    embed_and_limit,
    invariant_profile,
    pad_span,
    sigma_chain,
    signature_str,
    validate_signature,
)
from .parsing import (
    parse_algebra,
    parse_pair,
    parse_permutation,
    parse_point,
    parse_sequence,
    parse_signature,
)
from .projective import FactoredSequence, canonical_coords, point_text
from .young import (
    branch_to_lorentz,
    is_poincare_irreducible,
    pair_str,
    schur_dim,
    spin_total,
    statistics,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _expand_at(value: str) -> str:
    """Support @path indirection for long expressions."""
    if value.startswith("@"):
        return Path(value[1:]).read_text().strip()
    return value


def _mat_strs(mat) -> list[list[str]]:
    return [[str(Fraction(x)) for x in row] for row in mat]


def _emit(args, payload: dict, table_lines: list[str]) -> None:
    if args.format == "json":
        doc = dict(payload)
        doc["schema_version"] = SCHEMA_VERSION
        text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    else:
        text = "\n".join(table_lines) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _perm_str(perm: Sequence[int]) -> str:
    return "(" + " ".join(str(i) for i in perm) + ")"


def _table_sparse(table) -> list[dict]:
    return [
        {"i": i, "j": j, "k": k, "coeff": str(c)}
        for i, j, coeffs in table.brackets()
        if i < j
        for k, c in coeffs.items()
    ]


def _table_lines(table) -> list[str]:
    lines = [
        f"[e{i}, e{j}] = " + " + ".join(f"{c}*e{k}" if c != 1 else f"e{k}" for k, c in coeffs.items())
        for i, j, coeffs in table.brackets()
        if i < j
    ]
    return lines or ["all brackets vanish"]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _ambient_dim(sig) -> int:
    return sum(p + q for p, q in validate_signature(sig))


def _cmd_limit(args) -> int:
    sig = parse_algebra(args.algebra)
    deg = geometry_limit(sig, parse_sequence(args.seq, _ambient_dim(sig)))
    profile = invariant_profile(deg.limit)
    payload = {
        "algebra": signature_str(sig),
        "limit_signature": signature_str(deg.limit_sig),
        "permutation": list(deg.perm),
        "dim": deg.limit.dim,
        "invariants": profile.as_dict(),
    }
    if args.format == "json":  # the table does not print the basis
        payload["basis"] = [_mat_strs(x) for x in deg.limit.basis]
    lines = [
        f"algebra:          po{signature_str(sig)}",
        f"limit signature:  po{signature_str(deg.limit_sig)}",
        f"permutation:      {_perm_str(deg.perm)}",
        f"dimension:        {deg.limit.dim}",
        f"center dim:       {profile.center_dim}",
        f"killing signature: {profile.killing_signature}",
    ]
    _emit(args, payload, lines)
    return 0


def _parse_indices(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.replace(";", ",").split(","))
    except ValueError as exc:
        raise ParseError(f"bad index list {text!r}") from exc


def _cmd_contract(args) -> int:
    sig = parse_algebra(args.algebra)
    algebra = build_po(sig)
    indices = _parse_indices(args.indices)
    table = contract(algebra, indices)
    profile = invariant_profile(table)
    payload = {
        "algebra": signature_str(sig),
        "fixed_indices": list(indices),
        "dim": table.dim,
        "structure_constants": _table_sparse(table),
        "invariants": profile.as_dict(),
    }
    lines = (
        [f"contraction of po{signature_str(sig)} along indices {list(indices)}:"]
        + _table_lines(table)
        + [
            f"abelian: {table.is_abelian()}",
            f"center dim: {profile.center_dim}",
        ]
    )
    _emit(args, payload, lines)
    return 0


def _cmd_invariants(args) -> int:
    sig = parse_algebra(args.algebra)
    algebra = build_po(sig)
    if args.indices is not None:
        profile = invariant_profile(contract(algebra, _parse_indices(args.indices)))
    else:
        profile = invariant_profile(algebra)
    payload = {"algebra": signature_str(sig), "invariants": profile.as_dict()}
    lines = [f"{key}: {value}" for key, value in sorted(profile.as_dict().items())]
    _emit(args, payload, lines)
    return 0


def _cmd_sigma_chain(args) -> int:
    sig = parse_signature(args.signature)
    if len(sig) != 1:
        raise SignatureError("sigma-chain expects a single-block signature")
    p, q = sig[0]
    weights = _parse_indices(args.weights)
    result = sigma_chain(p, q, weights)
    payload = {
        "signature": signature_str(sig),
        "weights": list(result.weights),
        "splits": list(result.splits),
        "steps": [
            {
                "split": step.split,
                "fixed_indices": list(step.fixed_indices),
                "verified": step.verified,
                "structure_constants": _table_sparse(step.table),
            }
            for step in result.steps
        ],
        "final_matches_limit": result.final_matches_limit,
        "all_verified": result.all_verified,
    }
    lines = [
        f"signature: po{signature_str(sig)}, weights {list(result.weights)}",
        f"splits: {list(result.splits)}",
    ]
    for step in result.steps:
        lines.append(
            f"  split {step.split}: fixed {list(step.fixed_indices)}, morphism verified {step.verified}"
        )
    lines.append(f"final table matches conjugacy limit: {result.final_matches_limit}")
    lines.append(f"all steps verified: {result.all_verified}")
    _emit(args, payload, lines)
    return 0


def _cmd_embed_check(args) -> int:
    sig = validate_signature(parse_algebra(args.algebra))
    m = _ambient_dim(sig)
    seq = parse_sequence(args.seq, m)
    m_target = seq.dim
    if m_target < m:
        raise DimError(f"sequence dimension {m_target} is below the algebra's {m}")
    big = embed_and_limit(build_po(sig), m_target, seq)
    # The top-left m x m blocks of the sparse factors.
    left, right = (tuple(tuple((j, x) for j, x in row if j < m) for row in rows[:m]) for rows in (seq.left, seq.right))
    small_seq = FactoredSequence._of(left, seq.weights[:m], right)
    base = geometry_limit(sig, small_seq)
    equal = big.span_equals(pad_span(base.limit, m_target))
    payload = {
        "algebra": signature_str(sig),
        "target_dim": m_target,
        "limit_unchanged": equal,
        "base_limit_signature": signature_str(base.limit_sig),
        "permutation": list(base.perm),
    }
    lines = [
        f"embedding po{signature_str(sig)} into dimension {m_target}",
        f"base limit: po{signature_str(base.limit_sig)} with permutation {_perm_str(base.perm)}",
        f"limit unchanged by embedding: {equal}",
    ]
    _emit(args, payload, lines)
    return 0


def _split_points(text: str) -> list[list]:
    return [parse_point(chunk) for chunk in text.split(";") if chunk.strip()]


def _cmd_classify(args) -> int:
    if not args.algebra and not args.signature:
        raise ParseError("classify needs --algebra or --signature")
    sig = parse_algebra(args.algebra) if args.algebra else parse_signature(args.signature)
    deg = geometry_limit(sig, parse_sequence(args.seq, _ambient_dim(sig)))
    points = [canonical_coords(coords) for coords in _split_points(args.points)]
    reports = [classify_point_limit(deg, point) for point in points]
    payload = {
        "geometry": signature_str(sig),
        "limit_signature": signature_str(deg.limit_sig),
        "permutation": list(deg.perm),
        "points": [r.as_dict() for r in reports],
    }
    lines = [
        f"geometry:        po{signature_str(sig)}",
        f"limit signature: po{signature_str(deg.limit_sig)} with permutation {_perm_str(deg.perm)}",
    ]
    for point, report in zip(points, reports):
        lines.append(f"  {point_text(point)} -> {point_text(report.coords)} [{report.kind}]")
    _emit(args, payload, lines)
    return 0


def _cmd_schur(args) -> int:
    pair = parse_pair(args.pair)
    dim = schur_dim(pair)
    branch = branch_to_lorentz(pair)
    verdict = is_poincare_irreducible(pair)
    try:
        spin: Optional[str] = str(spin_total(pair))
    except NotColumnOnly:
        spin = None
    payload = {
        "pair": pair_str(pair),
        "dimension": dim,
        "branch": branch.as_dict(),
        "spin": spin,
        "statistics": statistics(pair),
        "poincare_irreducible": bool(verdict),
        "reason": verdict.reason,
    }
    lines = [
        f"pair:       {pair_str(pair)}",
        f"dimension:  {dim}",
        "lorentz branch: "
        + " + ".join(
            f"([{','.join(map(str, s.lam))}],[{','.join(map(str, s.lam_bar))}])x{s.multiplicity}"
            for s in branch.summands
        ),
        f"single summand: {branch.single_summand}",
        f"spin:       {spin if spin is not None else 'undefined (not column-only, or the module is zero)'}",
        f"statistics: {statistics(pair)}",
        f"poincare irreducible: {bool(verdict)} ({verdict.reason})",
    ]
    _emit(args, payload, lines)
    return 0


def _parse_rep_list(text: str) -> list[RepTag]:
    reps: list[RepTag] = []
    depth = 0
    current = []
    chunks: list[str] = []
    for ch in text:
        if ch == "," and depth == 0:
            chunks.append("".join(current))
            current = []
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        current.append(ch)
    if current:
        chunks.append("".join(current))
    for chunk in chunks:
        token = chunk.strip()
        if token == "fundamental":
            reps.append(FUNDAMENTAL)
        elif token == "right_action":
            reps.append(RIGHT_ACTION)
        elif token.startswith("schur"):
            reps.append(RepTag("schur", parse_pair(token[len("schur") :])))
        else:
            raise ParseError(f"unknown representation {token!r}")
    if not reps:
        raise ParseError("empty representation list")
    return reps


def _report_lines(report) -> list[str]:
    lines = [
        f"limit signature: po{signature_str(report.limit_signature)} "
        f"with permutation {_perm_str(report.permutation)}",
        "surviving components per factor: "
        + "; ".join("{" + ", ".join(map(str, s)) + "}" for s in report.surviving),
        f"support kinds: {', '.join(report.support_kinds)}",
        f"fixed points: {', '.join(report.fixed_points) if report.fixed_points else '(none)'}",
    ]
    for sample in report.samples:
        lines.append(f"  {sample.point_in} -> {sample.point_out} [{sample.kind}]")
    return lines


def _cmd_correlator(args) -> int:
    if args.mode:
        report = uv_ir_report(
            args.ell,
            args.mode,
            _split_points(args.points) if args.points else None,
        )
    else:
        if not args.seq:
            raise ParseError("correlator needs --seq (or --mode uv|ir)")
        sig = parse_signature(args.geometry)
        reps = _parse_rep_list(args.reps)
        spec = make_correlator(sig, reps)
        seq = parse_sequence(args.seq, _ambient_dim(spec.geometry))
        perm = parse_permutation(args.perm, seq.dim) if args.perm else None
        points = _split_points(args.points) if args.points else None
        report = degenerate(spec, seq, perm, points)
    # The table prints no rho-infinity entry, so only json builds the payload.
    _emit(args, report.as_dict() if args.format == "json" else {}, _report_lines(report))
    return 0


def _cmd_figure1(args) -> int:
    if args.format == "json":
        _write(args, figure1_json())
        return 0
    table = figure1_table()
    lines = []
    for row in table["rows"]:
        lines.append(f"{row['name']}: sequence {row['sequence']}, permutation {row['permutation']}")
        for rep in ("fundamental", "right_action"):
            cell = row["cells"][rep]
            lines.append(
                f"  {rep}: surviving {cell['surviving']} operators {cell['operators']}"
            )
        lines.append(f"  support kinds: {row['support_kinds']}; fixed points: {row['fixed_points']}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def _cmd_selftest(args) -> int:
    results = run_all()
    if args.format == "json":
        payload = {
            "results": [
                dataclasses.asdict(r) | {"seconds": round(r.seconds, 3)} for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
        _emit(args, payload, [])
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'}  #{r.number:2d} {r.name}: {r.detail}"
            for r in results
        ]
        lines.append(
            f"{sum(r.passed for r in results)}/{len(results)} checks passed"
        )
        _write(args, "\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projlim",
        description="Exact degenerations of projective space-time geometries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", default=None, help="write output to this file")
        p.set_defaults(func=func)
        return p

    p = add("limit", "conjugacy limit of a block algebra along a sequence", _cmd_limit)
    p.add_argument("--algebra", required=True, help="e.g. po((4,1)) or po((1),(3,1))")
    p.add_argument("--seq", required=True, help="e.g. diag(t^4,t^-1,t^-1,t^-1,t^-1)")

    p = add("contract", "contraction of a block algebra along fixed basis indices", _cmd_contract)
    p.add_argument("--algebra", required=True)
    p.add_argument("--indices", required=True, help="comma-separated 0-based basis indices")

    p = add("invariants", "isomorphism invariants of a block algebra (or its contraction)", _cmd_invariants)
    p.add_argument("--algebra", required=True)
    p.add_argument("--indices", default=None)

    p = add("sigma-chain", "stepwise contraction chain along a weight vector", _cmd_sigma_chain)
    p.add_argument("--signature", required=True, help="single block, e.g. (3) or (3,1)")
    p.add_argument("--weights", required=True, help="comma-separated integers, e.g. 0,-1,-2")

    p = add("embed-check", "verify a limit is unchanged by ambient embedding", _cmd_embed_check)
    p.add_argument("--algebra", required=True)
    p.add_argument("--seq", required=True, help="sequence in the target dimension")

    p = add("classify", "classify limits of model-space points", _cmd_classify)
    p.add_argument("--algebra", default=None)
    p.add_argument("--signature", default=None)
    p.add_argument("--seq", required=True)
    p.add_argument("--points", required=True, help="semicolon-separated points")

    p = add("schur", "dimension, Lorentz branch and spin data of a diagram pair", _cmd_schur)
    p.add_argument("--pair", required=True, help="e.g. ([1,1],[]) or ([2,1],[1])")

    p = add("correlator", "degenerate a correlator along a sequence", _cmd_correlator)
    p.add_argument("--geometry", default="(4,1)")
    p.add_argument("--reps", default="fundamental", help="comma list: fundamental, right_action, schur(PAIR)")
    p.add_argument("--seq", default=None)
    p.add_argument("--perm", default=None)
    p.add_argument("--points", default=None)
    p.add_argument("--mode", choices=("uv", "ir"), default=None, help="scale limit instead of --seq")
    p.add_argument("--ell", type=int, default=2, help="number of factors for --mode")

    add("figure1", "reproduction table for the three standard degenerations", _cmd_figure1)

    add("selftest", "run the built-in verification checklist", _cmd_selftest)
    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main call


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    for key, value in vars(args).items():
        if isinstance(value, str):
            setattr(args, key, _expand_at(value))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except ProjlimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
