"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 precision or budget failure, 4 internal inconsistency (two derivations
of one quantity disagree, a count is not an integer, or a coefficient
class changed verdict under refinement) or any other package error,
141 (128 + SIGPIPE) when the reader of stdout closed it early.

``sweep`` runs its ``serre`` and ``tower-identity`` checks, which read only
(e, f), once per (e, f), on its first tuple, and reports that outcome on
every tuple of the (e, f); ``c4-dual`` and ``a4-total`` run per tuple.  The
C4 mass cancels out of the Serre total, so ``c4-dual`` is the sweep's only
check of the C4 formula.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import counts as _counts
from . import masses as _masses
from .errors import (
    BudgetExceeded,
    ClassInstability,
    FormulationMismatch,
    InvalidParams,
    NonIntegralCount,
    PrecisionExhausted,
    Q2QuarticError,
    SerreIdentityViolation,
)
from .oracle.verify import _METHODS, verify
from .padic.field import field_from_file
from .params import GroupTag, MinusOneClass, cell_key, check_degree, make_params, valid_param_sweep
from .tables import count_table, mass_table

_LMFDB_GROUPS = {
    "4T1": GroupTag.C4,
    "4T2": GroupTag.V4,
    "4T3": GroupTag.D4,
    "4T4": GroupTag.A4,
    "4T5": GroupTag.S4,
}


def _params_from_args(args):
    cls = MinusOneClass(args.minus_one_class)
    return make_params(args.e, args.f, args.d_minus_one, cls)


def _add_param_flags(sp):
    sp.add_argument("--e", type=int, required=True, help="absolute ramification index")
    sp.add_argument("--f", type=int, required=True, help="inertia degree")
    sp.add_argument("--d-minus-one", type=int, default=0, dest="d_minus_one")
    sp.add_argument(
        "--minus-one-class",
        required=True,
        choices=[c.value for c in MinusOneClass],
        dest="minus_one_class",
    )


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _write(table, fmt: str) -> None:
    """Print ``table`` on stdout as csv, json or a text table."""
    if fmt == "csv":
        sys.stdout.write(table.to_csv())
    else:
        print(table.to_json() if fmt == "json" else table.to_text())


def _cmd_count(args) -> int:
    params = _params_from_args(args)
    groups = [GroupTag(args.group)] if args.group else None
    _write(count_table(params, args.m_min, args.m_max, groups), args.format)
    return 0


def _cmd_mass(args) -> int:
    params = _params_from_args(args)
    _write(mass_table(params), args.format)
    if args.check_serre:
        try:
            _masses.serre_total(params)
        except SerreIdentityViolation as exc:
            print(f"serre: FAIL ({exc})")
            return 1
        print("serre: ok")
    return 0


def _cmd_verify(args) -> int:
    field = field_from_file(args.field)
    methods = _METHODS if args.oracle == "all" else (args.oracle,)
    report = verify(field, args.m_max, methods=methods, jobs=args.jobs, cache_dir=args.cache)
    _write(report, args.format)
    return 0 if report.passed else 1


def _cmd_derive_params(args) -> int:
    field = field_from_file(args.field)
    print(json.dumps(field.derive_params().to_json(), indent=1, sort_keys=True))
    return 0


def _cmd_lmfdb_check(args) -> int:
    field = field_from_file(args.field)
    observed: dict = {}
    bad_rows = []
    try:
        with open(args.csv, newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParams(f"cannot read {args.csv!r}: {exc}") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None or not {"e", "c", "galois_label"} <= set(reader.fieldnames):
        print("lmfdb-check: csv must have columns e, c, galois_label", file=sys.stderr)
        return 2
    for lineno, row in enumerate(reader, start=2):
        try:
            e = int(row["e"])
            c = int(row["c"])
            glabel = row["galois_label"].strip()
        except (KeyError, TypeError, ValueError):
            bad_rows.append(lineno)
            continue
        label = (row.get("label") or "").strip()
        n = None
        if label:
            parts = label.split(".")
            if len(parts) >= 2 and parts[1].isdigit():
                n = int(parts[1])
        if n is not None and n != 4:
            continue
        if glabel not in _LMFDB_GROUPS:
            if n == 4:
                bad_rows.append(lineno)
            continue
        if e != 4:
            continue  # not totally ramified quartic
        g = _LMFDB_GROUPS[glabel]
        observed[(c, g)] = observed.get((c, g), 0) + 1
    for lineno in bad_rows:
        print(f"lmfdb-check: skipping malformed row at line {lineno}", file=sys.stderr)
    mismatches = 0
    formula = count_table(field.derive_params()).rows
    print(f"{'c':>4} {'group':<6} {'formula':>10} {'lmfdb':>10} status")
    for m, g in sorted(set(observed) | set(formula), key=cell_key):
        f = formula.get((m, g), 0)
        o = observed.get((m, g), 0)
        mismatches += f != o
        print(f"{m:>4} {g.value:<6} {f:>10} {o:>10} {'pass' if f == o else 'FAIL'}")
    print("overall:", "pass" if mismatches == 0 else f"FAIL ({mismatches} rows)")
    return 0 if mismatches == 0 else 1


_SWEEP_CHECKS = ("serre", "tower-identity", "c4-dual", "a4-total")
_SWEEP_FAILURES = (FormulationMismatch, NonIntegralCount, SerreIdentityViolation)


def _ef_failure(params, checks):
    """The first failure of the checks that read only (e, f), or None.

    ``serre`` sums the closed masses, out of which the C4 mass cancels, and
    ``tower-identity`` compares the shared tower row with the shared tower
    mass, so both hold or fail for every tuple of (params.e, params.f) alike.
    """
    try:
        if "serre" in checks:
            _masses.serre_total(params)
        if "tower-identity" in checks:
            _masses.tower_mass_sum(params)
    except _SWEEP_FAILURES as exc:
        return exc
    return None


def _tuple_failure(params, checks):
    """The first failure of the checks that read the tuple's own C4 and D4 rows, or None."""
    try:
        if "c4-dual" in checks:
            explicit_row = _counts.count_rows(params).groups[GroupTag.C4]
            for m, (explicit, towers) in enumerate(
                zip(explicit_row, _counts.count_C4_towers(params))
            ):
                if explicit != towers:
                    raise FormulationMismatch(
                        f"C4 at m={m}: explicit form {explicit} != tower form {towers}"
                    )
        if "a4-total" in checks:
            rows = _counts.count_rows(params)
            a4 = rows.groups[GroupTag.A4]
            if params.f % 2 == 1:
                total, expected = sum(a4), (params.q ** (2 * params.e) - 1) // 3
                if total != expected:
                    raise FormulationMismatch(f"A4 total {total} != (q^(2e)-1)/3 = {expected}")
            else:
                for m, (one_aut, a4_m) in enumerate(zip(rows.one_aut, a4)):
                    if one_aut != a4_m:
                        raise FormulationMismatch(
                            f"A4 at m={m}: 1-Aut count {one_aut} != A4 count {a4_m} for even f"
                        )
    except _SWEEP_FAILURES as exc:
        return exc
    return None


def _cmd_sweep(args) -> int:
    checks = list(dict.fromkeys(args.check or _SWEEP_CHECKS))  # each check once, first-seen order
    check_degree(args.e_max, args.f_max)
    failures = 0
    tuples = 0
    ef = ef_failure = None
    for params in valid_param_sweep(args.e_max, args.f_max):
        tuples += 1
        # valid_param_sweep yields each (e, f)'s tuples one after another, so
        # the (e, f) checks run on its first tuple and only its outcome is kept
        if (params.e, params.f) != ef:
            ef, ef_failure = (params.e, params.f), _ef_failure(params, checks)
        failure = ef_failure if ef_failure is not None else _tuple_failure(params, checks)
        if failure is not None:
            failures += 1
            print(f"FAIL {params.to_json()}: {failure}")
    label = "formal parameter-space sweep (tuples need not be realized by a field)"
    print(f"sweep: {tuples} tuples, checks={','.join(checks)}, failures={failures} [{label}]")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="q2quartic",
        description="Counts and masses of totally ramified quartic extensions of 2-adic fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("count", help="closed-form count table")
    _add_param_flags(sp)
    sp.add_argument("--m-min", type=int, default=0)
    sp.add_argument("--m-max", type=int, default=None)
    sp.add_argument("--group", choices=[g.value for g in GroupTag])
    sp.add_argument("--format", choices=["csv", "json", "table"], default="table")
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("mass", help="closed-form mass table")
    _add_param_flags(sp)
    sp.add_argument("--check-serre", action="store_true")
    sp.add_argument("--format", choices=["csv", "json", "table"], default="table")
    sp.set_defaults(func=_cmd_mass)

    sp = sub.add_parser("verify", help="compare formulas against brute-force oracles")
    sp.add_argument("--field", required=True, help="field spec JSON file")
    sp.add_argument("--m-max", type=int, required=True)
    sp.add_argument("--oracle", choices=[*_METHODS, "all"], default="all")
    sp.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="density-oracle processes, this one included: it forks jobs-1 workers "
        "(at least 1; reduced to the number of cores this process may run on)",
    )
    sp.add_argument("--cache", default=None, help="cache directory for oracle results")
    sp.add_argument("--format", choices=["json", "table"], default="table")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("derive-params", help="derive (e,f,q,d,trichotomy) from a field spec")
    sp.add_argument("--field", required=True)
    sp.set_defaults(func=_cmd_derive_params)

    sp = sub.add_parser("lmfdb-check", help="compare formulas against a local-fields CSV export")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--field", required=True)
    sp.set_defaults(func=_cmd_lmfdb_check)

    sp = sub.add_parser("sweep", help="identity sweeps over the abstract parameter space")
    sp.add_argument("--e-max", type=_positive_int, required=True)
    sp.add_argument("--f-max", type=_positive_int, required=True)
    sp.add_argument("--check", action="append", choices=list(_SWEEP_CHECKS))
    sp.set_defaults(func=_cmd_sweep)
    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionExhausted, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormulationMismatch, NonIntegralCount, ClassInstability) as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except Q2QuarticError as exc:
        print(f"error: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: send what is left, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
