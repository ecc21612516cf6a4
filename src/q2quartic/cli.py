"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 precision or budget failure, 4 internal inconsistency (two derivations
of one quantity disagree, a count is not an integer, or a coefficient
class changed verdict under refinement) or any other package error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
from .oracle.verify import verify
from .padic.field import field_from_file
from .params import GROUP_ORDER, GroupTag, MinusOneClass, make_params, valid_param_sweep
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


def _cmd_count(args) -> int:
    params = _params_from_args(args)
    groups = [GroupTag(args.group)] if args.group else None
    table = count_table(params, args.m_min, args.m_max, groups)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    elif args.format == "json":
        print(table.to_json())
    else:
        print(table.to_text())
    return 0


def _cmd_mass(args) -> int:
    params = _params_from_args(args)
    table = mass_table(params)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    elif args.format == "json":
        print(table.to_json())
    else:
        print(table.to_text())
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
    methods = ("density", "tower", "dedup") if args.oracle == "all" else (args.oracle,)
    report = verify(field, args.m_max, methods=methods, jobs=args.jobs, cache_dir=args.cache)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.passed else 1


def _cmd_derive_params(args) -> int:
    field = field_from_file(args.field)
    print(json.dumps(field.derive_params().to_json(), indent=1, sort_keys=True))
    return 0


def _cmd_lmfdb_check(args) -> int:
    field = field_from_file(args.field)
    params = field.derive_params()
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
    keys = sorted(set(observed) | {
        (m, g)
        for m in range(0, _counts.max_support(params) + 1)
        for g in GROUP_ORDER
        if _counts.count(params, m, g)
    }, key=lambda k: (k[0], k[1].value))
    print(f"{'c':>4} {'group':<6} {'formula':>10} {'lmfdb':>10} status")
    for m, g in keys:
        f = _counts.count(params, m, g)
        o = observed.get((m, g), 0)
        status = "pass" if f == o else "FAIL"
        if status == "FAIL":
            mismatches += 1
        print(f"{m:>4} {g.value:<6} {f:>10} {o:>10} {status}")
    print("overall:", "pass" if mismatches == 0 else f"FAIL ({mismatches} rows)")
    return 0 if mismatches == 0 else 1


_SWEEP_CHECKS = ("serre", "tower-identity", "c4-dual", "a4-total")


def _cmd_sweep(args) -> int:
    checks = list(dict.fromkeys(args.check or _SWEEP_CHECKS))  # each check once, first-seen order
    failures = 0
    tuples = 0
    for params in valid_param_sweep(args.e_max, args.f_max):
        tuples += 1
        try:
            if "serre" in checks:
                _masses.serre_total(params)
            if "tower-identity" in checks:
                _masses.tower_mass_sum(params)
            if "c4-dual" in checks:
                for m, towers in enumerate(_counts.count_C4_towers(params)):
                    explicit = _counts.count_C4(params, m)
                    if explicit != towers:
                        raise FormulationMismatch(
                            f"C4 at m={m}: explicit form {explicit} != tower form {towers}"
                        )
            if "a4-total" in checks:
                if params.f % 2 == 1:
                    total = sum(
                        _counts.count_A4(params, m)
                        for m in range(0, _counts.max_support(params) + 1)
                    )
                    if total != (params.q ** (2 * params.e) - 1) // 3:
                        raise FormulationMismatch("A4 total mismatch")
                else:
                    for m in range(0, _counts.max_support(params) + 1):
                        if _counts.count_S4(params, m) != 0:
                            raise FormulationMismatch("S4 nonzero for even f")
                        if _counts.count_one_aut(params, m) != _counts.count_A4(params, m):
                            raise FormulationMismatch("1-Aut != A4 for even f")
        except (FormulationMismatch, NonIntegralCount, SerreIdentityViolation) as exc:
            failures += 1
            print(f"FAIL {params.to_json()}: {exc}")
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
    sp.add_argument("--group", choices=[g.value for g in GROUP_ORDER])
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
    sp.add_argument("--oracle", choices=["density", "tower", "dedup", "all"], default="all")
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
