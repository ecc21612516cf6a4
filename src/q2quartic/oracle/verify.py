"""Comparison of formula counts against the brute-force oracles."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as dc_field

from .. import counts as formulas
from ..errors import InvalidParams, PrecisionExhausted
from ..padic.field import LocalField, with_doubled_precision
from ..params import GROUP_ORDER, FieldParams, GroupTag
from . import cache as _cache
from .dedup import dedup_counts
from .density import density_counts
from .tower import tower_counts

_TOWER_GROUPS = (GroupTag.V4, GroupTag.C4, GroupTag.D4)
_METHODS = ("density", "tower", "dedup")
DEDUP_DEFAULT_M_MAX = 6
_PRECISION_RETRIES = 3


def _with_retry(field, call):
    """Run an oracle, doubling the field precision on PrecisionExhausted."""
    for attempt in range(_PRECISION_RETRIES + 1):
        try:
            return call(field)
        except PrecisionExhausted:
            if attempt == _PRECISION_RETRIES or field.spec is None:
                raise
            field = with_doubled_precision(field)


@dataclass
class VerificationRow:
    m: int
    group: str
    method: str
    formula: int
    oracle: int

    @property
    def status(self) -> str:
        return "pass" if self.formula == self.oracle else "FAIL"


@dataclass
class VerificationReport:
    field_hash: str
    params: FieldParams
    rows: list[VerificationRow]
    meta: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.rows)

    def to_json(self) -> str:
        return json.dumps(
            {
                "field_hash": self.field_hash,
                "params": self.params.to_json(),
                "passed": self.passed,
                "rows": [
                    {
                        "m": r.m,
                        "group": r.group,
                        "method": r.method,
                        "formula": r.formula,
                        "oracle": r.oracle,
                        "status": r.status,
                    }
                    for r in self.rows
                ],
                "meta": self.meta,
            },
            indent=1,
            sort_keys=True,
        )

    def to_text(self) -> str:
        lines = [f"{'m':>4} {'group':<6} {'method':<8} {'formula':>10} {'oracle':>10} status"]
        for r in self.rows:
            lines.append(
                f"{r.m:>4} {r.group:<6} {r.method:<8} {r.formula:>10} {r.oracle:>10} {r.status}"
            )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _rows_from(params, method, oracle_map, m_max, groups):
    rows = []
    for m in range(0, m_max + 1):
        for g in GROUP_ORDER:
            if g not in groups:
                continue
            f = formulas.count(params, m, g)
            o = oracle_map.get((m, g), 0)
            if f or o:
                rows.append(VerificationRow(m, g.value, method, f, o))
    return rows


def verify(
    field: LocalField,
    m_max: int,
    methods=_METHODS,
    jobs: int = 1,
    cache_dir=None,
    dedup_m_max: int | None = None,
) -> VerificationReport:
    """Run the requested oracles and compare them to the closed forms.

    Mismatches become failing rows, not exceptions.  ``meta["tower"]`` and
    ``meta["density"]`` hold those oracles' metadata.  With ``cache_dir``,
    ``meta["cache"]`` maps each oracle run to "hit" or "miss".  No oracle, an
    unknown one, a negative ``m_max`` or ``dedup_m_max``, or a ``cache_dir`` that
    cannot be created raises InvalidParams before any oracle runs.
    """
    if not methods or not set(methods) <= set(_METHODS):
        raise InvalidParams(
            f"unknown oracle or none in {list(methods)}; expected some of {', '.join(_METHODS)}"
        )
    for name, bound in (("m_max", m_max), ("dedup_m_max", dedup_m_max)):
        if bound is not None and bound < 0:
            raise InvalidParams(f"{name} must be at least 0, got {bound}")
    if cache_dir:
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            raise InvalidParams(f"cannot create cache directory {cache_dir!r}: {exc}") from None
    params = field.derive_params()
    rows: list[VerificationRow] = []
    meta: dict = {"m_max": m_max}

    def fetch(name, key, compute):
        cached = _cache.load(cache_dir, field, name, key)
        if cache_dir:
            meta.setdefault("cache", {})[name] = "miss" if cached is None else "hit"
        if cached is not None:
            return cached
        counts, oracle_meta = _with_retry(field, compute)
        _cache.store(cache_dir, field, name, key, counts, oracle_meta)
        return counts, oracle_meta

    if "tower" in methods:
        tc, meta["tower"] = fetch("tower", 8 * field.e_abs + 3, tower_counts)
        rows.extend(_rows_from(params, "tower", tc, m_max, _TOWER_GROUPS))
    if "density" in methods:
        dc, meta["density"] = fetch("density", m_max, lambda K: density_counts(K, m_max, jobs=jobs))
        rows.extend(_rows_from(params, "density", dc, m_max, set(GROUP_ORDER)))
    if "dedup" in methods:
        dmax = min(m_max, DEDUP_DEFAULT_M_MAX if dedup_m_max is None else dedup_m_max)
        xc, _ = fetch("dedup", dmax, lambda K: (dedup_counts(K, dmax), None))
        meta["dedup_m_max"] = dmax
        rows.extend(_rows_from(params, "dedup", xc, dmax, set(GROUP_ORDER)))
    rows.sort(key=lambda r: (_METHODS.index(r.method), r.m, r.group))
    return VerificationReport(field.spec_hash(), params, rows, meta)
