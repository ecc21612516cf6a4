"""Comparison of formula counts against the brute-force oracles."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field as dc_field

from ..counts import max_support
from ..errors import InvalidParams, PrecisionExhausted
from ..padic.field import LocalField, with_doubled_precision
from ..params import FieldParams
from ..tables import count_table
from . import cache as _cache
from .dedup import dedup_counts
from .density import check_jobs, density_counts
from .tower import _TAGS, tower_counts

_METHODS = ("density", "tower", "dedup")
DEDUP_DEFAULT_M_MAX = 6
_PRECISION_RETRIES = 3


def _with_retry(field, call):
    """Run an oracle, doubling the field precision on PrecisionExhausted;
    return its result and the precision of the field it ran on."""
    for attempt in range(_PRECISION_RETRIES + 1):
        try:
            return call(field), field.precision
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
                "rows": [{**asdict(r), "status": r.status} for r in self.rows],
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


def _rows_from(params, method, oracle_map, m_max, groups=None):
    """Rows for the cells up to m_max where formula (in ``groups``) or oracle is non-zero."""
    formula = count_table(params, 0, m_max, groups).rows
    cells = set(formula) | {c for c, n in oracle_map.items() if n and c[0] <= m_max}
    return [
        VerificationRow(m, g.value, method, formula.get((m, g), 0), oracle_map.get((m, g), 0))
        for m, g in cells
    ]


def verify(
    field: LocalField,
    m_max: int,
    methods=_METHODS,
    jobs: int = 1,
    cache_dir=None,
    dedup_m_max: int | None = None,
) -> VerificationReport:
    """Run the requested oracles and compare them to the closed forms.

    Mismatches become failing rows, not exceptions.  ``meta["tower"]``,
    ``meta["density"]`` and ``meta["dedup"]`` hold those oracles' metadata,
    each with the ``precision`` (pi-adic digits of the field's spec, None
    for a field built in code) it ran at after any doubling.
    With ``cache_dir``, ``meta["cache"]`` maps each oracle run to "hit" or
    "miss".  No oracle, an unknown one, a negative ``m_max`` or
    ``dedup_m_max``, ``jobs`` below 1, or a ``cache_dir`` that cannot be
    created raises InvalidParams before any oracle runs.  ``m_max`` above
    8e+3, the largest v(disc) of an Eisenstein quartic, is read as 8e+3.
    """
    if not methods or not set(methods) <= set(_METHODS):
        raise InvalidParams(
            f"unknown oracle or none in {list(methods)}; expected some of {', '.join(_METHODS)}"
        )
    for name, bound in (("m_max", m_max), ("dedup_m_max", dedup_m_max)):
        if bound is not None and bound < 0:
            raise InvalidParams(f"{name} must be at least 0, got {bound}")
    check_jobs(jobs)
    if cache_dir:
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            raise InvalidParams(f"cannot create cache directory {cache_dir!r}: {exc}") from None
    params = field.derive_params()
    top = max_support(params)
    m_max = min(m_max, top)
    rows: list[VerificationRow] = []
    meta: dict = {"m_max": m_max}

    def fetch(name, key, compute):
        cached = _cache.load(cache_dir, field, name, key)
        if cache_dir:
            meta.setdefault("cache", {})[name] = "miss" if cached is None else "hit"
        if cached is not None:
            return cached
        (counts, oracle_meta), precision = _with_retry(field, compute)
        oracle_meta = {**oracle_meta, "precision": precision}
        _cache.store(cache_dir, field, name, key, counts, oracle_meta)
        return counts, oracle_meta

    if "tower" in methods:
        tc, meta["tower"] = fetch("tower", top, tower_counts)
        rows.extend(_rows_from(params, "tower", tc, m_max, _TAGS))
    if "density" in methods:
        dc, meta["density"] = fetch("density", m_max, lambda K: density_counts(K, m_max, jobs=jobs))
        rows.extend(_rows_from(params, "density", dc, m_max))
    if "dedup" in methods:
        dmax = min(m_max, DEDUP_DEFAULT_M_MAX if dedup_m_max is None else dedup_m_max)
        xc, meta["dedup"] = fetch("dedup", dmax, lambda K: dedup_counts(K, dmax))
        meta["dedup_m_max"] = dmax
        rows.extend(_rows_from(params, "dedup", xc, dmax))
    rows.sort(key=lambda r: (_METHODS.index(r.method), r.m, r.group))
    return VerificationReport(field.spec_hash(), params, rows, meta)
