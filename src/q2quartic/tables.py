"""Count and mass tables with deterministic CSV/JSON serialization."""

from __future__ import annotations

import io
import csv
import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from . import counts as _counts
from . import masses as _masses
from .params import GROUP_ORDER, FieldParams, check_degree

CSV_COLUMNS = ["e", "f", "q", "d_minus_one", "minus_one_class", "m", "group", "count"]


@dataclass
class CountTable:
    params: FieldParams
    rows: dict  # (m, GroupTag) -> non-zero int, insertion-ordered by (m, group order)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        p = self.params
        for (m, g), n in self.rows.items():
            w.writerow([p.e, p.f, p.q, p.d_minus_one, p.minus_one_class.value, m, g.value, n])
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        nested: dict = {}
        for (m, g), n in self.rows.items():
            nested.setdefault(str(m), {})[g.value] = n
        return {"params": self.params.to_json(), "counts": nested}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=1, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"{'m':>4} {'group':<6} {'count':>12}"]
        for (m, g), n in self.rows.items():
            lines.append(f"{m:>4} {g.value:<6} {n:>12}")
        return "\n".join(lines)


def count_table(
    params: FieldParams, m_min: int = 0, m_max: int | None = None, groups=None
) -> CountTable:
    """The non-zero cells of the tuple's rows with m_min <= m <= m_max in
    ``groups`` (default all); every count is 0 outside 0 <= m <= 8e+3."""
    by_group = _counts.count_rows(params).groups
    top = _counts.max_support(params)
    m_max = top if m_max is None else min(m_max, top)
    groups = tuple(groups) if groups else GROUP_ORDER
    picked = [(g, by_group[g]) for g in GROUP_ORDER if g in groups]
    rows = {(m, g): row[m] for m in range(max(m_min, 0), m_max + 1) for g, row in picked if row[m]}
    return CountTable(params, rows)


def _frac_str(x: Fraction) -> str:
    # Decimal prints an int of any length; str(int) stops at 4,300 digits
    # (sys.get_int_max_str_digits), and a mass at e = 1, f = 2048 has 4,316
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


@dataclass
class MassTable:
    params: FieldParams
    per_group: dict  # GroupTag -> Fraction
    total: Fraction

    def to_json_obj(self) -> dict:
        return {
            "params": self.params.to_json(),
            "masses": {g.value: _frac_str(v) for g, v in self.per_group.items()},
            "total": _frac_str(self.total),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=1, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        p = self.params
        w.writerow(["e", "f", "q", "d_minus_one", "minus_one_class", "group", "mass"])
        for g, v in self.per_group.items():
            w.writerow([p.e, p.f, p.q, p.d_minus_one, p.minus_one_class.value, g.value, _frac_str(v)])
        w.writerow([p.e, p.f, p.q, p.d_minus_one, p.minus_one_class.value, "total", _frac_str(self.total)])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"{'group':<6} {'mass':>24}"]
        for g, v in self.per_group.items():
            lines.append(f"{g.value:<6} {_frac_str(v):>24}")
        lines.append(f"{'total':<6} {_frac_str(self.total):>24}")
        return "\n".join(lines)


def mass_table(params: FieldParams) -> MassTable:
    check_degree(params.e, params.f)
    per_group = {g: _masses.mass_closed_form(params, g) for g in GROUP_ORDER}
    total = sum(per_group.values(), Fraction(0))
    return MassTable(params, per_group, total)
