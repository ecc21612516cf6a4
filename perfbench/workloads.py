"""The benchmark's five workloads: fixed inputs, set-up, and checked operations.

Inputs are fixed; no random number enters them.  The run's seed only
shuffles the order in which a pass performs its operations, which leaves
the work and the results unchanged.

A workload's ``setup`` imports the package and builds what every pass
needs; it is what ``setup_s`` times in a fresh interpreter.  ``ops``
returns the pass's operations in order.  An operation calls the public API
the way a user does and returns the list of problems its output checks
found (empty when correct).  Operations record oracle metadata in
``ctx.obs`` for the traced run.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field

import checks

Q2 = {"f": 1, "e": 1}
SQRT2 = {"f": 1, "eisenstein": [-2, 0, 1]}
U2 = {"f": 2}
U3 = {"f": 3}


@dataclass(frozen=True)
class Inputs:
    density: tuple = ()  # (label, spec, m_max)
    jobs: int = 1
    tower: tuple = ()  # (label, spec)
    dedup: tuple = ()  # (label, spec, m_max)
    t_m: tuple = ()  # m values on Q2, for t_m_measure and one_aut_measure
    cubic: tuple = ()  # (label, spec, a, b)
    sweep: tuple | None = None  # (e_max, f_max)


# Q2 runs to its full range m <= 8e+3 = 11, so Serre's formula applies.
_DENSITY = (("Q2", Q2, 11), ("sqrt2", SQRT2, 12), ("U2", U2, 8), ("U3", U3, 5))
_TOWER = (
    ("Q2", Q2),
    ("x^2-2", SQRT2),
    ("x^2+2", {"f": 1, "eisenstein": [2, 0, 1]}),
    ("x^2-6", {"f": 1, "eisenstein": [-6, 0, 1]}),
    ("x^3-2", {"f": 1, "eisenstein": [-2, 0, 0, 1]}),
    ("U2", U2),
    ("U3", U3),
)
_CUBIC = tuple(
    (label, spec, a, b) for label, spec in (("Q2", Q2), ("U2", U2)) for a, b in ((1, 1), (1, 2), (2, 2))
)

WORKLOADS = {
    "density": Inputs(density=_DENSITY),
    "density-jobs2": Inputs(density=_DENSITY, jobs=2),
    "tower": Inputs(tower=_TOWER),
    "dedup": Inputs(dedup=(("Q2", Q2, 8), ("sqrt2", SQRT2, 5)), t_m=(4, 6, 8), cubic=_CUBIC),
    "sweep": Inputs(sweep=(12, 8)),
}

# Tiny inputs with the same code paths, for the benchmark's self-test.
QUICK = {
    "density": Inputs(density=(("Q2", Q2, 11), ("U2", U2, 6))),
    "density-jobs2": Inputs(density=(("Q2", Q2, 11), ("U2", U2, 6)), jobs=2),
    "tower": Inputs(tower=(("Q2", Q2), ("x^2-2", SQRT2))),
    "dedup": Inputs(dedup=(("Q2", Q2, 6),), t_m=(4,), cubic=(("Q2", Q2, 1, 1),)),
    "sweep": Inputs(sweep=(3, 2)),
}


@dataclass
class Context:
    inputs: Inputs
    fields: dict
    tuples: list
    obs: dict = field(default_factory=dict)


def setup(inputs: Inputs) -> Context:
    """Import the package, build every field from its spec and derive its parameters."""
    import q2quartic.cli  # noqa: F401  (the sweep's entry point; imports the whole package)
    from q2quartic.padic.field import field_from_spec
    from q2quartic.params import valid_param_sweep

    specs = {}
    for group in (inputs.density, inputs.tower, inputs.dedup, inputs.cubic):
        for label, spec, *_ in group:
            specs[label] = spec
    if inputs.t_m:
        specs["Q2"] = Q2
    fields = {}
    for label, spec in specs.items():
        K = field_from_spec(spec)
        K.derive_params()
        fields[label] = K
    tuples = list(valid_param_sweep(*inputs.sweep)) if inputs.sweep else []
    return Context(inputs, fields, tuples)


def ops(ctx: Context, rng) -> list:
    """The pass's operations as (label, callable); the order is shuffled by rng.

    The sweep's CLI call stays first: it is what warms the counts memo, as
    it would for a user, and the mass checks after it are shuffled.
    """
    inp = ctx.inputs
    body = []
    for label, _, m_max in inp.density:
        body.append((f"density {label} m<={m_max}", _density_op(ctx, label, m_max, inp.jobs)))
    for label, _ in inp.tower:
        body.append((f"tower {label}", _tower_op(ctx, label)))
    for label, _, m_max in inp.dedup:
        body.append((f"dedup {label} m<={m_max}", _dedup_op(ctx, label, m_max)))
    for m in inp.t_m:
        body.append((f"t_m Q2 m={m}", _t_m_op(ctx, m)))
        body.append((f"one_aut Q2 m={m}", _one_aut_op(ctx, m)))
    for label, _, a, b in inp.cubic:
        body.append((f"cubic {label} a={a} b={b}", _cubic_op(ctx, label, a, b)))
    for p in ctx.tuples:
        body.append((f"masses {p.to_json()}", _mass_op(p)))
    rng.shuffle(body)
    if inp.sweep:
        body.insert(0, (f"sweep e<={inp.sweep[0]} f<={inp.sweep[1]}", _sweep_op(ctx)))
    return body


def _record_density(ctx, meta):
    obs = ctx.obs
    obs["leaves"] = obs.get("leaves", 0) + meta["leaves"]
    obs["pruned"] = obs.get("pruned", 0) + meta["pruned"]
    obs["cross_checks"] = obs.get("cross_checks", 0) + meta["root_count_cross_checks"]
    obs["max_depth"] = max(obs.get("max_depth", 0), meta["max_depth"])


def _density_op(ctx, label, m_max, jobs):
    def run():
        from q2quartic.oracle import verify

        K = ctx.fields[label]
        report = verify(K, m_max, methods=("density",), jobs=jobs)
        _record_density(ctx, report.meta["density"])
        problems = checks.rows_pass(report.rows)
        if label == "Q2":
            problems += checks.q2_table(report.rows, "density", m_max)
        if m_max == 8 * K.e_abs + 3:
            problems += checks.serre_mass(report.rows, "density", K.q)
        return problems

    return run


def _tower_op(ctx, label):
    def run():
        from q2quartic.oracle import verify

        K = ctx.fields[label]
        report = verify(K, 8 * K.e_abs + 3, methods=("tower",))
        problems = checks.rows_pass(report.rows) + checks.tower_total(report.rows, K.e_abs * K.f)
        if label == "Q2":
            problems += checks.q2_table(report.rows, "tower", 11, checks.TOWER_GROUPS)
        return problems

    return run


def _dedup_op(ctx, label, m_max):
    def run():
        from q2quartic.oracle import verify

        report = verify(ctx.fields[label], m_max, methods=("dedup",), dedup_m_max=m_max)
        problems = checks.rows_pass(report.rows)
        if label == "Q2":
            problems += checks.q2_table(report.rows, "dedup", m_max)
        return problems

    return run


def _t_m_op(ctx, m):
    def run():
        from q2quartic.oracle import t_m_measure

        return checks.equals(f"mu(T_{m})", t_m_measure(ctx.fields["Q2"], m), checks.t_m_formula(2, m))

    return run


def _one_aut_op(ctx, m):
    def run():
        from q2quartic.oracle import one_aut_measure

        got = one_aut_measure(ctx.fields["Q2"], m)
        return checks.equals(f"mu(P_{m}^1-Aut)", got, checks.one_aut_formula(2, m))

    return run


def _cubic_op(ctx, label, a, b):
    def run():
        from q2quartic.oracle import cubic_congruence_measure

        K = ctx.fields[label]
        got = cubic_congruence_measure(K, a, b)
        return checks.equals(f"cubic {label} ({a},{b})", got, checks.cubic_formula(K.q, a, b))

    return run


def _sweep_op(ctx):
    def run():
        from q2quartic import cli

        e_max, f_max = ctx.inputs.sweep
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.run(["sweep", "--e-max", str(e_max), "--f-max", str(f_max)])
        problems = checks.sweep_summary(rc, out.getvalue(), e_max, f_max)
        want = checks.sweep_tuple_count(e_max, f_max)
        if len(ctx.tuples) != want:
            problems.append(f"valid_param_sweep gave {len(ctx.tuples)} tuples, expected {want}")
        return problems

    return run


def _mass_op(p):
    def run():
        from q2quartic import masses
        from q2quartic.params import GROUP_ORDER

        closed = {g.value: masses.mass_closed_form(p, g) for g in GROUP_ORDER}
        summed = {g.value: masses.mass_from_counts(p, g) for g in GROUP_ORDER}
        return checks.tuple_masses(str(p.to_json()), p.q, closed, summed)

    return run
