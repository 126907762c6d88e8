"""Benchmark workloads: inputs made from a seed, operations and their checks.

An operation is one CLI invocation, run in-process through
`plasmakin.cli.main(args, standalone_mode=False)`, or one library step the
CLI cannot reach.  Each operation builds its own models, as the CLI does.
The seed changes only values that leave the work counts unchanged (drift
directions, speeds, amplitudes, temperatures); grid sizes, lattice sizes,
quadrature orders and the kind of every input are fixed per workload.

Tolerances are those of the program's manifest checks and of
tests/test_acceptance.py; none is fitted to the current output.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("collisions", "screening", "relaxation", "sweep")

# correlation-line quadrature of acceptance criteria 4 and 5
LINE_KW = dict(s_max=10.0, n_s=256, r_nodes=(8, 12, 20))


@dataclass
class Outcome:
    """Verdict on one operation.

    `failed` counts toward ops_failed: exit 1, an uncaught exception, or a
    failed manifest or benchmark check.  `incorrect` marks a wrong answer the
    program did not report itself: exit 0 while a check fails, or a wrong
    Penrose verdict.  `reasons` names every failing check.
    """

    failed: bool = False
    incorrect: bool = False
    reasons: list = field(default_factory=list)
    exit_code: int | None = None
    info: dict = field(default_factory=dict)


def classify(code, failed_checks, bench_failures, verdict=None, expect_unstable=False):
    """Turn a CLI exit code and check results into an `Outcome`.

    Exit 2 with verdict UNSTABLE is the correct answer where instability is
    expected; exit 1 is a failure the program reported itself.
    """
    reasons = [f"manifest:{name}" for name in failed_checks]
    if code == 0:
        reasons += [f"bench:{name}" for name in bench_failures]
        if expect_unstable:
            reasons.append(f"bench:expected UNSTABLE, got {verdict}")
        bad = bool(reasons)
        return Outcome(failed=bad, incorrect=bad, reasons=reasons, exit_code=code)
    if code == 2 and verdict == "UNSTABLE":
        if expect_unstable:
            return Outcome(exit_code=code, reasons=reasons, failed=bool(reasons))
        return Outcome(failed=True, incorrect=True, exit_code=code,
                       reasons=reasons + ["bench:unexpected UNSTABLE verdict"])
    if not reasons:
        reasons = [f"exit {code}"]
    return Outcome(failed=True, exit_code=code, reasons=reasons)


def _finite_csvs(out_dir):
    checks = []
    for path in sorted(out_dir.glob("*.csv")):
        body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]
        values = np.array([float(x) for ln in body for x in ln.split(",")])
        checks.append((f"finite:{path.name}", bool(np.all(np.isfinite(values)))))
    return checks


class CliOp:
    """One `plasmakin <subcommand> --config <file> --out <dir>` invocation.

    `checks(manifest)` returns extra [(check name, passed)] for a run that
    exits 0; every CSV it writes must also hold finite numbers only.
    """

    def __init__(self, name, work, subcommand, config_text, checks=None,
                 expect_unstable=False):
        self.name = name
        self.subcommand = subcommand
        self.config = work / f"{name}.cfg"
        self.config.write_text(config_text)
        self.out = work / "out" / name
        self.checks = checks
        self.expect_unstable = expect_unstable

    def run(self):
        from plasmakin import cli

        args = [self.subcommand, "--config", str(self.config), "--out", str(self.out)]
        sink = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main(args, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        manifest = json.loads((self.out / "manifest.json").read_text())
        failed_checks = [c["name"] for c in manifest["checks"] if not c["passed"]]
        bench_failures = []
        if code == 0:
            checks = _finite_csvs(self.out)
            if self.checks is not None:
                checks += self.checks(manifest)
            bench_failures = [name for name, ok in checks if not ok]
        outcome = classify(code, failed_checks, bench_failures,
                           manifest["diagnostics"].get("verdict"), self.expect_unstable)
        if outcome.failed and not failed_checks and code not in (0, 2):
            outcome.reasons.append(sink.getvalue().strip().splitlines()[-1])
        return outcome

    def csv_bytes(self):
        return [(p.name, p.read_bytes()) for p in sorted(self.out.glob("*.csv"))]


class LibraryOp:
    """One library step; `fn` returns ([(check name, passed)], info)."""

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def run(self):
        checks, info = self.fn()
        bad = [name for name, ok in checks if not ok]
        return Outcome(failed=bool(bad), incorrect=bool(bad),
                       reasons=[f"bench:{n}" for n in bad], info=info)


def run_op(op, warning_counts):
    """Run one operation; exceptions become failures; warnings are counted."""
    from spans import classify_warning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = op.run()
        except Exception as exc:  # boundary: one failed operation, the run goes on
            traceback.print_exc()
            outcome = Outcome(failed=True, reasons=[f"exception:{type(exc).__name__}: {exc}"])
    for w in caught:
        key = classify_warning(str(w.message))
        warning_counts[key] = warning_counts.get(key, 0) + 1
    return outcome


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _vec(v):
    return " ".join(repr(float(x)) for x in v)


def collisions(rng, work):
    """CLI kernel default run; library bl_rhs on a perturbed Maxwellian."""

    def kernel_checks(manifest):
        rep = manifest["diagnostics"]["landau_limit"]
        return [
            ("longitudinal_over_transverse<=0.05", rep["longitudinal_over_transverse"] <= 0.05),
            ("normalized_drift<=0.05", rep["normalized_drift"] <= 0.05),
        ]

    amplitude = float(rng.uniform(0.04, 0.08))

    def perturbed_rhs():
        from plasmakin import dielectric, kernel, potentials
        from plasmakin.distributions import Maxwellian

        model = dielectric.DielectricModel(Maxwellian(), potentials.gaussian_soft())
        field = kernel.maxwellian_field(1.0, 1.0, n=17)
        ax = field.axis
        X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
        r2 = X**2 + Y**2 + Z**2
        pert = kernel.VelocityGridField(
            field.half_width, field.n,
            np.maximum(field.values * (1 + amplitude * np.exp(-0.5 * r2) * (r2 - 1.5)), 0.0),
        )
        diag = kernel.collision_diagnostics(pert, kernel.bl_rhs(model, pert))
        # criterion 7 gates; the rate must also exceed the Maxwellian
        # zero-flux level, so the perturbed bracket cannot be skipped
        return [
            ("mass_conservation<=1e-8*max_f", abs(diag["mass_rate"]) <= 1e-8 * diag["max_f"]),
            ("entropy_production>=-1e-6", diag["entropy_production"] >= -1e-6),
            ("rate_above_zero_flux_level", diag["max_rate"] > 1e-3 * diag["max_f"]),
        ], {"amplitude": amplitude, "diagnostics": diag}

    return [
        CliOp("kernel", work, "kernel", "scenario = kernel\n", kernel_checks),
        LibraryOp("bl_rhs_perturbed", perturbed_rhs),
    ]


def screening(rng, work):
    """Coulomb-mixture OWL chain with slopes, Debye clouds, marginal identity."""
    speed = float(rng.uniform(0.2, 0.8))
    v0 = speed * _unit_vector(rng)

    def slope_check(manifest):
        # criterion 5: Coulomb, Maxwellian-type mixture decays at least as r^-3.5
        return [("decay_slope>=3.5", manifest["diagnostics"]["decay_slope"] >= 3.5)]

    def moving_cloud_checks(manifest):
        # debye_cloud's own Langmuir-regime threshold
        return [("epsilon_floor>=1e-3", manifest["diagnostics"]["epsilon_floor"] >= 1e-3)]

    def marginal():
        from plasmakin import dielectric, equilibrium, potentials
        from plasmakin.distributions import Maxwellian

        model = dielectric.DielectricModel(Maxwellian(), potentials.gaussian_soft())
        hsol = equilibrium.HSolution(model, k_max=20.0, n_k=160)
        rep = equilibrium.marginal_check(hsol, x_magnitudes=(1.0,), v1_magnitude=0.5,
                                         n_q=12, n_phi=10, **LINE_KW)
        return [("marginal_identity<=5%", rep["max_rel_dev"] <= 0.05)], {
            "max_rel_dev": rep["max_rel_dev"]}

    return [
        CliOp("equilibrium", work, "equilibrium",
              "scenario = equilibrium\ndistribution = two-temperature\n"
              "mixture-weights = 0.75 0.25\nmixture-sigmas = 1.0 1.35\nslopes = true\n",
              slope_check),
        CliOp("cloud_rest", work, "cloud", "scenario = cloud\n"),
        CliOp("cloud_moving", work, "cloud", f"scenario = cloud\nv0 = {_vec(v0)}\n",
              moving_cloud_checks),
        LibraryOp("marginal_check", marginal),
    ]


def relaxation(rng, work):
    """Soft-Maxwellian evolve with pairing; mixture flux against its limit."""
    amplitude = float(rng.uniform(0.05, 0.15))
    k = float(rng.uniform(0.4, 0.6))
    sigma_x = float(rng.uniform(1.0, 2.5))

    def flux():
        from plasmakin import dielectric, potentials, propagator
        from plasmakin.distributions import BumpMixture

        mixture = BumpMixture([(0.85, (0, 0, 0), 1.0), (0.15, (0, 0, 0), 1.3)])
        model = dielectric.DielectricModel(mixture, potentials.gaussian_soft())
        j_inf = propagator.flux_limit(model, 1.2)
        j_t = propagator.FluxEvaluator(model, t_max=35.0).flux_J(np.array([30.0]), 1.2)[0]
        dev = abs(j_t - j_inf) / abs(j_inf)
        # criterion 6
        return [("flux_J(30)_within_5%_of_limit", dev <= 0.05)], {"rel_dev": float(dev)}

    return [
        CliOp("evolve", work, "evolve",
              "scenario = evolve\npotential = gaussian\npair = true\n"
              f"amplitude = {amplitude!r}\nk = {k!r}\ntest-sigmas = {sigma_x!r} 1.0 1.0\n"),
        LibraryOp("flux_J", flux),
    ]


SWEEP_REPEATS = 30


def _family_config(family, rep, rng):
    if family == "drifted":
        drift = float(rng.uniform(0.1, 0.6)) * _unit_vector(rng)
        # hotter than the unit Maxwellian: colder drifted Maxwellians can end
        # strong_stability_check's scan early, so the work would vary with the seed
        temperature = float(rng.uniform(1.1, 1.4))
        return f"distribution = maxwellian\ndrift = {_vec(drift)}\ntemperature = {temperature!r}\n"
    if family == "mixture":
        w1 = float(rng.uniform(0.6, 0.9))
        s1, s2 = float(rng.uniform(0.8, 1.0)), float(rng.uniform(1.2, 1.6))
        return (f"distribution = two-temperature\nmixture-weights = {w1!r} {1.0 - w1!r}\n"
                f"mixture-sigmas = {s1!r} {s2!r}\n")
    gamma = 1 if rep % 2 == 0 else 2
    return (f"distribution = exponential\ngamma = {gamma}\n"
            f"modulation = {float(rng.uniform(0.0, 0.5))!r}\n")


def sweep(rng, work):
    """Short penrose/dielectric runs over seeded stable families."""
    ops = []
    for rep in range(SWEEP_REPEATS):
        for family in ("drifted", "mixture", "exponential"):
            body = _family_config(family, rep, rng)
            for potential in ("coulomb", "soft"):
                pot = "potential = coulomb\n"
                if potential == "soft":
                    pot = (f"potential = gaussian\n"
                           f"potential-amplitude = {float(rng.uniform(0.3, 1.0))!r}\n"
                           f"potential-width = {float(rng.uniform(0.8, 1.5))!r}\n")
                for command in ("penrose", "dielectric"):
                    name = f"{command}_{family}_{potential}_{rep}"
                    ops.append(CliOp(name, work, command,
                                     f"scenario = {command}\n{body}{pot}"))
    ops.append(CliOp("penrose_two_bump", work, "penrose",
                     "scenario = penrose\ndistribution = two-bump\n", expect_unstable=True))
    return ops


def build(workload, seed, work):
    """Generate the workload's inputs under `work` and return its operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    work = Path(work)
    (work / "out").mkdir(parents=True, exist_ok=True)
    return globals()[workload](np.random.default_rng(seed), work)
