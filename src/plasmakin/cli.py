"""Scenario-driven command-line front end.

Subcommands run one pipeline each, write CSV/JSON artifacts atomically
into the output directory and exit with 0 on success, 1 on a
numerical-consistency failure, 2 on an assumption violation
(instability/degenerate dielectric) and 64 on configuration errors.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import (
    RunManifest,
    build_distribution,
    build_grid,
    build_potential,
    compare_manifests,
    load_scenario,
    read_manifest,
    write_csv,
    write_manifest,
)
from .errors import (
    CompareError,
    ConfigError,
    ConsistencyError,
    PlasmakinError,
    ResolutionError,
    SingularConfigurationError,
    StabilityError,
    StepSizeError,
    TruncationError,
)

EXIT_CONSISTENCY = 1
EXIT_ASSUMPTION = 2
EXIT_CONFIG = 64


@contextmanager
def _run(config_path, out, kind):
    """One subcommand run: yields (scenario, out_dir, manifest).

    The manifest is written when the body returns, and a failed check then
    raises ConsistencyError; a body that raises writes no manifest.
    """
    t0 = time.time()
    scn = load_scenario(config_path)
    if scn.kind != kind:
        raise ConfigError(f"scenario kind {scn.kind!r} does not match subcommand {kind!r}")
    if out is not None:
        out_dir = Path(out)
    else:
        out_dir = Path(os.environ.get("PLASMAKIN_OUT_ROOT", ".")) / "plasmakin-out"
    manifest = RunManifest(scenario=dict(scn.values))
    yield scn, out_dir, manifest
    manifest.wall_clock_s = time.time() - t0
    manifest.version = __version__
    write_manifest(out_dir / "manifest.json", manifest)
    click.echo(f"manifest: {out_dir / 'manifest.json'}")
    if not manifest.all_passed():
        raise ConsistencyError("one or more checks failed; see manifest")


def _model(scn):
    from .dielectric import DielectricModel

    distribution = build_distribution(scn)
    return DielectricModel(distribution, build_potential(scn), build_grid(scn, distribution))


def _run_guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except StabilityError as exc:
            click.echo(f"assumption violation: {exc}", err=True)
            sys.exit(EXIT_ASSUMPTION)
        except ConsistencyError as exc:
            click.echo(f"consistency failure: {exc}", err=True)
            sys.exit(EXIT_CONSISTENCY)
        except PlasmakinError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONSISTENCY)

    return wrapper


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path())(fn)
    fn = click.option("--out", "out", default=None, type=click.Path())(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Numerics for equilibrium correlations of long-range particle systems."""


@main.command()
@_common_options
@_run_guard
def penrose(config_path, out):
    """Penrose stability verdict for a (distribution, potential) pair."""
    with _run(config_path, out, "penrose") as (scn, out_dir, manifest):
        from .dielectric import penrose_check

        report = penrose_check(build_distribution(scn), build_potential(scn))
        manifest.diagnostics["verdict"] = report.verdict
        manifest.diagnostics["offenders"] = report.offenders
        manifest.diagnostics["directions"] = report.details["directions"]
        manifest.diagnostics["critical_points"] = report.details["critical_points"]
        manifest.add_check("penrose_conclusive", report.verdict != "INCONCLUSIVE")
        if report.offenders:
            write_csv(
                out_dir / "penrose_offenders.csv",
                {
                    "chi_x": [o["chi"][0] for o in report.offenders],
                    "chi_y": [o["chi"][1] for o in report.offenders],
                    "chi_z": [o["chi"][2] for o in report.offenders],
                    "u": [o["u"] for o in report.offenders],
                    "alpha": [o["alpha"] for o in report.offenders],
                },
                metadata={"scenario": "penrose"},
            )
    if report.verdict == "UNSTABLE":
        raise StabilityError("Penrose criterion: distribution is UNSTABLE")


def _epsilon_at_rest(model, k):
    """ε(k, 0) = 1 - φ̂(|k|)·(PV∫∂_uF(χ,u)/u du - iπ∂_uF(χ,0)), off the FFT path.

    The PV is the singularity-subtracted trapezoid ∫(∂_uF(u) - ∂_uF(0))/u du
    on [-40, 40]: the even node count keeps u = 0 off the grid, and the
    subtracted ∂_uF(0)/u integrates to zero on the symmetric window.
    """
    kmag = float(np.linalg.norm(k))
    chi = np.asarray(k, dtype=float) / kmag
    u = np.linspace(-40.0, 40.0, 8192)
    dF = model.distribution.radon_profile_derivative(chi, u)
    dF0 = float(model.distribution.radon_profile_derivative(chi, np.zeros(1))[0])
    pv = np.trapezoid((dF - dF0) / u, u)
    W = float(model.potential.fourier(np.asarray(kmag)))
    return 1.0 - W * (pv - 1j * np.pi * dF0)


@main.command()
@_common_options
@_run_guard
def dielectric(config_path, out):
    """Dielectric sweeps: ε(k,0), infimum, dispersion roots, α asymptotics."""
    with _run(config_path, out, "dielectric") as (scn, out_dir, manifest):
        model = _model(scn)
        ks = np.asarray(scn.get("k-values", [0.3, 0.5, 1.0, 2.0, 1000.0]))
        eps0 = np.array([model.epsilon(np.array([0, 0, k]), 0.0) for k in ks])
        write_csv(
            out_dir / "epsilon_k0.csv",
            {"k": ks, "re_eps": eps0.real, "im_eps": eps0.imag},
            metadata={"scenario": "dielectric", "u": 0.0},
        )
        inf_val = model.epsilon_infimum()
        manifest.diagnostics["epsilon_infimum"] = inf_val
        manifest.diagnostics["alpha_asymptotics"] = model.alpha_asymptotics_check()
        manifest.diagnostics["strong_stability"] = model.strong_stability_check()
        root_ks = (0.1, 0.2, 0.3)
        rows = model.dispersion_roots(np.array([[0.0, 0.0, k] for k in root_ks]))
        manifest.diagnostics["dispersion_roots"] = [
            {"k": k, "u0_plus": None} if r is None else
            {"k": k, "u0_plus": r.u0_plus, "u0_minus": r.u0_minus,
             "L_plus": r.L_plus, "residual": r.residual_plus}
            for k, r in zip(root_ks, rows)
        ]
        if model.potential.is_coulomb:
            k1 = np.array([0.0, 0.0, 1.0])
            dev = abs(model.epsilon(k1, 0.0) - _epsilon_at_rest(model, k1))
            manifest.add_check("epsilon_k1_u0", dev <= 1e-6, value=dev, tolerance=1e-6)
        manifest.add_check("epsilon_infimum_positive", inf_val > 1e-8, value=inf_val)


@main.command()
@_common_options
@_run_guard
def equilibrium(config_path, out):
    """OWL chain diagnostics: Ĥ_B residual, ray decay, optional slope fits."""
    with _run(config_path, out, "equilibrium") as (scn, out_dir, manifest):
        from .equilibrium import (
            HSolution,
            fit_decay_slope,
            g_B_on_ray,
            h_realspace,
            impact_geometry,
            solve_H,
        )

        x = np.asarray(scn.get("ray-x", [1.0, 0.8, 0.0]))
        v1 = np.asarray(scn.get("ray-v1", [0.6, 0.0, 0.0]))
        v2 = np.asarray(scn.get("ray-v2", [-0.6, 0.0, 0.0]))
        try:
            impact_geometry(x, v1, v2)
        except SingularConfigurationError as exc:
            raise ConfigError(f"key 'ray-v1' / 'ray-v2': {exc}") from exc
        model = _model(scn)
        k_check = scn.get("k-check", 1.0)
        sl = solve_H(model, k_check, validate=False)
        manifest.add_check("owl_residual_l2", sl.residual_l2 <= 1e-5,
                           value=sl.residual_l2, tolerance=1e-5)
        imax = float(np.max(np.abs(np.imag(sl.H_B))))
        manifest.add_check("H_B_real", imax <= 1e-10, value=imax, tolerance=1e-10)
        u = model.grid.points
        write_csv(
            out_dir / "H_chain.csv",
            {"u": u, "H_B": np.real(sl.H_B), "re_A_minus": sl.A_minus.real,
             "im_A_minus": sl.A_minus.imag},
            metadata={"scenario": "equilibrium", "k": k_check},
        )
        hsol = HSolution(model, k_max=20.0 if not model.potential.is_coulomb else 45.0,
                         n_k=160 if not model.potential.is_coulomb else 240)
        manifest.diagnostics["split_slices"] = sum(1 for s in hsol.slices if s.split)
        taus = np.linspace(0.0, scn.get("ray-tau-max", 20.0), 41)
        vals = g_B_on_ray(hsol, x, v1, v2, taus, s_max=10.0, n_s=256, r_nodes=(8, 12, 20))
        write_csv(
            out_dir / "g_B_ray.csv",
            {"tau": taus, "re_g": vals.real, "abs_g": np.abs(vals)},
            metadata={
                "scenario": "equilibrium",
                "x": " ".join(str(v) for v in x),
                "v1": " ".join(str(v) for v in v1),
                "v2": " ".join(str(v) for v in v2),
            },
        )
        ratio = float(np.abs(vals[-1]) / max(np.abs(vals[0]), 1e-300))
        manifest.add_check("bogolyubov_ray_decay", ratio < 0.1, value=ratio, tolerance=0.1)
        if scn.get("slopes", False):
            window = scn.get("slope-window", [5.0, 20.0])
            vslope = scn.get("slope-v", 1.2)
            r = np.geomspace(0.9 * window[0], 1.1 * window[1], 14)
            h = h_realspace(hsol, np.array([0.0, 0.0, vslope]), r,
                            k_max=15.0 if not model.potential.is_coulomb else None)
            slope, resid = fit_decay_slope(r, h, window=tuple(window))
            write_csv(out_dir / "h_realspace.csv", {"r": r, "h_B": h},
                      metadata={"scenario": "equilibrium", "v": vslope})
            manifest.diagnostics["decay_slope"] = slope
            manifest.diagnostics["decay_slope_residual"] = resid


@main.command()
@_common_options
@_run_guard
def cloud(config_path, out):
    """Debye cloud around a (possibly moving) test charge."""
    with _run(config_path, out, "cloud") as (scn, out_dir, manifest):
        from .propagator import debye_cloud

        model = _model(scn)
        sigma = scn.get("sigma", 1.0)
        V0 = np.asarray(scn.get("v0", [0.0, 0.0, 0.0]))
        r = np.geomspace(scn.get("r-min", 0.5), scn.get("r-max", 5.0),
                         int(scn.get("r-count", 25)))
        if np.linalg.norm(V0) > 0:
            r = np.linspace(-scn.get("r-max", 10.0), scn.get("r-max", 10.0),
                            int(scn.get("r-count", 61)))
        res = debye_cloud(model, sigma, V0=V0, r_values=r)
        write_csv(out_dir / "cloud.csv", {"r": r, "rho": res["rho"]},
                  metadata={"scenario": "cloud", "sigma": sigma,
                            "v0": " ".join(str(v) for v in V0)})
        if np.linalg.norm(V0) == 0:
            yukawa = sigma * np.exp(-r) / (4 * np.pi * r)
            dev = float(np.max(np.abs(res["rho"] / yukawa - 1.0)))
            manifest.add_check("yukawa_profile", dev <= 0.01, value=dev, tolerance=0.01)
            charge_dev = abs(res["induced_charge"] - sigma) / sigma
            manifest.add_check("induced_charge", charge_dev <= 0.01,
                               value=charge_dev, tolerance=0.01)
        manifest.diagnostics.update(
            {k: v for k, v in res.items() if k in
             ("induced_charge", "epsilon_floor", "epsilon_floor_at_rest",
              "hermiticity_defect", "degeneracy_warning")}
        )


@main.command()
@_common_options
@_run_guard
def evolve(config_path, out):
    """Per-mode linear evolution; optional pair-correlation weak convergence."""
    with _run(config_path, out, "evolve") as (scn, out_dir, manifest):
        if build_potential(scn).is_coulomb:
            raise ConfigError("evolve needs a soft potential: set potential = gaussian or zero")
        from .propagator import (
            BromwichContour,
            GaussianTestFunction,
            PairPropagator,
            UProfile,
            causal_gamma,
            contour_nodes,
            evolve_density,
            vlasov_laplace_eval,
        )

        k = float(scn.get("k", 0.5))
        t_max = float(scn.get("t-max", 10.0))
        amp = float(scn.get("amplitude", 0.1))
        dt = float(scn.get("dt", 0.01))
        pair = scn.get("pair", False)
        store_every = 20  # RK4 steps per row of evolve.csv
        n_steps = round(t_max / dt)
        if n_steps < store_every:
            # dt > t-max takes no step; fewer than store_every steps store
            # no row past t = 0, and the cross-method check would read one point
            raise ConfigError(f"key 'dt': t-max/dt rounds to {n_steps} RK4 steps, fewer than "
                              f"the {store_every} between rows of evolve.csv")
        model = _model(scn)
        # size every Bromwich contour before the RK4 run, so that a t-max no
        # contour reaches fails at once
        t_end = n_steps * dt  # the RK4's last time
        try:
            contour_nodes(causal_gamma(t_end), BromwichContour.height, t_end)
            pp = PairPropagator(model, t_max=max(t_max, 30.0) + 5.0) if pair else None
        except TruncationError as exc:
            raise ConfigError(f"key 't-max': {exc}") from exc
        u = model.grid.points
        H0 = amp * np.exp(-0.5 * u**2 / 1.5)
        kvec = np.array([0.0, 0.0, k])
        try:
            ts, rhos, _ = evolve_density(model, kvec, H0, t_max, dt=dt, store_every=store_every)
        except StepSizeError as exc:
            raise ConfigError(f"key 'dt': {exc} at k = {k:g} on the grid's u_max = "
                              f"{model.grid.u_max:g}") from exc
        H0_profile = UProfile([(amp * np.sqrt(3.0 * np.pi), np.sqrt(1.5), 0)])
        _, rho_l, drift = vlasov_laplace_eval(model, kvec, H0_profile, ts,
                                              richardson_check=True)
        # relative to max|ρ̂|; with amplitude 0 both series vanish and the
        # check reads their absolute difference
        scale = np.max(np.abs(rhos))
        cross = float(np.max(np.abs(rhos - rho_l)) / (scale if scale > 0 else 1.0))
        manifest.add_check("cross_method_density", cross <= 1e-4, value=cross, tolerance=1e-4)
        manifest.diagnostics["bromwich_drift"] = drift
        columns = {"t": ts, "k": np.full_like(ts, k),
                   "re_rho": rhos.real, "im_rho": rhos.imag}
        if pair:
            test = GaussianTestFunction(*scn.get("test-sigmas", [1.5, 1.0, 1.0]))
            pair_vals = pp.psi_pairing(test, ts)
            target = pp.g_B_pairing(test)
            columns["weak_gap"] = np.abs(pair_vals - target)
            manifest.diagnostics["g_B_pairing"] = target.real
        write_csv(out_dir / "evolve.csv", columns,
                  metadata={"scenario": "evolve", "k": k})


@main.command()
@_common_options
@_run_guard
def kernel(config_path, out):
    """Balescu-Lenard tensor sweeps and collision right-hand-side checks."""
    with _run(config_path, out, "kernel") as (scn, out_dir, manifest):
        if not build_distribution(scn).is_isotropic:
            raise ConfigError("kernel needs an isotropic distribution: drift must be zero "
                              "and distribution one of maxwellian, two-temperature, exponential")
        from .kernel import (
            MAX_LATTICE_N,
            _landau_summary,
            bl_rhs,
            bl_tensor,
            collision_diagnostics,
            maxwellian_field,
        )

        # the collision lattice is checked before the tensor sweep writes its CSV
        n_lat = int(scn.get("lattice-n", 17))
        if n_lat > MAX_LATTICE_N:
            raise ConfigError(f"key 'lattice-n': {n_lat} is above {MAX_LATTICE_N}, the largest "
                              f"lattice of the O(n⁶) collision sum")
        try:
            field = maxwellian_field(1.0, 1.0, half_width=scn.get("half-width", 6.0), n=n_lat)
        except ResolutionError as exc:
            key = "lattice-n" if "lattice" in str(exc) else "half-width"
            raise ConfigError(f"key {key!r}: {exc}") from exc
        model = _model(scn)
        w = np.asarray(scn.get("w", [0.8, -0.3, 0.5]))
        v = np.asarray(scn.get("v", [0.4, 0.2, 0.1]))
        k_list = scn.get("k-max-list", [100.0, 1000.0])
        rows = {"K_max": [], "a11": [], "a22": [], "a33": [], "a12": [], "a13": [], "a23": []}
        tensors = []
        for K in k_list:
            ten = bl_tensor(model, w, v, K_max=K if model.potential.is_coulomb else None)
            tensors.append(ten)
            rows["K_max"].append(K)
            for (i, j), name in zip(
                [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)],
                ["a11", "a22", "a33", "a12", "a13", "a23"],
            ):
                rows[name].append(ten.matrix[i, j])
        write_csv(out_dir / "tensor_vs_cutoff.csv", rows, metadata={"scenario": "kernel"})
        if model.potential.is_coulomb:
            rep = _landau_summary(tensors)
            manifest.diagnostics["landau_limit"] = {
                k2: v2 for k2, v2 in rep.items() if k2 != "rows"
            }
            manifest.add_check("transverse_ratio",
                               abs(rep["transverse_ratio"] - 1) <= 0.01,
                               value=rep["transverse_ratio"])
        dtf = bl_rhs(model, field, K_max=max(k_list) if model.potential.is_coulomb else None)
        diag = collision_diagnostics(field, dtf)
        manifest.diagnostics["collision"] = diag
        manifest.add_check("maxwellian_zero_flux",
                           diag["max_rate"] <= 1e-3 * diag["max_f"],
                           value=diag["max_rate"] / diag["max_f"], tolerance=1e-3)
        manifest.add_check("mass_conservation",
                           abs(diag["mass_rate"]) <= 1e-8 * diag["max_f"],
                           value=abs(diag["mass_rate"]) / diag["max_f"], tolerance=1e-8)
        manifest.add_check("entropy_production",
                           diag["entropy_production"] >= -1e-6,
                           value=diag["entropy_production"], tolerance=-1e-6)


@main.command()
@click.argument("manifest_a", type=click.Path(exists=True))
@click.argument("manifest_b", type=click.Path(exists=True))
@click.option("--tolerance", default=1e-9, type=float)
@_run_guard
def compare(manifest_a, manifest_b, tolerance):
    """Numeric diff of two run manifests (regression baseline check)."""
    try:
        a = read_manifest(manifest_a)
        b = read_manifest(manifest_b)
        diffs = compare_manifests(a, b, tolerance=tolerance)
    except CompareError as exc:
        click.echo(f"comparison error: {exc}", err=True)
        sys.exit(EXIT_CONSISTENCY)
    if not diffs:
        click.echo("manifests agree within tolerance")
        return
    for key in sorted(diffs):
        d = diffs[key]
        click.echo(f"{key}: a={d['a']} b={d['b']} rel={d['rel']:.3e}")
    raise ConsistencyError(f"{len(diffs)} fields differ beyond tolerance {tolerance}")


if __name__ == "__main__":
    main()
