"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.
"""

import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner
from oracles import pv_quadrature

from plasmakin.cli import main as cli_main
from plasmakin.config import read_manifest
from plasmakin.dielectric import DielectricModel, penrose_check
from plasmakin.distributions import BumpMixture, ExponentialFamily, Maxwellian
from plasmakin.equilibrium import (
    HSolution,
    fit_decay_slope,
    g_B_on_ray,
    g_hat,
    h_realspace,
    marginal_check,
    solve_H,
)
from plasmakin.kernel import (
    bl_rhs,
    bl_tensor,
    collision_diagnostics,
    landau_limit,
    maxwellian_field,
)
from plasmakin.potentials import CoulombPotential, gaussian_soft
from plasmakin.propagator import (
    FluxEvaluator,
    GaussianTestFunction,
    PairPropagator,
    SeparableGaussianPair,
    debye_cloud,
    evolve_density,
    flux_limit,
    vlasov_laplace_eval,
)
from plasmakin.transforms import LineProfile, UGrid, pv_transform

LINE_KW = dict(s_max=10.0, n_s=256, r_nodes=(8, 12, 20))


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.start = time.time()
        self.rows = []

    def check(self, name, ok, detail=""):
        self.rows.append((name, bool(ok), detail))

    def finish(self):
        elapsed = time.time() - self.start
        ok = all(r[1] for r in self.rows)
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.label}]: {status} "
              f"({elapsed:.1f}s / budget {self.budget}s)", file=sys.stderr)
        for name, good, detail in self.rows:
            mark = "ok" if good else "FAIL"
            print(f"    {mark:4s} {name} {detail}", file=sys.stderr)
        assert ok, f"criterion {self.number} failed: " + "; ".join(
            n for n, g, _ in self.rows if not g
        )
        assert elapsed < 2.0 * self.budget, f"criterion {self.number} over budget"


def test_criterion_1_plemelj_suite():
    crit = Criterion(1, "Plemelj suite", 5)
    grid = UGrid(12.0, 1024)
    u = grid.points
    rng = np.random.default_rng(1)
    worst_rec = 0.0
    for _ in range(3):
        vals = (rng.normal() + 1j * rng.normal()) * np.exp(
            -0.5 * ((u - rng.normal()) / (1 + rng.random())) ** 2
        )
        p = LineProfile(grid, vals)
        pv = pv_transform(p).values
        plus, minus = pv + 1j * np.pi * vals, pv - 1j * np.pi * vals
        worst_rec = max(worst_rec, float(np.max(np.abs((plus - minus) / (2j * np.pi) - vals))))
    crit.check("reconstruction <= 1e-8", worst_rec <= 1e-8, f"sup={worst_rec:.2e}")

    corpus = []
    corpus.append((grid, np.exp(-0.5 * (u - 1.3) ** 2)))
    wide = UGrid(800.0, 65536)
    corpus.append((wide, 1.0 / (1.0 + wide.points**2)))
    x = np.clip(1 - (u / 4.0) ** 2, 1e-300, None)
    corpus.append((grid, np.where(np.abs(u) < 4.0, np.exp(-1.0 / x), 0.0)))
    worst = 0.0
    for g, vals in corpus:
        p = LineProfile(g, vals)
        fft_path = pv_transform(p).values
        idx = np.arange(1, g.n - 1, max(1, g.n // 256))
        idx = idx[np.abs(g.points[idx]) <= 0.75 * g.u_max]
        worst = max(worst, float(np.max(np.abs(fft_path[idx] - pv_quadrature(p, idx)))))
    crit.check("fft vs quadrature <= 1e-6", worst <= 1e-6, f"sup={worst:.2e}")
    crit.finish()


def test_criterion_2_debye_screening_oracle():
    crit = Criterion(2, "Debye screening oracle", 30)
    model = DielectricModel(Maxwellian(), CoulombPotential())
    r = np.geomspace(0.5, 5.0, 25)
    res = debye_cloud(model, sigma=1.0, r_values=r)
    yukawa = np.exp(-r) / (4 * np.pi * r)
    dev = float(np.max(np.abs(res["rho"] / yukawa - 1.0)))
    crit.check("cloud vs sigma e^-r/(4 pi r) <= 1%", dev <= 0.01, f"max={dev:.2e}")
    qdev = abs(res["induced_charge"] - 1.0)
    crit.check("induced charge = sigma <= 1%", qdev <= 0.01, f"dev={qdev:.2e}")
    crit.finish()


def test_criterion_3_dielectric_checks():
    crit = Criterion(3, "dielectric checks", 10)
    model = DielectricModel(Maxwellian(), CoulombPotential())
    kz = np.array([0.0, 0.0, 1.0])
    err = abs(model.epsilon(kz, 0.0) - 2.0)
    crit.check("eps(1,0) = 1 + 1/k^2 <= 1e-6", err <= 1e-6, f"err={err:.2e}")
    far = abs(model.epsilon(1e3 * kz, 0.37) - 1.0)
    crit.check("|eps-1| <= 1e-4 at |k|=1e3", far <= 1e-4, f"val={far:.2e}")
    v1 = penrose_check(Maxwellian(), CoulombPotential()).verdict
    crit.check("Maxwellian STABLE", v1 == "STABLE", v1)
    bump = BumpMixture([(0.5, (0, 0, 4.0), 1.0), (0.5, (0, 0, -4.0), 1.0)])
    v2 = penrose_check(bump, CoulombPotential()).verdict
    crit.check("two-bump UNSTABLE", v2 == "UNSTABLE", v2)
    crit.finish()


@pytest.fixture(scope="module")
def soft_maxwellian_chain():
    model = DielectricModel(Maxwellian(), gaussian_soft())
    return model, HSolution(model, k_max=20.0, n_k=160)


def test_criterion_4_equilibrium_chain(soft_maxwellian_chain):
    crit = Criterion(4, "equilibrium chain", 120)
    model_mc = DielectricModel(Maxwellian(), CoulombPotential())
    sl = solve_H(model_mc, 1.0, validate=False)
    crit.check("eq H residual <= 1e-5 (L2)", sl.residual_l2 <= 1e-5,
               f"res={sl.residual_l2:.2e}")
    imax = float(np.max(np.abs(np.imag(sl.H_B))))
    crit.check("H_B real <= 1e-10", imax <= 1e-10, f"im={imax:.2e}")

    model_ms, hsol_ms = soft_maxwellian_chain
    rep = marginal_check(hsol_ms, x_magnitudes=(1.0, 3.0, 5.0), v1_magnitude=0.5,
                         n_q=12, n_phi=10, **LINE_KW)
    crit.check("marginal identity <= 5%", rep["max_rel_dev"] <= 0.05,
               f"max={rep['max_rel_dev']:.3f}")

    hsol_mc = HSolution(model_mc)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(8):
        k = rng.normal(size=3) * 0.8
        v1, v2 = rng.normal(size=3), rng.normal(size=3)
        a = g_hat(hsol_mc, k, v1, v2)
        b = g_hat(hsol_mc, -k, v2, v1)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    crit.check("g_B exchange symmetry <= 1e-8", worst <= 1e-8, f"max={worst:.2e}")
    crit.finish()


def test_criterion_5_screening_exponents(soft_maxwellian_chain):
    crit = Criterion(5, "screening exponents", 300)
    mixture = BumpMixture([(0.75, (0, 0, 0), 1.0), (0.25, (0, 0, 0), 1.35)])
    r = np.geomspace(4.5, 21.5, 14)
    v = np.array([0.0, 0.0, 1.2])

    sol_soft = HSolution(DielectricModel(mixture, gaussian_soft()), k_max=20.0, n_k=160)
    slope_soft, _ = fit_decay_slope(r, h_realspace(sol_soft, v, r, k_max=15.0))
    crit.check("soft slope in [2.5, 3.5]", 2.5 <= slope_soft <= 3.5,
               f"slope={slope_soft:.2f}")

    sol_cm = HSolution(DielectricModel(mixture, CoulombPotential()))
    slope_cm, _ = fit_decay_slope(r, h_realspace(sol_cm, v, r))
    crit.check("Coulomb-Maxwellian slope >= 3.5", slope_cm >= 3.5,
               f"slope={slope_cm:.2f}")

    sol_ce = HSolution(DielectricModel(ExponentialFamily(gamma=1), CoulombPotential()))
    slope_ce, _ = fit_decay_slope(r, h_realspace(sol_ce, v, r))
    crit.check("Coulomb-exponential slope >= 2.5", slope_ce >= 2.5,
               f"slope={slope_ce:.2f}")
    crit.check("exponential below Maxwellian by >= 0.5",
               slope_ce <= slope_cm - 0.5, f"gap={slope_cm - slope_ce:.2f}")

    _, hsol_ms = soft_maxwellian_chain
    taus = np.linspace(0.0, 20.0, 21)
    vals = g_B_on_ray(hsol_ms, np.array([1.0, 0.8, 0.0]),
                      np.array([0.6, 0.0, 0.0]), np.array([-0.6, 0.0, 0.0]),
                      taus, **LINE_KW)
    ratio = float(np.abs(vals[-1]) / np.abs(vals[0]))
    crit.check("Bogolyubov ray decay < 10% by tau=20", ratio < 0.10,
               f"ratio={ratio:.2e}")
    crit.finish()


def test_criterion_6_propagator_stability(soft_maxwellian_chain):
    crit = Criterion(6, "propagator stability", 600)
    model_ms, hsol_ms = soft_maxwellian_chain
    grid = model_ms.grid
    H0 = 0.1 * np.exp(-0.5 * grid.points**2 / 1.5)
    kz = np.array([0.0, 0.0, 0.5])
    ts, rhos, _ = evolve_density(model_ms, kz, H0, 10.0, dt=0.005, store_every=50)
    _, rho_l = vlasov_laplace_eval(model_ms, kz, H0, ts)
    cross = float(np.max(np.abs(rhos - rho_l)) / np.max(np.abs(rhos)))
    crit.check("cross-method density <= 1e-4", cross <= 1e-4, f"err={cross:.2e}")

    pp = PairPropagator(model_ms, t_max=35.0)
    corpus = [GaussianTestFunction(sx, 1.0, 1.0) for sx in (1.0, 1.5, 2.5)]
    worst = 0.0
    for test in corpus:
        vals = pp.psi_pairing(test, np.array([1.0, 30.0]))
        target = pp.g_B_pairing(test, hsol_ms)
        ratio = abs(vals[1] - target) / abs(vals[0] - target)
        worst = max(worst, float(ratio))
    crit.check("weak gap at t=30 <= 5% of t=1 (3 test fns)", worst <= 0.05,
               f"worst={worst:.2e}")

    mixture = BumpMixture([(0.85, (0, 0, 0), 1.0), (0.15, (0, 0, 0), 1.3)])
    model_mix = DielectricModel(mixture, gaussian_soft())
    Jinf = flux_limit(model_mix, 1.2)
    fe = FluxEvaluator(model_mix, t_max=35.0)
    Jt = fe.flux_J(np.array([30.0]), 1.2)[0]
    fdev = abs(Jt - Jinf) / abs(Jinf)
    crit.check("flux |J(30)-J_inf| <= 5%", fdev <= 0.05, f"dev={fdev:.3f}")

    g0 = SeparableGaussianPair(1.0, 1.0, 1.2, amplitude=0.5)
    Jl = fe.flux_lambda(g0, np.array([1.0, 30.0]), 1.2)
    lam_ratio = abs(Jl[1]) / abs(Jl[0])
    crit.check("lambda flux < 10% of initial", lam_ratio < 0.10,
               f"ratio={lam_ratio:.2e}")
    crit.finish()


def test_criterion_7_kernel_structure():
    crit = Criterion(7, "kernel structure", 600)
    model_mc = DielectricModel(Maxwellian(), CoulombPotential())
    model_ms = DielectricModel(Maxwellian(), gaussian_soft())
    rng = np.random.default_rng(3)
    worst_perp, worst_eig = 0.0, 0.0
    for _ in range(4):
        w, v = rng.normal(size=3), rng.normal(size=3)
        t = bl_tensor(model_mc, w, v, K_max=100.0)
        worst_perp = max(worst_perp,
                         np.linalg.norm(t.matrix @ w) / np.linalg.norm(t.matrix))
        worst_eig = min(worst_eig, float(np.min(t.eigenvalues()) / np.trace(t.matrix)))
    crit.check("a.w = 0 <= 1e-8", worst_perp <= 1e-8, f"max={worst_perp:.2e}")
    crit.check("PSD floor -1e-10 tr", worst_eig >= -1e-10, f"min={worst_eig:.2e}")

    rep = landau_limit(model_mc, np.array([0.8, -0.3, 0.5]),
                       np.array([0.4, 0.2, 0.1]), K_max_list=(1e2, 1e3))
    crit.check("transverse ratio in [0.99, 1.01]",
               0.99 <= rep["transverse_ratio"] <= 1.01,
               f"ratio={rep['transverse_ratio']:.4f}")
    crit.check("longitudinal/transverse <= 0.05",
               rep["longitudinal_over_transverse"] <= 0.05,
               f"val={rep['longitudinal_over_transverse']:.2e}")
    crit.check("normalized drift <= 5%", rep["normalized_drift"] <= 0.05,
               f"drift={rep['normalized_drift']:.3f}")

    field = maxwellian_field(1.0, 1.0, n=21)
    dtf = bl_rhs(model_ms, field)
    diag = collision_diagnostics(field, dtf)
    crit.check("Maxwellian zero flux <= 1e-3 max f",
               diag["max_rate"] <= 1e-3 * diag["max_f"],
               f"rate={diag['max_rate'] / diag['max_f']:.2e}")
    crit.check("mass conservation <= 1e-8 max f",
               abs(diag["mass_rate"]) <= 1e-8 * diag["max_f"],
               f"rate={abs(diag['mass_rate']) / diag['max_f']:.2e}")

    ax = field.axis
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    r2 = X**2 + Y**2 + Z**2
    from plasmakin.kernel import VelocityGridField

    pert = VelocityGridField(
        field.half_width, field.n,
        np.maximum(field.values * (1 + 0.08 * np.exp(-0.5 * r2) * (r2 - 1.5)), 0.0),
    )
    diag_p = collision_diagnostics(pert, bl_rhs(model_ms, pert))
    crit.check("entropy production >= -1e-6",
               diag_p["entropy_production"] >= -1e-6,
               f"val={diag_p['entropy_production']:.2e}")
    crit.finish()


def test_criterion_8_determinism(tmp_path):
    crit = Criterion(8, "determinism", 120)
    runner = CliRunner()
    cfg = tmp_path / "cloud.cfg"
    cfg.write_text(
        "scenario = cloud\ndistribution = maxwellian\npotential = coulomb\n"
        "sigma = 1.0\nr-count = 16\n"
    )
    bodies = []
    for name in ("r1", "r2"):
        res = runner.invoke(cli_main, ["cloud", "--config", str(cfg),
                                       "--out", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        bodies.append((tmp_path / name / "cloud.csv").read_bytes())
    crit.check("repeated runs byte-identical", bodies[0] == bodies[1])

    fine = tmp_path / "fine.cfg"
    fine.write_text("extends = cloud.cfg\ngrid-n = 2048\n")
    res = runner.invoke(cli_main, ["cloud", "--config", str(fine),
                                   "--out", str(tmp_path / "r3")])
    assert res.exit_code == 0, res.output
    a = read_manifest(tmp_path / "r1" / "manifest.json")
    b = read_manifest(tmp_path / "r3" / "manifest.json")
    drift = abs(a.diagnostics["induced_charge"] - b.diagnostics["induced_charge"])
    crit.check("refined rerun within tolerance (charge)", drift <= 1e-3,
               f"drift={drift:.2e}")
    res = runner.invoke(cli_main, ["compare",
                                   str(tmp_path / "r1" / "manifest.json"),
                                   str(tmp_path / "r2" / "manifest.json")])
    crit.check("compare: identical manifests agree", res.exit_code == 0)
    crit.finish()
