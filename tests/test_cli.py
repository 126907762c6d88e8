"""Scenario front end: exit codes, determinism, atomicity, compare."""

import hashlib
import inspect
import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import quad

from plasmakin.cli import _epsilon_at_rest, main
from plasmakin.config import (
    _COMMON_KEYS,
    _SCENARIO_KEYS,
    RunManifest,
    build_distribution,
    build_grid,
    compare_manifests,
    load_scenario,
    read_manifest,
    write_manifest,
)
from plasmakin.dielectric import DielectricModel
from plasmakin.distributions import ExponentialFamily, Maxwellian
from plasmakin.errors import CompareError, ConfigError
from plasmakin.potentials import CoulombPotential
from plasmakin.transforms import UGrid


# SHA-256 of evolve.csv's t, k, re_rho and im_rho columns at the defaults
# with pair = true (see `test_evolve_density_columns_pinned`)
EVOLVE_RHO_SHA256 = "0f87784f2cec2ac7e0703cd2d2f2dae903e914a865961c783806308806daae5f"


# (subcommand, config lines, the key its error must name): zero wavenumbers
# and distribution parameters that the constructors refuse
REFUSED_VALUES = [
    ("evolve", "potential = gaussian\nk = 0", "k"),
    ("dielectric", "k-values = 0 1", "k-values"),
    ("equilibrium", "k-check = 0", "k-check"),
    ("kernel", "w = 0 0 0", "w"),
    ("penrose", "distribution = exponential\ngamma = 3", "gamma"),
    ("dielectric", "distribution = exponential\nmodulation = 5", "modulation"),
    ("cloud", "distribution = two-bump\nbump-sigma = 0", "bump-sigma"),
    ("equilibrium", "distribution = two-temperature\nmixture-weights = -0.5 1.5",
     "mixture-weights"),
    ("equilibrium", "ray-v1 = 0.6 0 0\nray-v2 = 0.6 0 0", "ray-v1"),
    ("evolve", "potential = gaussian\nk = 200", "dt"),
    ("kernel", "lattice-n = 35", "lattice-n"),
    ("kernel", "half-width = 1", "half-width"),
    ("penrose", "distribution = exponential\ndrift = 1 0 0", "drift"),
    ("dielectric", "potential = coulomb\npotential-width = 3", "potential-width"),
    ("cloud", "distribution = two-temperature\ntemperature = 2", "temperature"),
    ("equilibrium", "gamma = 2", "gamma"),
    ("evolve", "potential = zero\npotential-amplitude = 0.5", "potential-amplitude"),
]


def write_cfg(path, text):
    Path(path).write_text(text)
    return str(path)


@pytest.fixture()
def runner():
    return CliRunner()


class TestConfig:
    def test_parse_and_extends(self, tmp_path):
        base = write_cfg(tmp_path / "base.cfg", "scenario = cloud\nsigma = 1.0\n")
        child = write_cfg(
            tmp_path / "child.cfg", "extends = base.cfg\nsigma = 2.0\nr-max = 4.0\n"
        )
        scn = load_scenario(child)
        assert scn.kind == "cloud"
        assert scn.get("sigma") == 2.0
        assert scn.get("r-max") == 4.0
        assert load_scenario(base).get("sigma") == 1.0

    def test_unknown_key_has_location(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg", "scenario = cloud\n\nbogus = 1\n")
        with pytest.raises(ConfigError) as err:
            load_scenario(cfg)
        assert err.value.line == 3

    def test_malformed_line(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg", "scenario cloud\n")
        with pytest.raises(ConfigError) as err:
            load_scenario(cfg)
        assert err.value.line == 1

    def test_vector_and_bool_values(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "v.cfg",
            "scenario = evolve\nk = 0.5\npair = true\ntest-sigmas = 1.5 1 1\n",
        )
        scn = load_scenario(cfg)
        assert scn.get("pair") is True
        assert scn.get("test-sigmas") == [1.5, 1.0, 1.0]

    @pytest.mark.parametrize("kind, key", [
        ("penrose", "drift"), ("cloud", "v0"), ("equilibrium", "ray-x"),
        ("equilibrium", "ray-v1"), ("equilibrium", "ray-v2"), ("kernel", "w"), ("kernel", "v"),
    ])
    def test_three_vector_keys_take_three_numbers(self, tmp_path, kind, key):
        cfg = write_cfg(tmp_path / "v.cfg", f"scenario = {kind}\n{key} = 0.1 0.2 0.3\n")
        assert load_scenario(cfg).get(key) == [0.1, 0.2, 0.3]
        for value in ("0.1 0.2", "0.1 0.2 0.3 0.4"):
            cfg = write_cfg(tmp_path / "v.cfg", f"scenario = {kind}\n\n{key} = {value}\n")
            with pytest.raises(ConfigError) as err:
                load_scenario(cfg)
            assert (err.value.line, err.value.column) == (3, 1)

    @pytest.mark.parametrize("kind, key, value", [
        ("dielectric", "k-range", "0.5 50"),
        ("dielectric", "u-max-scan", "3.0"),
        ("evolve", "flux-v", "1.2"),
        ("kernel", "perturbation", "0.05"),
    ])
    def test_unused_keys_rejected(self, runner, tmp_path, kind, key, value):
        cfg = write_cfg(tmp_path / "k.cfg",
                        f"scenario = {kind}\npotential = gaussian\n{key} = {value}\n")
        out = tmp_path / "o"
        res = runner.invoke(main, [kind, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64
        assert f"k.cfg:3:1: unknown key {key!r}" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("kind", sorted(_SCENARIO_KEYS))
    def test_every_scenario_key_is_read(self, kind):
        """Each subcommand reads every key its scenario kind accepts."""
        source = inspect.getsource(main.commands[kind].callback)
        for key in _SCENARIO_KEYS[kind] - _COMMON_KEYS:
            assert f'scn.get("{key}"' in source, key


class TestManifest:
    def test_roundtrip(self, tmp_path):
        m = RunManifest(scenario={"scenario": "cloud", "sigma": 1.0})
        m.add_check("x", True, value=0.5, tolerance=1.0)
        m.diagnostics["foo"] = [1.0, 2.0]
        p = tmp_path / "m.json"
        write_manifest(p, m)
        back = read_manifest(p)
        assert back.to_dict()["scenario"] == m.to_dict()["scenario"]
        assert compare_manifests(m, back) == {}

    def test_compare_detects_numeric_drift(self):
        a = RunManifest(scenario={"scenario": "cloud"}, diagnostics={"v": 1.0})
        b = RunManifest(scenario={"scenario": "cloud"}, diagnostics={"v": 1.1})
        diffs = compare_manifests(a, b, tolerance=1e-3)
        assert "diagnostics.v" in diffs
        assert compare_manifests(a, b, tolerance=0.2) == {}

    def test_compare_shape_mismatch(self):
        a = RunManifest(scenario={"scenario": "cloud", "distribution": "maxwellian"})
        b = RunManifest(scenario={"scenario": "kernel", "distribution": "maxwellian"})
        with pytest.raises(CompareError):
            compare_manifests(a, b)


class TestCommands:
    def test_penrose_stable_exit0(self, runner, tmp_path):
        cfg = write_cfg(tmp_path / "p.cfg",
                        "scenario = penrose\ndistribution = maxwellian\npotential = coulomb\n")
        res = runner.invoke(main, ["penrose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0
        m = read_manifest(tmp_path / "o" / "manifest.json")
        assert m.diagnostics["verdict"] == "STABLE"

    def test_penrose_manifest_records_health(self, runner, tmp_path):
        """The manifest carries the direction and critical-point counts of the check."""
        for name, body, directions, critical in (
            ("iso", "distribution = maxwellian\n", 1, 1),
            ("drift", "distribution = maxwellian\ndrift = 0.3 0.0 0.4\n", 26, 26),
        ):
            cfg = write_cfg(tmp_path / f"{name}.cfg", f"scenario = penrose\n{body}")
            res = runner.invoke(main, ["penrose", "--config", cfg, "--out", str(tmp_path / name)])
            assert res.exit_code == 0
            m = read_manifest(tmp_path / name / "manifest.json")
            assert m.diagnostics["directions"] == directions
            assert m.diagnostics["critical_points"] == critical

    def test_penrose_unstable_exit2(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path / "p.cfg",
            "scenario = penrose\ndistribution = two-bump\nbump-separation = 4.0\n"
            "potential = coulomb\n",
        )
        res = runner.invoke(main, ["penrose", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        m = read_manifest(tmp_path / "o" / "manifest.json")
        assert m.diagnostics["verdict"] == "UNSTABLE"
        assert (tmp_path / "o" / "penrose_offenders.csv").exists()

    def test_dielectric_coulomb_mixture_exit0(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path / "d.cfg",
            "scenario = dielectric\ndistribution = two-temperature\n"
            "mixture-weights = 0.75 0.25\nmixture-sigmas = 1.0 1.35\n",
        )
        res = runner.invoke(main, ["dielectric", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        m = read_manifest(tmp_path / "o" / "manifest.json")
        assert [c["passed"] for c in m.checks if c["name"] == "epsilon_k1_u0"] == [True]

    @pytest.mark.parametrize("dist", [
        Maxwellian(drift=(0.1, -0.3, 0.45), temperature=1.3),
        ExponentialFamily(gamma=1, modulation=0.3),
    ])
    def test_epsilon_reference_matches_cauchy_quadrature(self, dist):
        """The epsilon_k1_u0 reference against scipy's Cauchy-weight quadrature."""
        chi = np.array([0.0, 0.0, 1.0])
        model = DielectricModel(dist, CoulombPotential())

        def dF(u):
            return float(dist.radon_profile_derivative(chi, np.array([u]))[0])

        pv = quad(dF, -40.0, 40.0, weight="cauchy", wvar=0.0, limit=400)[0]
        assert abs(_epsilon_at_rest(model, chi) - (1.0 - (pv - 1j * np.pi * dF(0.0)))) < 1e-12

    @pytest.mark.parametrize("text", [
        "scenario = evolve\n",
        "scenario = evolve\npotential = coulomb\npair = true\n",
    ])
    def test_evolve_coulomb_exit64_no_outputs(self, runner, tmp_path, text):
        cfg = write_cfg(tmp_path / "e.cfg", text)
        out = tmp_path / "o"
        res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64
        assert "potential" in res.output
        assert not out.exists()

    def test_kernel_mass_conserved(self, runner, tmp_path):
        cfg = write_cfg(tmp_path / "k.cfg", "scenario = kernel\nlattice-n = 9\n")
        res = runner.invoke(main, ["kernel", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        m = read_manifest(tmp_path / "o" / "manifest.json")
        assert [c["passed"] for c in m.checks if c["name"] == "mass_conservation"] == [True]

    @pytest.mark.parametrize("text, key", [
        ("scenario = kernel\ndrift = 0 0 0.8\n", "drift"),
        ("scenario = kernel\ndistribution = two-bump\n", "distribution"),
    ])
    def test_kernel_anisotropic_exit64_no_outputs(self, runner, tmp_path, text, key):
        cfg = write_cfg(tmp_path / "k.cfg", text)
        out = tmp_path / "o"
        res = runner.invoke(main, ["kernel", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64
        assert key in res.output
        assert not out.exists()

    @pytest.mark.parametrize("kind, key, value", [
        ("dielectric", "temperature", "nan"),
        ("dielectric", "grid-n", "1000"),
        ("kernel", "lattice-n", "9.5"),
        ("cloud", "r-count", "0"),
        ("cloud", "r-min", "0"),
        ("cloud", "r-max", "-2"),
        ("kernel", "lattice-n", "1"),
    ])
    def test_bad_value_exit64_no_outputs(self, runner, tmp_path, kind, key, value):
        cfg = write_cfg(tmp_path / "v.cfg", f"scenario = {kind}\n{key} = {value}\n")
        out = tmp_path / "o"
        res = runner.invoke(main, [kind, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64
        assert f"v.cfg:2:1: key {key!r}" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("kind, lines, key", REFUSED_VALUES,
                             ids=[f"{kind}-{key}" for kind, _, key in REFUSED_VALUES])
    def test_refused_values_exit64_name_their_key(self, runner, tmp_path, kind, lines, key):
        """Zero wavenumbers, refused distribution parameters, a vanishing relative
        velocity, an unstable RK4 step and a collision lattice `bl_rhs` refuses
        are configuration errors."""
        cfg = write_cfg(tmp_path / "z.cfg", f"scenario = {kind}\n{lines}\n")
        out = tmp_path / "o"
        res = runner.invoke(main, [kind, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64, res.output
        assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
        assert f"key {key!r}" in res.output
        assert not out.exists()

    def test_parameter_through_extends_refused(self, runner, tmp_path):
        """A parameter of the base's kind is refused once the child changes the kind."""
        write_cfg(tmp_path / "base.cfg", "scenario = penrose\ndrift = 1 0 0\n")
        cfg = write_cfg(tmp_path / "child.cfg", "extends = base.cfg\ndistribution = exponential\n")
        out = tmp_path / "o"
        res = runner.invoke(main, ["penrose", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64, res.output
        assert "child.cfg:2:1: key 'drift'" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("lines, key, other", [
        ("lattice-n = 3", "lattice-n", "half-width"),
        ("half-width = 1", "half-width", "lattice-n"),
    ])
    def test_lattice_mass_defect_names_one_key(self, runner, tmp_path, lines, key, other):
        """Three nodes on the default box are too coarse; a box of half-width 1 is too small."""
        cfg = write_cfg(tmp_path / "k.cfg", f"scenario = kernel\n{lines}\n")
        out = tmp_path / "o"
        res = runner.invoke(main, ["kernel", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64, res.output
        assert f"key {key!r}" in res.output and repr(other) not in res.output
        assert ("box" in res.output) == (key == "half-width")
        assert not out.exists()

    def test_grid_n_alone_keeps_the_default_u_max(self, runner, tmp_path):
        """grid-n alone takes u_max from the distribution's default grid, 26 for
        the γ = 1 exponential family, whose profile does not decay by u = 12."""
        cfg = write_cfg(tmp_path / "g.cfg", "scenario = dielectric\ndistribution = exponential\n"
                                            "gamma = 1\ngrid-n = 4096\n")
        res = runner.invoke(main, ["dielectric", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        scn = load_scenario(cfg)
        assert build_grid(scn, build_distribution(scn)) == UGrid(26.0, 4096)

    def test_malformed_config_exit64_no_outputs(self, runner, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg", "scenario = cloud\nwat = 1\n")
        out = tmp_path / "o"
        res = runner.invoke(main, ["cloud", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64
        assert not out.exists() or not list(out.iterdir())

    def test_cloud_checks_and_determinism(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            "scenario = cloud\ndistribution = maxwellian\npotential = coulomb\n"
            "sigma = 1.0\nr-count = 12\n",
        )
        outs = []
        for name in ("o1", "o2"):
            res = runner.invoke(main, ["cloud", "--config", cfg, "--out",
                                       str(tmp_path / name)])
            assert res.exit_code == 0, res.output
            outs.append((tmp_path / name / "cloud.csv").read_bytes())
        assert outs[0] == outs[1]  # byte-identical bodies
        m = read_manifest(tmp_path / "o1" / "manifest.json")
        assert m.all_passed()

    def test_moving_cloud_manifest_records_health(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            "scenario = cloud\ndistribution = maxwellian\npotential = coulomb\n"
            "v0 = 0.0 0.0 0.5\nr-count = 9\n",
        )
        res = runner.invoke(main, ["cloud", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        m = read_manifest(tmp_path / "o" / "manifest.json")
        assert np.isfinite(m.diagnostics["hermiticity_defect"])

    @pytest.mark.parametrize("potential", ["coulomb", "gaussian"])
    def test_equilibrium_manifest_records_split_slices(self, runner, tmp_path, potential,
                                                       hsol_mc):
        """The Coulomb chain (k_max 45, n_k 240, as `hsol_mc`) splits its
        small-κ slices; a soft potential has no Langmuir poles to split."""
        cfg = write_cfg(tmp_path / "q.cfg",
                        f"scenario = equilibrium\npotential = {potential}\n")
        res = runner.invoke(main, ["equilibrium", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        m = read_manifest(tmp_path / "o" / "manifest.json")
        expected = sum(s.split for s in hsol_mc.slices) if potential == "coulomb" else 0
        assert potential == "gaussian" or expected > 0
        assert m.diagnostics["split_slices"] == expected

    def test_evolve_manifest_records_bromwich_drift(self, runner, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", "scenario = evolve\npotential = gaussian\nt-max = 4\n")
        res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        m = read_manifest(tmp_path / "o" / "manifest.json")
        assert 0.0 <= m.diagnostics["bromwich_drift"] <= 1e-6

    @pytest.mark.parametrize("value", ["1.5", "-1 1 1", "1.5 1 1 1", "1.5 0 1"])
    def test_evolve_test_sigmas_exit64_no_outputs(self, runner, tmp_path, value):
        """test-sigmas is exactly three positive numbers (σx, σv1, σv2)."""
        cfg = write_cfg(tmp_path / "v.cfg",
                        "scenario = evolve\npotential = gaussian\npair = true\n"
                        f"test-sigmas = {value}\n")
        out = tmp_path / "o"
        res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64
        assert "v.cfg:4:1: key 'test-sigmas': expected three positive numbers" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("kind, key, value", [
        ("equilibrium", "ray-x", "1 0.8"),
        ("cloud", "v0", "0.5"),
        ("equilibrium", "ray-v2", "-0.6 0 0 0"),
        ("kernel", "w", "0.8 -0.3"),
        ("penrose", "drift", "0.5"),
    ])
    def test_three_vector_length_exit64_no_outputs(self, runner, tmp_path, kind, key, value):
        """A 3-vector key with another count of numbers is a config error,
        not a traceback from the geometry or a silently broadcast vector."""
        cfg = write_cfg(tmp_path / "v.cfg", f"scenario = {kind}\n{key} = {value}\n")
        out = tmp_path / "o"
        res = runner.invoke(main, [kind, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64
        assert f"v.cfg:2:1: key {key!r}: expected three numbers" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("kind, text, message", [
        ("equilibrium", "slopes = true\nslope-window = 5\n",
         "v.cfg:3:1: key 'slope-window': expected two increasing positive numbers"),
        ("equilibrium", "slopes = true\nslope-window = 20 5\n",
         "v.cfg:3:1: key 'slope-window': expected two increasing positive numbers"),
        ("equilibrium", "slopes = true\nslope-window = -5 20\n",
         "v.cfg:3:1: key 'slope-window': expected two increasing positive numbers"),
        ("kernel", "k-max-list = -10 100\n", "v.cfg:2:1: key 'k-max-list': expected positive"),
        ("kernel", "k-max-list = 100 0\n", "v.cfg:2:1: key 'k-max-list': expected positive"),
        ("evolve", "potential = gaussian\ndt = 50\nt-max = 4\n", "key 'dt': t-max/dt rounds to 0"),
        ("evolve", "potential = gaussian\ndt = 0.5\nt-max = 4\n", "key 'dt': t-max/dt rounds to 8"),
    ], ids=["slope-window-one-number", "slope-window-reversed", "slope-window-negative",
            "k-max-list-negative", "k-max-list-zero", "dt-past-t-max", "dt-under-one-row"])
    def test_value_outside_key_domain_exit64_no_outputs(self, runner, tmp_path, kind, text,
                                                        message):
        """Values that used to end in a traceback (`slope-window` with one
        number, `k-max-list` with a negative entry) or in an `evolve.csv` of
        the single row t = 0 are configuration errors."""
        cfg = write_cfg(tmp_path / "v.cfg", f"scenario = {kind}\n{text}")
        out = tmp_path / "o"
        res = runner.invoke(main, [kind, "--config", cfg, "--out", str(out)])
        assert res.exit_code == 64
        assert message in res.output
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_evolve_exponential_passes(self, runner, tmp_path):
        """A kind without continuation: ε on the contours by grid quadrature."""
        cfg = write_cfg(tmp_path / "e.cfg", "scenario = evolve\ndistribution = exponential\n"
                                            "potential = gaussian\nt-max = 4\n")
        res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        m = read_manifest(tmp_path / "o" / "manifest.json")
        assert [(c["name"], c["passed"]) for c in m.checks] == [("cross_method_density", True)]

    def test_evolve_zero_amplitude_passes(self, runner, tmp_path):
        """ρ̂ ≡ 0: both methods give exactly zero and the check reads 0."""
        cfg = write_cfg(tmp_path / "e.cfg",
                        "scenario = evolve\npotential = gaussian\nt-max = 4\namplitude = 0\n")
        res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        m = read_manifest(tmp_path / "o" / "manifest.json")
        assert [(c["passed"], c["value"]) for c in m.checks] == [(True, 0.0)]

    @pytest.mark.parametrize("pair", ["false", "true"])
    def test_evolve_t_max_past_the_cap_fails_at_once(self, runner, tmp_path, pair):
        """No contour of ≤ 2²⁰ nodes reaches t = 5000: refused before the
        500 000 RK4 steps, which would take minutes."""
        cfg = write_cfg(tmp_path / "e.cfg",
                        f"scenario = evolve\npotential = gaussian\nt-max = 5000\npair = {pair}\n")
        out = tmp_path / "o"
        t0 = time.perf_counter()
        res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(out)])
        assert time.perf_counter() - t0 < 5.0
        assert res.exit_code == 64
        assert "key 't-max'" in res.output and "contour nodes" in res.output
        assert not out.exists()

    def test_evolve_density_columns_pinned(self, runner, tmp_path):
        """The RK4 columns of `evolve` at its defaults with pair = true.

        The SHA-256 covers the header and the t, k, re_rho and im_rho fields
        of every row, one LF-terminated line per row; it was computed before
        `vlasov_step` reused its phases, which must leave these bytes alone.
        """
        cfg = write_cfg(tmp_path / "e.cfg",
                        "scenario = evolve\npotential = gaussian\npair = true\n")
        res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        rows = [line for line in (tmp_path / "o" / "evolve.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0] == "t,k,re_rho,im_rho,weak_gap"
        text = "".join(",".join(row.split(",")[:4]) + "\n" for row in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == EVOLVE_RHO_SHA256

    def test_compare_command(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            "scenario = cloud\ndistribution = maxwellian\npotential = coulomb\n"
            "sigma = 1.0\nr-count = 8\n",
        )
        for name in ("a", "b"):
            runner.invoke(main, ["cloud", "--config", cfg, "--out", str(tmp_path / name)])
        res = runner.invoke(
            main,
            ["compare", str(tmp_path / "a" / "manifest.json"),
             str(tmp_path / "b" / "manifest.json")],
        )
        assert res.exit_code == 0
        assert "agree" in res.output

    def test_compare_refined_within_tolerance(self, runner, tmp_path):
        base = write_cfg(
            tmp_path / "c.cfg",
            "scenario = cloud\ndistribution = maxwellian\npotential = coulomb\n"
            "sigma = 1.0\nr-count = 12\n",
        )
        fine = write_cfg(
            tmp_path / "f.cfg",
            "extends = c.cfg\ngrid-n = 2048\ngrid-u-max = 12.0\n",
        )
        runner.invoke(main, ["cloud", "--config", base, "--out", str(tmp_path / "a")])
        runner.invoke(main, ["cloud", "--config", fine, "--out", str(tmp_path / "b")])
        a = read_manifest(tmp_path / "a" / "manifest.json")
        b = read_manifest(tmp_path / "b" / "manifest.json")
        # converged quantities (induced charge, Yukawa deviation) barely move
        assert abs(a.diagnostics["induced_charge"] - b.diagnostics["induced_charge"]) < 1e-4

    def test_compare_shape_mismatch_cli(self, runner, tmp_path):
        m1 = RunManifest(scenario={"scenario": "cloud", "distribution": "maxwellian"})
        m2 = RunManifest(scenario={"scenario": "cloud", "distribution": "two-bump"})
        write_manifest(tmp_path / "a.json", m1)
        write_manifest(tmp_path / "b.json", m2)
        res = runner.invoke(main, ["compare", str(tmp_path / "a.json"),
                                   str(tmp_path / "b.json")])
        assert res.exit_code == 1

    def test_atomic_write_leaves_no_partials(self, tmp_path, monkeypatch):
        """A crash mid-emission leaves no partial files behind."""
        from plasmakin import config as cfgmod

        target = tmp_path / "x.csv"

        class Boom(RuntimeError):
            pass

        real_replace = cfgmod.os.replace

        def exploding_replace(src, dst):
            raise Boom("interrupted")

        monkeypatch.setattr(cfgmod.os, "replace", exploding_replace)
        with pytest.raises(Boom):
            cfgmod.write_csv(target, {"a": np.array([1.0])})
        monkeypatch.setattr(cfgmod.os, "replace", real_replace)
        assert not target.exists()
        assert not list(tmp_path.glob(".tmp-*"))
