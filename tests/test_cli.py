"""Scenario front end: exit codes, determinism, atomicity, compare."""

import inspect
import json
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
    compare_manifests,
    load_scenario,
    read_manifest,
    write_manifest,
)
from plasmakin.dielectric import DielectricModel
from plasmakin.distributions import ExponentialFamily, Maxwellian
from plasmakin.errors import CompareError, ConfigError
from plasmakin.potentials import CoulombPotential


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

    def test_evolve_manifest_records_bromwich_drift(self, runner, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", "scenario = evolve\npotential = gaussian\nt-max = 4\n")
        res = runner.invoke(main, ["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        m = read_manifest(tmp_path / "o" / "manifest.json")
        assert 0.0 <= m.diagnostics["bromwich_drift"] <= 1e-6

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
