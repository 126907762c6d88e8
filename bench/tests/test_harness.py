"""Tests of the benchmark harness itself (not of the program).

    python3 -m pytest -q bench/tests

`test_counts_repeat_across_seeds` runs every workload traced at two seeds
and takes a few minutes; select a workload with `-k sweep`.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
from plasmakin import dielectric, equilibrium, transforms
from plasmakin.distributions import Maxwellian
from plasmakin.errors import InputError
from plasmakin.potentials import CoulombPotential

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_wrapper_returns_result_and_reraises():
    tracer = spans.Tracer()

    def fine(x, y=2):
        return x * y

    def broken():
        raise KeyError("boom")

    assert tracer.wrap("fine", fine)(3, y=4) == 12
    with pytest.raises(KeyError, match="boom"):
        tracer.wrap("broken", broken)()
    assert [s[0] for s in tracer.spans] == ["fine", "broken"]
    assert all(s[2] is not None and s[2] >= s[1] for s in tracer.spans)
    assert tracer._stack == []


def test_installed_wrappers_match_the_program(tracer):
    grid = transforms.UGrid(12.0, 256)
    prof = transforms.LineProfile(grid, np.exp(-0.5 * grid.points**2))
    tracer.uninstall()
    reference = transforms.pv_transform(prof).values
    model_ref = dielectric.DielectricModel(Maxwellian(), CoulombPotential())
    eps_ref = model_ref.epsilon(np.array([0.0, 0.0, 0.7]), 0.3)
    tracer.install()

    assert np.array_equal(transforms.pv_transform(prof).values, reference)
    model = dielectric.DielectricModel(Maxwellian(), CoulombPotential())
    assert model.epsilon(np.array([0.0, 0.0, 0.7]), 0.3) == eps_ref
    with pytest.raises(InputError):
        model.epsilon(np.zeros(3), 0.0)
    names = {s[0] for s in tracer.spans}
    assert {"transforms.pv_transform", "dielectric.DielectricModel",
            "dielectric.DielectricModel.epsilon"} <= names
    assert tracer.counts["dielectric.DielectricModel.directions"] == 1


def test_install_rebinds_every_namespace_and_uninstall_restores(tracer):
    tracer.uninstall()
    originals = {(m, a): getattr(sys.modules[f"plasmakin.{m}"], a)
                 for m, a, _, _ in spans.LAYERS if "." not in a}
    tracer.install()
    holders = [mod for name, mod in sys.modules.items() if name.startswith("plasmakin")]
    for fn in originals.values():
        assert not any(v is fn for mod in holders for v in vars(mod).values())
    # names bound at import time in other modules now reach the wrapper
    assert equilibrium.pv_transform is transforms.pv_transform
    assert equilibrium.pv_transform is not originals[("transforms", "pv_transform")]
    tracer.uninstall()
    assert transforms.pv_transform is originals[("transforms", "pv_transform")]
    assert equilibrium.pv_transform is originals[("transforms", "pv_transform")]
    tracer.install()


def test_self_time_on_nested_tree():
    t = spans.Tracer()
    # root [0,10] > a [1,4] > leaf [2,3];  root > b [5,6];  b > b again [5.5,5.8]
    t.spans = [
        ["root", 0.0, 10.0, None, "op"],
        ["a", 1.0, 4.0, 0, "op"],
        ["leaf", 2.0, 3.0, 1, "op"],
        ["b", 5.0, 6.0, 0, "op"],
        ["b", 5.5, 5.8, 3, "op"],
    ]
    assert t.self_times() == pytest.approx([6.0, 2.0, 1.0, 0.7, 0.3])
    agg = t.aggregate()
    assert agg["root"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert agg["b"]["calls"] == 2
    assert agg["b"]["s"] == pytest.approx(1.0)  # the nested b is not counted twice
    assert agg["b"]["self_s"] == pytest.approx(1.0)


def test_exit_code_classification():
    unstable = workloads.classify(2, [], [], verdict="UNSTABLE", expect_unstable=True)
    assert not unstable.failed and not unstable.incorrect
    defect = workloads.classify(1, ["mass_conservation"], [])
    assert defect.failed and not defect.incorrect
    assert defect.reasons == ["manifest:mass_conservation"]
    wrong = workloads.classify(0, [], ["decay_slope>=3.5"])
    assert wrong.failed and wrong.incorrect
    assert workloads.classify(2, [], [], verdict="UNSTABLE").incorrect
    assert workloads.classify(0, [], [], verdict="STABLE", expect_unstable=True).incorrect
    assert not workloads.classify(0, [], [], verdict="STABLE").failed
    assert workloads.classify(64, [], []).reasons == ["exit 64"]


def test_cli_operations_report_the_known_outcomes(tmp_path):
    two_bump = workloads.CliOp("two_bump", tmp_path, "penrose",
                               "scenario = penrose\ndistribution = two-bump\n",
                               expect_unstable=True).run()
    assert two_bump.exit_code == 2 and not two_bump.failed
    drifted = workloads.CliOp("drifted", tmp_path, "dielectric",
                              "scenario = dielectric\ndrift = 0.0 0.0 0.3\n").run()
    assert drifted.exit_code == 1 and drifted.failed and not drifted.incorrect
    assert drifted.reasons == ["manifest:epsilon_k1_u0"]


def test_csv_bytes_identical_with_and_without_tracing(tmp_path):
    ops = workloads.build("sweep", 3, tmp_path)[:6]

    def bodies():
        warnings_seen = {}
        for op in ops:
            workloads.run_op(op, warnings_seen)
        return [op.csv_bytes() for op in ops]

    plain = bodies()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = bodies()
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert plain == traced


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    extra = ["ops_failed", "trace.wall_s", "trace.spans", "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == spans.layer_metric_names() + extra
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mb", "ops", "run_p50_s", "run_p90_s"}


# epsilon_infimum ends in a Nelder-Mead polish whose iteration count depends
# on the input values: these counts repeat across runs of one seed only.
SOLVER_DRIVEN = {"dielectric.DielectricModel.epsilon.calls", "trace.spans"}


def _traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] == "count" and not k.startswith("warnings.") and k not in SOLVER_DRIVEN}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_seeds(workload):
    a, b = _traced_counts(workload, 1), _traced_counts(workload, 2)
    assert a == b
    if workload == "collisions":
        assert a["kernel.bl_rhs.pairs"] == 2 * 17**3 * (17**3 - 1)
