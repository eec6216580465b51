"""Tests of the benchmark itself: python3 -m pytest -q perfbench/test_perfbench.py"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hvl.cli  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_gives_the_same_job_list(workload):
    assert make_plan(workload, 7) == make_plan(workload, 7)
    assert make_plan(workload, 7) != make_plan(workload, 8)
    jobs = make_plan(workload, 7)["jobs"]
    assert len(jobs) >= 11  # the tail percentile needs 10 jobs beyond it


def _one_job_plan(tmp_path, job):
    plan = {"workload": "test", "seed": 0, "threads": 1, "jobs": [job], "specs": {}}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return path


def _verify_example1(out="j00.json"):
    mp = {"kind": "poly", "p": 2, "m": 4, "coeffs": [[1.0, 0.0]]}
    return {"id": "j00", "cmd": "verify", "map": mp, "out": out,
            "argv": ["verify", "--input", "preset:example1", "--report", out],
            "expect": {"rc": 0, "criterion": True, "exact_roots": True}}


class _PlantedCli:
    """Runs the real CLI, then moves one cusp off its level in the report."""

    def main(self, argv):
        rc = hvl.cli.main(argv)
        path = argv[argv.index("--report") + 1]
        doc = json.loads(Path(path).read_text())
        doc["roots"][0]["t"] += 1e-6
        Path(path).write_text(json.dumps(doc))
        return rc


def test_planted_wrong_answer_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = _verify_example1()
    honest = worker.run_passes([job], 0.0, checks.check_job, hvl.cli)
    assert honest[0]["failures"] == []
    planted = worker.run_passes([job], 0.0, checks.check_job, _PlantedCli())
    assert len(planted) == 1 and len(planted[0]["failures"]) == 1
    assert "level" in planted[0]["failures"][0]["reason"]


def test_wrong_exit_code_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = _verify_example1()
    job["expect"]["rc"] = 2
    passes = worker.run_passes([job], 0.0, checks.check_job, hvl.cli)
    assert "exit code 0" in passes[0]["failures"][0]["reason"]


@pytest.mark.parametrize("trace", [0, 1])
def test_wrappers_only_in_the_traced_run(tmp_path, trace):
    plan = _one_job_plan(tmp_path, _verify_example1())
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
                    "--plan", str(plan), "--result", str(result), "--seconds", "0",
                    "--trace", str(trace)], check=True, timeout=120)
    res = json.loads(result.read_text())
    assert res["passes"][0]["failures"] == []
    if trace:
        assert res["wrappers_installed"] > 0
        assert res["layers"]["criterion.roots.count"] == 7
        assert res["layers"]["cli.main.self_s"] > 0
    else:
        assert res["wrappers_installed"] == 0
        assert "layers" not in res


def test_independent_rational_evaluation_matches_a_closed_form():
    # h' = 1/(1 - z/2): h = -2 log(1 - z/2); with m = 2, g' = z h'
    mp = {"kind": "rational", "p": 1, "m": 2, "numer": [[1.0, 0.0]],
          "denom": [[1.0, 0.0], [-0.5, 0.0]]}
    import numpy as np

    z = np.array([0.3 + 0.4j, -0.9j, 0.999])
    h = -2.0 * np.log(1 - z / 2)
    g = -2.0 * z - 4.0 * np.log(1 - z / 2)
    assert np.allclose(checks.eval_f(mp, z), h + np.conj(g), rtol=0, atol=1e-13)
