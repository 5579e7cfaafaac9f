"""Smoke test of the benchmark harness: one traced call of each declared workload.

Every span boundary the harness wraps must still exist in the package, so a
refactor that renames or removes a traced function fails here instead of
silently reading zero in the benchmark. On `eval-icp`, every boundary the
workload expects must also record calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def worker(*args):
    # no bytecode caches written next to the benchmark's sources
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, str(WORKER), *args], capture_output=True,
                          text=True, timeout=300, env=env)


def test_traced_track_dense_call(tmp_path):
    scene, out, report = tmp_path / "scene", tmp_path / "out", tmp_path / "report.json"
    setup = worker("setup", "--workload", "track-dense", "--seed", "11", "--scene", str(scene))
    assert setup.returncode == 0, setup.stderr
    call = worker("call", "--workload", "track-dense", "--scene", str(scene), "--out", str(out),
                  "--report", str(report), "--trace")
    assert call.returncode == 0, call.stderr
    result = json.loads(report.read_text())
    assert result["rc"] == 0, result["output"]
    assert (out / "track.json").is_file()
    assert result["missing"] == []
    assert result["calls"]["emission.chamfer"] > 0
    # emission's Chamfer rows reduce outside the metrics layer's boundary
    assert "metrics.chamfer" not in result["calls"]
    # 2 frames: each phase scores and combines every frame once, then decodes
    # once; a refactor that scored outside frame_terms would read 0 here
    calls = {name: result["calls"].get(name, 0) for name in (
        "emission.rotation_terms", "emission.translation_terms", "emission.combine",
        "viterbi.rotation", "viterbi.translation", "align.sequence", "grids.pairwise_angles")}
    assert calls == {"emission.rotation_terms": 2, "emission.translation_terms": 2,
                     "emission.combine": 4, "viterbi.rotation": 1, "viterbi.translation": 1,
                     "align.sequence": 1, "grids.pairwise_angles": 1}


def test_traced_eval_icp_call(tmp_path):
    scene, out, report = tmp_path / "scene", tmp_path / "out", tmp_path / "report.json"
    setup = worker("setup", "--workload", "eval-icp", "--seed", "11", "--scene", str(scene))
    assert setup.returncode == 0, setup.stderr
    call = worker("call", "--workload", "eval-icp", "--scene", str(scene), "--out", str(out),
                  "--report", str(report), "--trace")
    assert call.returncode == 0, call.stderr
    result = json.loads(report.read_text())
    assert result["rc"] == 0, result["output"]
    assert (out / "metrics.json").is_file()
    assert result["missing"] == []
    # eval-icp's expect_calls in bench/scenes.py: each must record a call
    expected = ("evaluate.track", "metrics.icp", "metrics.nn_query", "metrics.fit",
                "metrics.chamfer", "metrics.fscore", "geometry.sample")
    assert [name for name in expected if not result["calls"].get(name)] == []
    # 3 frames: one Chamfer and two F-scores (5 mm, 10 mm) per frame
    assert (result["calls"]["metrics.chamfer"], result["calls"]["metrics.fscore"]) == (3, 6)
