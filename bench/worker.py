"""One benchmark process: either build a workload's scene, or make one timed
`rigalign.cli.run` call and write a JSON report.

    python3 bench/worker.py setup --workload NAME --seed N --scene DIR
    python3 bench/worker.py call --workload NAME --scene DIR --out DIR --report FILE [--trace]

`bench/run.py` starts one of these per repetition, so each call's peak
memory is its own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scenes  # noqa: E402
import spans  # noqa: E402


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def layer_metrics(table: dict, recorder: spans.SpanRecorder, wall_s: float, cpu_s: float) -> dict:
    """The per-layer metrics of one traced call, from its span summary and counters."""
    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})

    def total(name):
        return row(name)["total_s"]

    def calls(name):
        return row(name)["calls"]

    states = recorder.counters["emission.states_scored"]
    terms_s = total("emission.rotation_terms") + total("emission.translation_terms")
    frames = row("evaluate.frame")["durations"]
    queries = calls("metrics.nn_query")
    return {
        "pipeline.load_s": row("pipeline.load")["self_s"],
        "meshio.write_s": total("meshio.write"),
        "grids.build_s": total("grids.build"),
        "grids.pairwise_angles_s": total("grids.pairwise_angles"),
        "emission.scale_s": total("emission.scale"),
        "emission.rotation_terms_s": total("emission.rotation_terms"),
        "emission.translation_terms_s": total("emission.translation_terms"),
        "emission.states_scored": states,
        "emission.us_per_state": 1e6 * terms_s / states if states else 0.0,
        "emission.chamfer_s": total("emission.chamfer"),
        "emission.chamfer_calls": calls("emission.chamfer"),
        "emission.render_s": total("emission.render"),
        "emission.render_calls": calls("emission.render"),
        "emission.silhouette_s": total("emission.silhouette"),
        "emission.silhouette_calls": calls("emission.silhouette"),
        "emission.similarity_s": total("emission.similarity"),
        "emission.combine_s": total("emission.combine"),
        "emission.empty_overlap_frac": (
            recorder.counters["emission.empty_overlap"] / states if states else 0.0),
        "emission.feature_share": (total("emission.render") + total("emission.silhouette")) / wall_s,
        "emission.chamfer_share": total("emission.chamfer") / wall_s,
        "viterbi.rotation_s": total("viterbi.rotation"),
        "viterbi.translation_s": total("viterbi.translation"),
        "viterbi.transition_mb": recorder.peaks.get("viterbi.transition_mb", 0.0),
        "align.sequence_s": total("align.sequence"),
        "align.self_s": row("align.sequence")["self_s"],
        "geometry.sample_s": total("geometry.sample"),
        "geometry.sample_calls": calls("geometry.sample"),
        "evaluate.track_s": total("evaluate.track"),
        "evaluate.frame_p50_s": statistics.median(frames) if frames else 0.0,
        "evaluate.frame_max_s": max(frames, default=0.0),
        "metrics.icp_s": total("metrics.icp"),
        "metrics.icp_calls": calls("metrics.icp"),
        "metrics.icp_share": total("metrics.icp") / wall_s,
        "metrics.nn_queries": queries,
        "metrics.ms_per_nn_query": 1e3 * total("metrics.nn_query") / queries if queries else 0.0,
        "metrics.fit_s": total("metrics.fit"),
        "metrics.icp_at_max_iters": recorder.counters["metrics.icp_at_max_iters"],
        "metrics.chamfer_s": total("metrics.chamfer"),
        "metrics.fscore_s": total("metrics.fscore"),
        "cli.self_s": row("cli")["self_s"],
        "cli.cpu_s": cpu_s,
        "cli.cpu_util": cpu_s / wall_s,
        "trace.spans": len(recorder.spans),
    }


def call(args) -> None:
    workload = scenes.WORKLOADS[args.workload]
    scene = Path(args.scene)
    out = Path(args.out)
    argv = scenes.cli_argv(workload, scene / "config.cfg", out)
    from rigalign import cli

    recorder = missing = None
    if args.trace:
        recorder = spans.SpanRecorder()
        missing = spans.install(recorder)
    sink = io.StringIO()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if recorder is not None:
            root = recorder.open("cli")
        try:
            rc = cli.run(argv)
        finally:
            if recorder is not None:
                recorder.close(root)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    report = {
        "rc": rc,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output": sink.getvalue()[-2000:],
        "digests": digests(out) if out.is_dir() else {},
    }
    if recorder is not None:
        table = spans.summarise(recorder.spans)
        report["layers"] = layer_metrics(table, recorder, wall_s, cpu_s)
        report["missing"] = missing
        report["threads"] = recorder.threads()
        report["calls"] = {name: row["calls"] for name, row in table.items()}
    Path(args.report).write_text(json.dumps(report, sort_keys=True))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--scene", required=True)
    c = sub.add_parser("call")
    c.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    c.add_argument("--scene", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--report", required=True)
    c.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        scenes.build_scene(scenes.WORKLOADS[args.workload], args.seed, Path(args.scene))
    else:
        call(args)


if __name__ == "__main__":
    main()
