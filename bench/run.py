"""rigalign benchmark: times `rigalign.cli.run` on synthetic workloads.

    python3 bench/run.py --workload track-dense [--seed 11] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all          # every declared workload, one table each

Closed loop, one client: one worker process at a time, a fresh one per
repetition, so each repetition's peak memory is its own. The scene is built
from `--seed` alone (five times, to time set-up and to check that the same
seed gives the same inputs). Repetitions run until `--seconds` have passed
(default: `run_seconds` in BENCHMARK.json). Every repetition must exit 0 and
write byte-identical outputs; a traced repetition must match the untraced
ones too; and the outputs must meet the workload's ground-truth floors.

With `--trace 0` the last stdout line carries the end-to-end metrics
(medians over repetitions); with `--trace 1` repetitions alternate untraced
and traced, and it carries the per-layer metrics of the traced ones. The
full record (environment, digests, every repetition, warnings) is written to
`.bench_work/results/<workload>-seed<N>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
OVERRUN_S = 120.0  # set-up plus the last call may run this far past --seconds

# Metric names and units, declared once in BENCHMARK.json.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, or a set-up step failed)."""


def environment(seed: int) -> dict:
    import numpy

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "git_commit": git_commit(),
    }


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref).strip()
    if loose:
        return loose
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(directory)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Runner:
    """One workload run: set-up, the timed loop, checks and the summary."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(traced)}"
        self.deadline = time.perf_counter() + seconds + OVERRUN_S
        self.warnings: list[str] = []

    def _remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def _worker(self, *argv: str) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(WORKER), *argv], capture_output=True,
                              text=True, timeout=max(1.0, self._remaining()), cwd=ROOT)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"worker {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return elapsed

    def setup(self) -> tuple[list[float], Path]:
        """Build the scene SETUP_REPEATS times; all copies must be identical."""
        times, digests = [], set()
        for i in range(SETUP_REPEATS):
            scene = self.dir / f"scene{i}"
            times.append(self._worker("setup", "--workload", self.workload.name,
                                      "--seed", str(self.seed), "--scene", str(scene)))
            digests.add(tree_digest(scene))
            if i:
                shutil.rmtree(scene)
        if len(digests) != 1:
            raise BenchError("the same seed built different scenes")
        return times, self.dir / "scene0"

    def call(self, scene: Path, index: int, traced: bool) -> dict:
        out = self.dir / f"out{index}"
        report = self.dir / f"report{index}.json"
        argv = ["call", "--workload", self.workload.name, "--scene", str(scene),
                "--out", str(out), "--report", str(report)]
        try:
            self._worker(*argv, *(["--trace"] if traced else []))
            rep = json.loads(report.read_text())
        except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
            return {"index": index, "traced": traced, "error": str(e)[-2000:]}
        rep.update(index=index, traced=traced)
        if index:  # the first output directory is kept for the quality checks
            shutil.rmtree(out, ignore_errors=True)
        return rep

    def loop(self, scene: Path) -> list[dict]:
        reps = []
        t0 = time.perf_counter()
        while True:
            traced = self.traced and len(reps) % 2 == 1
            reps.append(self.call(scene, len(reps), traced))
            done = time.perf_counter() - t0 >= self.seconds
            if "error" in reps[-1] or (done and (not self.traced or len(reps) >= 2)):
                return reps

    def check(self, reps: list[dict], wrong: str | None) -> int:
        """Count failed repetitions: non-zero exit, a missing output, outputs
        that differ from the first repetition's, or (`wrong`) outputs that the
        first repetition's scores show to be wrong."""
        failed = 0
        reference = None
        for rep in reps:
            problem = rep.get("error")
            if problem is None and rep["rc"] != 0:
                problem = f"exit code {rep['rc']}: {rep['output'].strip()[-500:]}"
            if problem is None:
                lacking = [f for f in self.workload.outputs if f not in rep["digests"]]
                if lacking:
                    problem = f"missing outputs {lacking}"
            if problem is None:
                reference = reference or rep["digests"]
                if rep["digests"] != reference:
                    problem = "outputs differ from the first repetition"
                else:
                    problem = wrong
            if problem:
                failed += 1
                self.warnings.append(f"repetition {rep['index']}: {problem}")
        return failed

    def trace_guard(self, traced: list[dict]) -> tuple[list[str], list[str]]:
        """Boundaries that vanished or recorded no calls where this workload
        must reach them, and calls into layers it must bypass."""
        missing = set(traced[0]["missing"])
        calls = traced[0]["calls"]
        if traced[0]["threads"] > 1:
            self.warnings.append(f"spans came from {traced[0]['threads']} threads; inclusive "
                                 f"times overlap and shares may exceed 1")
        missing |= {n for n in self.workload.expect_calls if not calls.get(n)}
        unexpected = sorted(n for n in self.workload.expect_none if calls.get(n))
        for name in sorted(missing):
            self.warnings.append(f"trace boundary {name} is missing or recorded no calls")
        for name in unexpected:
            self.warnings.append(f"bypassed layer {name} recorded {calls[name]} calls")
        return sorted(missing), unexpected

    def run(self) -> dict:
        import scenes

        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        setup_times, scene = self.setup()
        reps = self.loop(scene)
        quality, wrong = {}, None
        try:
            quality = scenes.quality(self.workload, scene, self.dir / "out0")
            below = scenes.floor_violations(self.workload, quality)
            if below:
                wrong = "outputs miss the ground-truth floors: " + "; ".join(below)
        except (OSError, ValueError, KeyError) as e:
            wrong = f"outputs failed validation: {e}"
        failed = self.check(reps, wrong)
        ok = [r for r in reps if "error" not in r and r["rc"] == 0]
        plain = [r for r in ok if not r["traced"]]
        correct = failed == 0 and wrong is None and bool(plain)
        record = {
            "workload": self.workload.name,
            "loads": self.workload.loads,
            "bypasses": self.workload.bypasses,
            "seconds": self.seconds,
            "traced": self.traced,
            "environment": environment(self.seed),
            "setup_s": setup_times,
            "repetitions": [{k: v for k, v in r.items() if k not in ("layers", "calls")} for r in reps],
            "digests": plain[0]["digests"] if plain else {},
            "quality": quality,
        }
        if not plain:
            metrics = {}
        elif not self.traced:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in plain),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            }
        else:
            traced = [r for r in ok if r["traced"]]
            if not traced:
                correct = False
                metrics = {}
            else:
                missing, unexpected = self.trace_guard(traced)
                record.update(missing_boundaries=missing, unexpected_calls=unexpected,
                              layers=[r["layers"] for r in traced], calls=traced[0]["calls"])
                metrics = {k: statistics.median(r["layers"][k] for r in traced)
                           for k in traced[0]["layers"]}
                metrics["trace.overhead_frac"] = (
                    statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain) - 1.0)
                metrics["trace.missing_boundaries"] = len(missing)
                metrics["trace.unexpected_calls"] = len(unexpected)
                metrics.update({f"quality.{k}": v for k, v in quality.items()})
        units = PER_LAYER if self.traced else END_TO_END
        if metrics and set(metrics) != set(units):
            raise BenchError(f"metric names drifted from the declared set: "
                             f"{sorted(set(metrics) ^ set(units))}")
        record["warnings"] = self.warnings
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        path = results / f"{self.workload.name}-seed{self.seed}-trace{int(self.traced)}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return {
            "correct": correct,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
            "_results": str(path.relative_to(ROOT)),
        }


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.3f}")
    for key, m in result["metrics"].items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) and math.isfinite(value) else str(value)
        print(f"   {key:32s} {shown:>14s} {m['unit']}")
    print(f"   record: {result['_results']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rigalign benchmark")
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' for those in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rigalign" / "__init__.py").is_file():
        print(f"error: no rigalign sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import scenes

    declared = [w["name"] for w in DECLARED["workloads"]]
    names = declared if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in scenes.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {sorted(scenes.WORKLOADS)}",
              file=sys.stderr)
        return 2
    results = {}
    for name in names:
        try:
            results[name] = Runner(scenes.WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace)).run()
        except (BenchError, subprocess.TimeoutExpired) as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        print_table(name, results[name])
        for warning in json.loads((ROOT / results[name]["_results"]).read_text())["warnings"]:
            print(f"warning: {name}: {warning}", file=sys.stderr)
    if len(names) == 1:
        final = {k: v for k, v in results[names[0]].items() if not k.startswith("_")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
