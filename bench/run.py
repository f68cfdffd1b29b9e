"""Whole-corpus build benchmark for bitextkit.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Generates each workload from the seed (see workloads.py), then repeatedly
runs ``bitextkit.pipeline.run_pipeline`` on it, each run in a fresh
interpreter, for about ``--seconds`` seconds. With ``--trace 0`` it
alternates jobs=1 and jobs=2 runs and fresh-interpreter set-ups, each
followed by a fixed calibration task, and reports the end-to-end metrics
with times scaled to a reference host speed (see :func:`calibrate`); with ``--trace 1`` it alternates untraced and traced
jobs=1 runs and reports the per-layer metrics. Every run's artifacts are
checked (checks.py). Prints one row per workload, then as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 1 if any check failed, 2 if the repository's source is missing.

Metric names and units are those of BENCHMARK.json. Results, with the
machine they ran on, go to ``.bench_results/``; scratch files go to
``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

MIN_RUNS = 3  # rounds per run, however short --seconds is
MIN_SETUPS = 5
#: A child still running this long after --seconds is killed and its
#: articles fail; at --seconds 40 a workload's invocation ends within 180 s.
DEADLINE_MARGIN_S = 130
#: calibrate() takes this long on the reference host (a 2-core VM, Python 3.11).
CALIBRATION_REF_S = 0.2

SETUP_CODE = "import sys, bitextkit.cli; from bitextkit.pipeline import load_config; load_config(sys.argv[1])"


def calibrate() -> float:
    """Wall time of a fixed pure-Python task: string keys counted in a dict,
    the kind of work the pipeline does.

    A shared host runs the same Python work at speeds that differ by up to 2x
    over seconds to minutes, and the pipeline's CPU time follows its wall
    time, so CPU time does not remove this. Timing this task between the
    children and scaling their times by ``CALIBRATION_REF_S / mean`` reports
    them in seconds of the reference host; a change to the package moves
    the scaled times exactly as it moves the wall times.
    """
    t0 = time.perf_counter()
    for _ in range(2):
        counts: dict[str, int] = {}
        for i in range(300_000):
            key = str(i % 5000)
            counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - t0


class ChildFailed(Exception):
    """A child interpreter exited non-zero or ran past the deadline."""


class Bench:
    """One workload at one seed: its generated inputs, runs and checks."""

    def __init__(self, name: str, seed: int, trace: bool, seconds: float):
        from workloads import generate

        self.name, self.seed, self.trace, self.seconds = name, seed, trace, seconds
        self.dir = WORK / f"{name}-seed{seed}-{os.getpid()}"
        self.inputs = self.dir / "input"
        self.plan = generate(name, seed, self.inputs)
        self.config = self.inputs / "config.json"
        self.articles = self.plan["articles"]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _child(self, args: list[str]) -> str:
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=self.env, cwd=ROOT, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the run and any pool workers
            proc.communicate()
            raise ChildFailed("timed out") from None
        if proc.returncode != 0:
            raise ChildFailed(err.strip().splitlines()[-1] if err.strip() else f"exit {proc.returncode}")
        return out

    def setup(self) -> float:
        """Wall time for a fresh interpreter to import the CLI and load the config."""
        t0 = time.perf_counter()
        self._child(["-c", SETUP_CODE, str(self.config)])
        return time.perf_counter() - t0

    def run(self, mode: str, jobs: int, reference: dict | None, label: str) -> dict | None:
        """One pipeline run, checked; None if it failed outright."""
        from checks import Verdict, check_output, compare_digests

        out = self.dir / ("reference" if reference is None else "repeat")
        shutil.rmtree(out, ignore_errors=True)
        extra = [str(jobs)] if mode == "run" else [str(RESULTS / f"{self.name}-seed{self.seed}-spans.jsonl")]
        self.attempted += len(self.articles)
        try:
            result = json.loads(self._child([str(BENCH / "child.py"), mode, str(self.config), str(out), *extra]))
        except ChildFailed as exc:
            result, verdict = None, Verdict()
            verdict.fail(self.articles, f"{label}: run failed: {exc}")
        else:
            if reference is None:
                verdict = check_output(out, self.inputs, self.plan)
                result["f1"] = verdict.f1
            else:
                verdict = Verdict()
                compare_digests(reference["digests"], result["digests"], self.articles, label, verdict)
        if reference is not None:
            shutil.rmtree(out, ignore_errors=True)
        self.failed += len(verdict.failed)
        self.problems += verdict.problems
        return result

    def measure(self) -> dict[str, float]:
        self.setup()  # compiles bytecode once, so set-up samples see warm caches
        start = time.monotonic()
        calibrations = [calibrate()]
        ref = self.run("run", 1, None, "reference")
        if ref is None:
            return {}
        if self.trace:
            return self._measure_trace(ref, start)
        runs1, runs2, setups = [ref], [], []

        def sample(runs: list, value) -> None:
            runs.append(value)
            calibrations.append(calibrate())

        for _ in self._iterations(start):
            sample(runs2, self.run("run", 2, ref, "jobs=2 vs jobs=1"))
            sample(setups, self.setup())
            sample(runs1, self.run("run", 1, ref, "repeated jobs=1"))
        while len(setups) < MIN_SETUPS:
            sample(setups, self.setup())
        runs1, runs2 = [r for r in runs1 if r], [r for r in runs2 if r]
        scale = CALIBRATION_REF_S / _mean(calibrations)
        # Run times are means: on a shared host the samples of one run split
        # into a fast and a slow mode, and a median flips between them.
        wall = {
            "run_s": _mean(r["run_s"] for r in runs1),
            "run_s_jobs2": _mean(r["run_s"] for r in runs2),
            "setup_s": _median(setups),
        }
        return {
            **{k: v * scale for k, v in wall.items()},
            "peak_rss_mb": _median(r["peak_rss_kb"] / 1024 for r in runs1),
            "align_f1": ref["f1"],
            "wall": wall,
            "samples": {
                "run_s": [r["run_s"] for r in runs1],
                "run_s_jobs2": [r["run_s"] for r in runs2],
                "setup_s": setups,
                "calibrate_s": calibrations,
            },
        }

    def _iterations(self, start: float):
        """Count measurement rounds: at least MIN_RUNS, then more while the
        next round, as long as the last one, still ends within --seconds."""
        done, last = 0, 0.0
        while not self.problems and (done < MIN_RUNS or time.monotonic() - start + last <= self.seconds):
            t0 = time.monotonic()
            yield done
            done, last = done + 1, time.monotonic() - t0

    def _measure_trace(self, ref: dict, start: float) -> dict[str, float]:
        plain, traced = [ref], []
        for _ in self._iterations(start):
            traced.append(self.run("trace", 1, ref, "traced vs untraced"))
            plain.append(self.run("run", 1, ref, "repeated jobs=1"))
        # each traced run against the mean of the untraced runs just before and
        # after it, which cancels a host that speeds up or slows down steadily
        overhead = [
            t["run_s"] - (a["run_s"] + b["run_s"]) / 2
            for t, a, b in zip(traced, plain, plain[1:])
            if t and a and b
        ]
        plain, traced = [r for r in plain if r], [r for r in traced if r]
        layers = {k: _median(r["layers"][k] for r in traced) for k in traced[0]["layers"]} if traced else {}
        for stage in ("preprocess", "sbd", "align", "dedup", "split", "stats"):
            layers[f"pipeline.stage.{stage}_s"] = _median(_stage(r, stage)["duration_s"] for r in plain)
        dedup = _stage(ref, "dedup")
        layers["pipeline.dedup_removed_ratio"] = (dedup["inputs"] - dedup["outputs"]) / max(dedup["inputs"], 1)
        layers["trace.run_s_untraced"] = _median(r["run_s"] for r in plain)
        layers["trace.run_s_traced"] = _median(r["run_s"] for r in traced)
        layers["trace.overhead_s"] = _median(overhead)
        layers["samples"] = {"trace.run_s_untraced": [r["run_s"] for r in plain], "trace.run_s_traced": [r["run_s"] for r in traced]}
        return layers

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _stage(result: dict, stage: str) -> dict:
    return next(e for e in result["run_log"] if e["stage"] == stage)


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bitextkit" / "__init__.py").is_file():
        print(f"error: no bitextkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = spec["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    host = machine()
    print(f"# nproc={host['nproc']} python={host['python']} seed={args.seed} trace={args.trace} {host['platform']}")
    RESULTS.mkdir(exist_ok=True)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        bench = Bench(name, args.seed, bool(args.trace), args.seconds)
        try:
            values = bench.measure()
        finally:
            bench.close()
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in reported}
        result = {
            "correct": bench.failed == 0 and bool(values),
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }
        record = dict(result, workload=name, seed=args.seed, trace=args.trace, machine=host,
                      wall_s=values.get("wall", {}), samples=values.get("samples", {}), error_rate=bench.failed / bench.attempted,
                      problems=bench.problems[:50])
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
        _print_row(name, metrics, values, bench)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in metrics.items()} if len(names) > 1 else metrics)
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def _print_row(name: str, metrics: dict, values: dict, bench: Bench) -> None:
    samples, wall = values.get("samples", {}), values.get("wall", {})
    cells = []
    for k, m in metrics.items():
        cell = f"{k}={m['value']:.6g} {m['unit']}"
        if k in wall:
            cell += f" (wall {wall[k]:.6g} {m['unit']}, n={len(samples[k])}, median {_median(samples[k]):.6g})"
        cells.append(cell)
    if "calibrate_s" in samples:
        cells.append(f"calibrate_s={_mean(samples['calibrate_s']):.6g} s (reference {CALIBRATION_REF_S} s)")
    cells.append(f"error_rate={bench.failed / bench.attempted:.6g} ratio ({bench.failed} of {bench.attempted} article runs failed)")
    print(f"{name}: " + "; ".join(cells))
    for problem in bench.problems[:10]:
        print(f"  FAILED {problem}")


if __name__ == "__main__":
    sys.exit(main())
