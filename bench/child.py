"""One measured pipeline run in a fresh interpreter.

    python3 bench/child.py run CONFIG OUTPUT JOBS
    python3 bench/child.py trace CONFIG OUTPUT SPANS

``run`` times one ``run_pipeline`` with tracing off; ``trace`` runs it at
jobs=1 with the layer wrappers of :mod:`tracing` installed and writes the
spans to SPANS as JSON lines. Either prints one JSON object: the run's wall
time, the process's peak resident memory (VmHWM), the run log, and a SHA-256
digest of every artifact except ``run_log.jsonl``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from bitextkit.pipeline import load_config, run_pipeline  # noqa: E402


def peak_rss_kb() -> int:
    """This process's peak resident memory. Not ru_maxrss: on Linux that
    keeps the parent's peak across fork and exec, so a large benchmark
    process would show through."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def digests(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "run_log.jsonl"
    }


def main(argv: list[str]) -> None:
    mode, config_path, output = argv[0], argv[1], Path(argv[2])
    config = dataclasses.replace(load_config(config_path), output=output.resolve())
    result: dict = {}
    if mode == "run":
        t0 = time.perf_counter()
        run_pipeline(config, jobs=int(argv[3]))
        result["run_s"] = time.perf_counter() - t0
    elif mode == "trace":
        from tracing import Tracer

        pair_of_doc = {}
        for line in (config.input / "metadata.tsv").read_text(encoding="utf-8").splitlines():
            doc_id, pair_id = line.split("\t")[:2]
            pair_of_doc[doc_id] = pair_id
        tracer = Tracer(pair_of_doc)
        tracer.install()
        try:
            t0 = time.perf_counter()
            tracer.call("pipeline.run", run_pipeline, config, jobs=1)
            result["run_s"] = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        result["layers"] = tracer.metrics()
        with open(argv[3], "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "pair_id"), span))) + "\n")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_kb"] = peak_rss_kb()
    result["run_log"] = [json.loads(line) for line in (output / "run_log.jsonl").read_text().splitlines()]
    result["digests"] = digests(output)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
