"""The repository benchmark: cold-process checks of bundled corpus entries.

    python3 perfbench/run.py --workload hash-and-sign|prove-refute
                             --seed N --seconds S --trace 0|1

Each sample is a fresh interpreter (``sample.py``) that runs every entry of
the workload once, in an order shuffled by the seed: a closed loop, one check
at a time.  A run always makes one sample, and starts another only while the
last one would still end within ``--seconds``.  Set-up-only interpreters are
started before and after the samples, so that ``setup_s`` is a median of
set-ups spread over the run.

With ``--trace 0`` the end-to-end metrics are the medians over the samples.
With ``--trace 1`` each round runs an untraced check-only reference sample
beside a traced sample, and the metrics are the per-layer figures of the
traced samples, the tracing overhead (traced over untraced ``check_s``) and
the time no layer span covers.

Every verdict is compared with the corpus's ``expect``; every Bisimilar
witness is re-validated and every distinguishing formula pair is re-checked
with the model checker.  A mismatch, an ``Unknown``, or an exception counts
as a failed check.  The last line of output is the JSON result; the line
before it is a JSON report with provenance and one row per entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, entry_order  # noqa: E402

SETUP_PROBES = 3          # set-up-only interpreters before and after the samples
DEADLINE_S = 170.0        # a run never outlives this


class BenchError(Exception):
    pass


def _source_digest() -> str:
    """Digest of the package sources measured (the checkout need not be a
    git repository)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "openbisim")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith((".py", ".pyx", ".pi", ".thy", ".fm")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    def __init__(self, workload: str, seed: int, start: float):
        self.workload = workload
        self.seed = seed
        self.start = start
        self.live: list[subprocess.Popen] = []

    def launch(self, mode: str, trace: bool = False, round_: int = 0) -> subprocess.Popen:
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        # string hashing is fixed per seed and round, so a run repeats and
        # a traced sample hashes like its untraced reference
        env["PYTHONHASHSEED"] = str((self.seed * 1009 + round_) % 4294967296)
        argv = [sys.executable, os.path.join(HERE, "sample.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--mode", mode] + (["--trace"] if trace else [])
        argv += ["--launched", str(time.monotonic_ns())]
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        self.live.append(proc)
        return proc

    def collect(self, proc: subprocess.Popen) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        try:
            out, err = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError("sample exceeded the run deadline") from None
        self.live.remove(proc)
        if proc.returncode != 0:
            raise BenchError(f"sample exited {proc.returncode}:\n{err[-4000:]}")
        if err.strip():
            sys.stderr.write(err)
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("sample printed no result")
        return json.loads(lines[-1])

    def run(self, mode: str, trace: bool = False, round_: int = 0) -> dict:
        return self.collect(self.launch(mode, trace, round_))

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def stop(self) -> None:
        """Kill every sample still running and wait for it to end."""
        for proc in self.live:
            proc.kill()
            proc.communicate()
        self.live.clear()


def _declared_units(trace: bool) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _measure(runner: Runner, seconds: float, trace: bool):
    """Run the samples of one run; return (set-up times, samples, untraced
    references of the traced samples)."""
    def probe_setups():
        return [runner.run("setup-only", round_=i)["setup_s"]
                for i in range(SETUP_PROBES)]

    setups = probe_setups()
    samples: list[dict] = []
    references: list[dict] = []
    parallel = len(os.sched_getaffinity(0)) >= 2
    last_s = 0.0
    while not samples or runner.elapsed() + last_s <= seconds:
        round_ = len(samples)
        round_start = runner.elapsed()
        if not trace:
            samples.append(runner.run("full", round_=round_))
        # untraced reference beside the traced sample: both see the same
        # machine state, so their ratio is the tracing overhead
        elif parallel:
            ref = runner.launch("check-only", round_=round_)
            traced = runner.launch("full", trace=True, round_=round_)
            references.append(runner.collect(ref))
            samples.append(runner.collect(traced))
        else:
            references.append(runner.run("check-only", round_=round_))
            samples.append(runner.run("full", trace=True, round_=round_))
        last_s = runner.elapsed() - round_start
    setups += probe_setups() + [s["setup_s"] for s in samples + references]
    return setups, samples, references


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "openbisim", "__init__.py")):
        raise BenchError(f"no openbisim package under {ROOT}/src")
    load_start = os.getloadavg()
    runner = Runner(args.workload, args.seed, start)

    try:
        setups, samples, references = _measure(runner, args.seconds, bool(args.trace))
    finally:
        runner.stop()

    rows = [row for s in samples + references for row in s["entries"]]
    failed = sum(not row["ok"] for row in rows)
    median = statistics.median
    if args.trace:
        per_sample = [layer_metrics(s["trace"], s["entries"]) for s in samples]
        metrics = {k: median([m[k] for m in per_sample]) for k in per_sample[0]}
        metrics["trace.overhead_ratio"] = median(
            [s["check_s"] / r["check_s"] for s, r in zip(samples, references)])
    else:
        metrics = {
            "setup_s": median(setups),
            "check_s": median([s["check_s"] for s in samples]),
            "validate_s": median([s["validate_s"] for s in samples]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        }
    units = _declared_units(bool(args.trace))
    if set(units) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")

    first = samples[0]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "order": entry_order(args.workload, args.seed),
        "samples": len(samples),
        "sample_check_s": [s["check_s"] for s in samples],
        "sample_validate_s": [s["validate_s"] for s in samples],
        "setup_samples": len(setups),
        "provenance": {
            "kernel": first["kernel"],
            "python": first["python"],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
        },
        "entries": [
            {k: row[k] for k in ("name", "expect", "got", "ok", "check_s",
                                 "validate_s", "witness_pairs",
                                 "strategy_depth", "error")}
            for row in first["entries"]
        ],
        "missing_trace_targets": first.get("trace", {}).get("missing", []),
    }
    for row in report["entries"]:
        print(f"{row['name']:<24} {row['got'] or '-':<13} "
              f"check {row['check_s']:8.3f}s  validate {row['validate_s']:8.3f}s"
              + ("" if row["ok"] else f"  FAILED {row['error'] or ''}"))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
