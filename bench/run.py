"""qsym benchmark: run one workload of qsym CLI calls, check every output,
and print its metrics.

    python3 bench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program under test is
``src/qsym``, started as ``python -m qsym.cli`` in a fresh process for every
operation, so every call pays interpreter start, imports and cold caches,
as a user does.  Operations run in whole rounds until ``--seconds`` have
passed.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` each operation is run once plain and once under
``tracer.py``, and the per-layer metrics and the tracing overhead are
reported.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import SpanTotals, layer_metrics  # noqa: E402
from reference import Reference, self_test  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_QUERY = ("query", "qbinomial", "--n", "1", "--k", "0")
# The host is shared: for tens of seconds at a time it runs every process up
# to twice as slow.  So the benchmark interleaves probe pairs with the calls
# (a set-up probe, then calibrate.py) at least every PROBE_INTERVAL_S, and
# scales its times by REFERENCE_CALIBRATION_S / (mean calibrate.py time of
# the run): figures read as seconds of the reference host (2 cores, Python
# 3.11.7) when nothing else contends for it.
REFERENCE_CALIBRATION_S = 0.16
PROBE_INTERVAL_S = 1.0
WORK_DIR = ROOT / ".bench_build"


class Launcher:
    """The small ``launcher.py`` process that starts every command of a run,
    so each command's peak resident set is its own (see launcher.py)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, cmd: list):
        """(exit code, stdout bytes, wall seconds, peak resident set in KiB)."""
        self.proc.stdin.write(json.dumps(cmd).encode() + b"\n")
        self.proc.stdin.flush()
        header = json.loads(self.proc.stdout.readline())
        out = self.proc.stdout.read(header["bytes"])
        return header["code"], out, header["wall"], header["maxrss_kb"]

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


class Probes:
    """Set-up probes (a fresh CLI process answering a trivial query) paired
    with calibration probes (``calibrate.py``), taken through the run."""

    def __init__(self, launcher: Launcher):
        self.launcher = launcher
        self.setup = []
        self.calibration = []
        self.last = 0.0
        self._run([sys.executable, "-m", "qsym.cli", *SETUP_QUERY])  # settle bytecode caches
        self.take()

    def _run(self, cmd: list) -> float:
        code, out, wall, _ = self.launcher.run(cmd)
        if code != 0 or not out.strip():
            raise SystemExit(f"probe {' '.join(cmd[1:])} failed with exit {code}")
        return wall

    def take(self):
        self.setup.append(self._run([sys.executable, "-m", "qsym.cli", *SETUP_QUERY]))
        self.calibration.append(self._run([sys.executable, str(BENCH / "calibrate.py")]))
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_INTERVAL_S

    def scale(self) -> float:
        return REFERENCE_CALIBRATION_S / statistics.mean(self.calibration)

    def setup_s(self) -> float:
        """Median over the pairs of set-up time relative to calibration."""
        return REFERENCE_CALIBRATION_S * statistics.median(
            s / c for s, c in zip(self.setup, self.calibration))


def quantile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks of the ascending values."""
    pos = p * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class Run:
    """Outcomes and timings of one benchmark run."""

    def __init__(self, ops):
        self.ops = ops
        self.context = {}            # shared by the checks of this run
        self.checked = {}            # op index -> (stdout digest, work or None)
        self.walls = [[] for _ in ops]
        self.peak_kb = 0
        self.op_failed = [False] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def problem(self, i: int, what: str):
        self.correct = False
        self.problems.append(f"{' '.join(self.ops[i].argv)}: {what}")

    def record(self, i: int, code: int, out: bytes, wall: float, maxrss_kb: int) -> str:
        """Account for one call of operation i; returns its stdout digest.

        An output is checked the first time it is seen; later rounds must
        reproduce it byte for byte."""
        self.attempted += 1
        self.walls[i].append(wall)
        self.peak_kb = max(self.peak_kb, maxrss_kb)
        digest = hashlib.sha256(out).hexdigest()
        work = None
        if code == 0:
            seen = self.checked.get(i)
            if seen is None:
                try:
                    work = self.ops[i].check(out.decode("utf-8"), self.context)
                except (CheckFailed, UnicodeDecodeError) as exc:
                    self.problem(i, str(exc))
                self.checked[i] = (digest, work)
            elif seen[0] != digest:
                self.problem(i, "output changed between rounds")
            else:
                work = seen[1]
        if work is None:
            self.failed += 1
            self.op_failed[i] = True
        return digest

    def op_times(self) -> list:
        """Mean wall time of each operation over the rounds."""
        return [statistics.mean(w) for w in self.walls]

    def work(self, key: str) -> int:
        return sum(self.checked[i][1].get(key, 0) for i in range(len(self.ops))
                   if not self.op_failed[i])


# The unit of work of each workload, as its checks count it ("queries" counts
# one per successful call).
WORK_UNIT = {"tables": "coeffs", "oracles": "objects", "verify": "checks", "queries": "calls"}


def end_to_end(name: str, run: Run, probes: Probes) -> dict:
    """The workload's end-to-end metrics, times in reference-host seconds."""
    scale = probes.scale()
    times = [t * scale for t in run.op_times()]
    # A failed call counts as slower than every success.
    slowest = max((t for bad, t in zip(run.op_failed, times) if not bad), default=0.0)
    latency = sorted(max(t, slowest) if bad else t for bad, t in zip(run.op_failed, times))
    return {"setup_s": (probes.setup_s(), "s"),
            "peak_rss_mb": (run.peak_kb / 1024, "MB"),
            "work_per_s": (run.work(WORK_UNIT[name]) / sum(times), "1/s"),
            "call_p50_s": (quantile(latency, 0.50), "s"),
            "call_p75_s": (quantile(latency, 0.75), "s")}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    ref = Reference()
    mismatches = self_test(ref)
    if mismatches:
        raise SystemExit("reference self-test failed: " + ", ".join(mismatches))
    ops = WORKLOADS[name](seed, ref)
    launcher = Launcher(dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    try:
        return measure(name, ops, seconds, trace, launcher)
    finally:
        launcher.close()


def measure(name: str, ops: list, seconds: float, trace: bool, launcher: Launcher):
    probes = Probes(launcher)
    run = Run(ops)
    spans = SpanTotals()
    traced_walls = [[] for _ in ops]
    rounds = 0
    round_digest = None
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        spans_file = Path(tmp) / "spans.json"
        t0 = time.perf_counter()
        while True:
            digests = hashlib.sha256()
            for i, op in enumerate(ops):
                code, out, wall, maxrss_kb = launcher.run(
                    [sys.executable, "-m", "qsym.cli", *op.argv])
                digest = run.record(i, code, out, wall, maxrss_kb)
                digests.update(f"{' '.join(op.argv)}\0{code}\0{digest}\n".encode())
                if trace:
                    tcode, tout, twall, _ = launcher.run(
                        [sys.executable, str(BENCH / "tracer.py"), str(spans_file), "--",
                         *op.argv])
                    traced_walls[i].append(twall)
                    if (tcode, tout) != (code, out):
                        run.problem(i, "traced run differs from the plain run")
                    try:
                        spans.add(json.loads(spans_file.read_text()), len(tout))
                    except (OSError, ValueError) as exc:
                        run.problem(i, f"no spans ({exc})")
                if probes.due():
                    probes.take()
            rounds += 1
            if round_digest is None:
                round_digest = digests.hexdigest()
            elif round_digest != digests.hexdigest():
                run.correct = False
                run.problems.append("round digest changed")
            if time.perf_counter() - t0 >= seconds:
                break
    probes.take()

    if trace:
        metrics = layer_metrics(spans, rounds)
        traced_s = sum(statistics.mean(w) for w in traced_walls)
        metrics["trace.overhead_s"] = (traced_s - sum(run.op_times()), "s")
    else:
        metrics = end_to_end(name, run, probes)
    return run, rounds, round_digest, metrics, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsym" / "cli.py").is_file():
        print(f"error: no qsym sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    run, rounds, digest, metrics, probes = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in run.problems[:20]:
        print(f"problem: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(run.ops)} calls, "
          f"mean round {sum(run.op_times()):.2f} s wall, mean calibration "
          f"{statistics.mean(probes.calibration):.3f} s over {len(probes.calibration)} probes, "
          f"{run.failed} of {run.attempted} failed")
    print(f"digest {args.workload} seed={args.seed} sha256={digest}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
