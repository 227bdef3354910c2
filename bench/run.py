"""mcqnet benchmark: four checked workloads, end-to-end and per-layer metrics.

    python3 bench/run.py                              # all four workloads
    python3 bench/run.py --workload exact-lines --seed 7 --seconds 20 --trace 0

Run from the repository root; mcqnet is imported from ``src/``. Each workload
runs in its own process (``worker.py``) with ``QNET_THREADS=1``. With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run
instead. See README.md for the workloads, checks and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from time import perf_counter

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc-lines", "scan-tandem", "exact-lines", "couple-verify")
SETUP_SAMPLES = 7  # set-up probes per run, median reported; the last one is the measured worker
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("QNET_", "PYTHON"))}
    env.update(
        QNET_THREADS="1",  # an exported value must not change what is measured
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Worker:
    """A workload process, timed from spawn to its ``ready`` line."""

    def __init__(self, args, workload: str, setup_only: bool, deadline: float):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=_env(), bufsize=0)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else b""
            self.setup_s = perf_counter() - t0
            if line.strip() != b"ready":
                raise BenchError(f"{workload} worker did not get ready (exit {self.proc.poll()})")
        except BaseException:
            self.kill()
            raise

    def _left(self) -> float:
        return max(0.1, self.deadline - perf_counter())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise BenchError("worker passed the time limit") from None
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}")
        return out.decode()


def run_workload(args, workload: str, deadline: float) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = Worker(args, workload, True, deadline)
            setups.append(probe.setup_s)
            probe.finish()
    worker = Worker(args, workload, False, deadline)
    setups.append(worker.setup_s)
    lines = worker.finish().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    res = json.loads(lines[-1])
    if args.trace:
        metrics = {k: (res["per_layer"][k], unit) for k, unit in PER_LAYER.items() if k in res["per_layer"]}
    else:
        metrics = {
            "solve_s": (statistics.median(res["solve_s"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    return {"res": res, "metrics": metrics}


def report(workload: str, out: dict) -> dict:
    res = out["res"]
    print(f"== {workload}: {len(res['solve_s'])} untraced rounds, "
          f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}, "
          f"checks and oracles {res['check_s']:.2f} s")
    if res["wall_s"]:
        print(f"   wall-clock round median {statistics.median(res['wall_s']):.4f} s over {len(res['wall_s'])} rounds")
    for msg in res["messages"]:
        print(f"   {msg}")
    if res.get("absent"):
        print(f"   absent (wrapper target missing): {', '.join(res['absent'])}")
    for name, (value, unit) in out["metrics"].items():
        print(f"   {name:40s} {value:>16.6g} {unit}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mcqnet", "__init__.py")):
        print(f"error: no mcqnet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.seed % 2:  # alternate workload order across repeated runs
        names.reverse()
    results = {}
    try:
        for name in names:
            results[name] = report(name, run_workload(args, name, perf_counter() + DEADLINE_S))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
