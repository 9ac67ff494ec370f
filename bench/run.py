"""qfilter benchmark: per-command wall time on generated workloads.

Usage, from the repository root:

    python3 bench/run.py --workload pipeline-d2 --seed 1 --seconds 30 --trace 0

Each command runs in-process through ``qfilter.cli.main(argv)`` on a config
generated from the seed (see workloads.py), and every output is checked.
One pass runs the workload's commands once; passes repeat until the time
budget is spent, after one warm-up pass.  The reference kernels of
calibrate.py run before the first pass and after every pass, and each end-to-end
timing is a wall time scaled to the reference speed (see calibrate.py), so that
the shared host's drifting speed stays out of it; the full report keeps the
plain wall times too.  With ``--trace 0`` nothing is wrapped and the
end-to-end metrics are reported.  With ``--trace 1``
untraced and traced passes alternate (spans.Tracer is installed before each
traced pass and removed after it), the per-layer metrics are reported from
the traced passes, and ``trace.overhead_frac`` is the median, over adjacent
pairs, of traced / untraced pass time - 1.  Pairing the passes keeps a
drift in machine speed during the run out of that ratio.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (the end_to_end or per_layer names listed in
BENCHMARK.json).  The full report, with machine info and the metrics that
are absent on this workload, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_SAMPLES = 7
COMMANDS = ("master", "simulate", "filter", "ensemble", "classical", "verify")

# Runs in a fresh interpreter: numpy import and BLAS start-up, then qfilter.
# Then it times the reference kernels (the second of two runs, the first
# being their warm-up) in the same process; run.py scales by that time.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import numpy as np
np.ones((64, 64)) @ np.ones((64, 64))
sys.path.insert(0, sys.argv[1])
import qfilter, qfilter.cli
if not qfilter.__file__.startswith(sys.argv[1]):
    sys.exit("qfilter imported from " + qfilter.__file__)
wall = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calibrate
calibrate.measure()
print(wall, calibrate.measure())
"""


def import_qfilter():
    """Import qfilter from this checkout's src/, never from anywhere else."""
    if not (SRC / "qfilter" / "__init__.py").is_file():
        raise ImportError(f"no qfilter package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qfilter.cli

    if not Path(qfilter.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qfilter was imported from {qfilter.cli.__file__}, not {SRC}")
    return qfilter.cli


def measure_setup() -> tuple:
    """Set-up wall times and the reference-kernel time measured after each."""
    walls, kernels = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        wall, kernel = proc.stdout.strip().splitlines()[-1].split()
        walls.append(float(wall))
        kernels.append(float(kernel))
    return walls, kernels


# --- machine and library info ---------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


# --- running commands -----------------------------------------------------------


class Runner:
    """Runs a workload's commands, checks each output and counts failures."""

    def __init__(self, main, workload, size, seed: int, work: Path, checks: dict):
        self.main = main
        self.workload = workload
        self.size = size
        self.seed = seed
        self.work = work
        self.checks = checks
        config = workload.config(seed, size)
        self.dim = config["model"]["dim"]
        self.kind = config["measurement"]
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(config))
        self.attempted = 0
        self.failures = []
        self.commands = []  # (pass index, command) by command id
        self.memo = {}
        self.tracer = None

    def argv(self, command: str) -> list:
        if command == "verify":
            return ["verify", "--seed", str(self.seed)]
        argv = [command, "--config", str(self.config_path), "--seed", str(self.seed),
                "--out", str(self.work)]
        if command == "ensemble":
            argv += ["--trajectories", str(self.size.trajectories)]
        return argv

    def run_command(self, command: str):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.main(self.argv(command))
            except Exception:  # an unexpected crash counts as a failed operation
                wall = perf_counter() - start
                traceback.print_exc(file=err)
                code = None
            else:
                wall = perf_counter() - start
        return code, out.getvalue(), err.getvalue(), wall

    def run_pass(self, pass_index: int) -> dict:
        walls = {}
        for command in self.workload.commands:
            if self.tracer is not None:
                self.tracer.cmd_id = len(self.commands)
            self.commands.append((pass_index, command))
            code, stdout, stderr, wall = self.run_command(command)
            self.attempted += 1
            if code != 0:
                reason = f"exit code {code}: {stderr.strip()}"
            else:
                try:
                    reason = self.checks[command](
                        self.work, self.workload, self.size, stdout, self.memo)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    reason = f"output check raised {exc!r}"
            if reason:
                self.failures.append({"pass": pass_index, "command": command, "reason": reason})
            walls[command] = wall
        return walls

    def run_passes(self, budget: float, first_index: int) -> tuple:
        """Passes until the next one would end past the budget; at least one.
        Returns the passes and the reference-kernel time around each."""
        end = perf_counter() + budget
        passes, kernels = [], [calibrate.measure()]
        while True:
            start = perf_counter()
            passes.append(self.run_pass(first_index + len(passes)))
            kernels.append(calibrate.measure())
            now = perf_counter()
            if now + (now - start) > end:
                return passes, around(kernels)

    def run_pairs(self, budget: float, first_index: int, tracer, traced_main) -> tuple:
        """Untraced then traced pass, repeated until the next pair would end
        past the budget; at least one pair.  Returns (untraced, kernel times
        around them, traced)."""
        end = perf_counter() + budget
        untraced, traced, kernels = [], [], []
        main = self.main
        while True:
            start = perf_counter()
            index = first_index + 2 * len(untraced)
            before = calibrate.measure()
            untraced.append(self.run_pass(index))
            kernels.append((before + calibrate.measure()) / 2)
            tracer.install()
            self.tracer, self.main = tracer, traced_main
            try:
                traced.append(self.run_pass(index + 1))
            finally:
                tracer.uninstall()
                self.tracer, self.main = None, main
            now = perf_counter()
            if now + (now - start) > end:
                return untraced, kernels, traced


def around(kernels: list) -> list:
    """Mean reference-kernel time before and after each pass."""
    return [(a + b) / 2 for a, b in zip(kernels, kernels[1:])]


# --- summaries ------------------------------------------------------------------


def timing(walls: list, kernels: list) -> dict:
    """Median of the wall times scaled to the reference speed, with the sample
    count and the median of the plain wall times."""
    scaled = [w * calibrate.REF_S / k for w, k in zip(walls, kernels)]
    return {"value": statistics.median(scaled), "unit": "s", "n": len(walls),
            "wall": statistics.median(walls)}


def absent(unit: str, reason: str) -> dict:
    return {"absent": True, "unit": unit, "reason": reason}


def end_to_end(workload, passes: list, kernels: list, setup: tuple, attempted: int,
               failed: int) -> dict:
    report = {
        "setup_s": timing(*setup),
        "pass_s": timing([sum(p.values()) for p in passes], kernels),
    }
    for command in COMMANDS:
        if command in workload.commands:
            report[f"{command}_s"] = timing([p[command] for p in passes], kernels)
        else:
            report[f"{command}_s"] = absent("s", f"{workload.name} does not run {command}")
    report["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    report["error_rate"] = {"value": failed / attempted, "unit": "ratio",
                            "failed": failed, "attempted": attempted}
    return report


def per_layer(runner, tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics, each the median over the traced passes."""
    from layers import matches, pass_metrics

    arrays = tracer.arrays()
    site_names = [name for name, _ in tracer.sites]
    span_pass = np.array([p for p, _ in runner.commands], dtype=int)[arrays["cmd"]]
    ran = {site_names[i] for i in np.unique(arrays["site"])}
    per_pass = []
    for index in np.unique(span_pass):
        mask = span_pass == index
        spans = {k: v[mask] for k, v in arrays.items()}
        per_pass.append(pass_metrics(spans, site_names, runner.dim, runner.kind))
    report = {}
    for name, (_, unit, sources) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if not matches(sources, tracer.bound):
            report[name] = absent(unit, "no qfilter module imports " + " or ".join(sources))
        elif not matches(sources, ran):
            report[name] = absent(unit, f"no span of {' or '.join(sources)} ran on "
                                        f"{runner.workload.name} (not called, or called only "
                                        "inside its own module)")
        elif any(v is None for v in values):
            report[name] = absent(unit, f"no such work on {runner.workload.name}")
        else:
            report[name] = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    if not report["trajectory.kernel_flops_per_traj_step"].get("absent"):
        report["trajectory.kernel_flops_per_traj_step"]["computed"] = True
    ratios = [sum(t.values()) / sum(u.values()) for u, t in zip(untraced, traced)]
    report["trace.overhead_frac"] = {
        "value": statistics.median(ratios) - 1.0, "unit": "ratio", "n": len(ratios)}
    return report


def contract_metrics(report: dict, names: list) -> dict:
    """The BENCHMARK.json metrics, value and unit only; absent ones are left out."""
    return {
        name: {"value": report[name]["value"], "unit": report[name]["unit"]}
        for name in names
        if name in report and not report[name].get("absent")
    }


def format_metric(name: str, m: dict) -> str:
    if m.get("absent"):
        return f"  {name:<40} absent ({m['reason']})"
    extra = f"  n={m['n']}" if "n" in m else ""
    if "wall" in m:
        extra += f"  (wall {m['wall']:.6g} s)"
    return f"  {name:<40} {m['value']:.6g} {m['unit']}{extra}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full report."""
    cli = import_qfilter()
    from spans import Tracer
    from workloads import CHECKS, WORKLOADS

    if workload_name not in WORKLOADS:
        raise KeyError(f"unknown workload {workload_name!r}; options: {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    size = workload.tiny if tiny else workload.size
    setup = measure_setup()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload_name}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(cli.main, workload, size, seed, work, CHECKS)
        runner.run_pass(0)  # warm-up: checked, not timed
        calibrate.measure()  # warm-up of the reference kernels
        if trace:
            tracer = Tracer()
            traced_main = tracer.wrap(cli.main, "cli.main", "bench")
            untraced, kernels, traced = runner.run_pairs(seconds, 1, tracer, traced_main)
            passes = untraced
        else:
            passes, kernels = runner.run_passes(seconds, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": {"steps": size.steps, "trajectories": size.trajectories},
        "commands": list(workload.commands),
        "machine": machine_info(),
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures,
        "pass_walls_s": [sum(p.values()) for p in passes],
        "kernel_s": kernels,
        "setup_walls_s": setup[0],
        "setup_kernel_s": setup[1],
        "end_to_end": end_to_end(workload, passes, kernels, setup, runner.attempted, failed),
    }
    if trace:
        report["per_layer"] = per_layer(runner, tracer, traced, untraced)
        spans_path = OUT / f"spans_{workload_name}.npz"
        tracer.save(spans_path, runner.commands)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc!r}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n")

    kind = "per_layer" if args.trace else "end_to_end"
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{report['attempted']} commands, {report['failed']} failed")
    for failure in report["failures"]:
        print(f"  FAILED pass {failure['pass']} {failure['command']}: {failure['reason']}")
    for section in ("end_to_end", "per_layer"):
        if section in report:
            print(f"{section}:")
            for name, m in report[section].items():
                print(format_metric(name, m))
    print(f"full report: {result_path.relative_to(ROOT)}")
    names = [m["name"] for m in spec[kind]]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": contract_metrics(report[kind], names),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
