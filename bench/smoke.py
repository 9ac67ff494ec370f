"""Self-check of the benchmark harness at tiny sizes (about 30 s).

    python3 bench/smoke.py

For every workload it runs the benchmark untraced and traced at the smoke
size, twice traced with the same seed, and checks that:

- every output check passed;
- every end-to-end and per-layer metric named below is emitted with its
  unit (a metric may be absent on a workload, but then says so);
- every metric listed in BENCHMARK.json is present, with the listed unit;
- the jump-branch metrics are absent on the quadrature workloads;
- the counted per-layer metrics repeat exactly between the two traced runs
  (or are absent in both).

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import sys

import run

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "master_s": "s", "simulate_s": "s", "filter_s": "s",
    "ensemble_s": "s", "classical_s": "s", "verify_s": "s", "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
PER_LAYER = {
    "model.ops_calls": "count", "model.ops_us": "us",
    "model.generator_calls": "count", "model.generator_us": "us",
    "trajectory.kernel_calls": "count", "trajectory.kernel_self_us": "us",
    "trajectory.kernel_ns_per_traj_step": "ns", "trajectory.kernel_flops_per_traj_step": "flop",
    "trajectory.simulate_self_s": "s", "trajectory.filter_self_s": "s",
    "trajectory.innovations_s": "s", "trajectory.jump_steps": "count",
    "trajectory.jump_branch_useful_frac": "ratio",
    "ensemble.self_s": "s", "ensemble.noise_s": "s", "linalg.trace_distance_s": "s",
    "master.integrate_s": "s", "master.rk4_us_per_step": "us",
    "io.write_s": "s", "io.read_s": "s", "io.bytes_written": "bytes", "io.us_per_row": "us",
    "classical.particle_step_us": "us", "classical.posterior_us": "us",
    "classical.posterior_calls": "count", "classical.resample_frac": "ratio",
    "verify.qprob_s": "s", "verify.ito_s": "s", "config.parse_ms": "ms",
    "trace.overhead_frac": "ratio",
}
JUMP_METRICS = ("trajectory.jump_steps", "trajectory.jump_branch_useful_frac")
COUNTED = (
    "model.ops_calls", "trajectory.kernel_calls", "trajectory.jump_steps",
    "io.bytes_written", "classical.posterior_calls",
)
SEED = 3
SECONDS = 0.5


def check_section(problems, label, section: dict, expected: dict, spec: list):
    for name, unit in expected.items():
        if name not in section:
            problems.append(f"{label}: {name} not emitted")
        elif section[name]["unit"] != unit:
            problems.append(f"{label}: {name} unit {section[name]['unit']!r}, expected {unit!r}")
    for m in spec:
        got = section.get(m["name"])
        if got is None or got.get("absent"):
            problems.append(f"{label}: BENCHMARK.json metric {m['name']} is absent")
        elif got["unit"] != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {got['unit']!r}, BENCHMARK.json says {m['unit']!r}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    run.import_qfilter()
    from workloads import WORKLOADS

    if sorted(WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        problems.append("workloads.py and BENCHMARK.json list different workloads")
    for name in WORKLOADS:
        plain = run.run(name, SEED, SECONDS, trace=False, tiny=True)
        traced = [run.run(name, SEED, SECONDS, trace=True, tiny=True) for _ in range(2)]
        for label, report in ((f"{name} untraced", plain), (f"{name} traced", traced[0])):
            if not report["correct"]:
                problems.append(f"{label}: failed checks {report['failures']}")
        check_section(problems, name, plain["end_to_end"], END_TO_END, spec["end_to_end"])
        check_section(problems, name, traced[0]["per_layer"], PER_LAYER, spec["per_layer"])
        if WORKLOADS[name].config(SEED, WORKLOADS[name].tiny)["measurement"] == "quadrature":
            for metric in JUMP_METRICS:
                if not traced[0]["per_layer"][metric].get("absent"):
                    problems.append(f"{name}: {metric} is reported on a quadrature workload")
        for metric in COUNTED:
            a, b = (t["per_layer"][metric].get("value") for t in traced)
            if a != b:
                problems.append(f"{name}: {metric} differs between runs at one seed: {a} vs {b}")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print("PROBLEM", problem)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
