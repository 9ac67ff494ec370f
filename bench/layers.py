"""Per-layer metrics derived from the spans of one traced pass.

Each metric names the span names it is computed from (a name ending in "."
stands for every span of that module).  A metric is reported absent, not as
an error or as 0, when none of those names has a binding any more (a
refactor removed the import), when no span of them ran on the workload (the
layer did no such work, or did it only in calls inside its own module), or
when its denominator is zero.
"""

from __future__ import annotations

import numpy as np

from spans import LAYER_OF_MODULE, LAYERS, layer_of

OPS = ("model.modulated_operators",)
GENERATORS = ("model.lindblad_adjoint", "model.adjoint_generator")
QUAD_KERNEL = "trajectory.quad_step_arrays"
COUNT_KERNEL = "trajectory.count_step_arrays"
KERNELS = (QUAD_KERNEL, COUNT_KERNEL)
SIMULATE = ("trajectory.simulate_record",)
FILTER = ("trajectory.filter_record",)
INNOVATIONS = ("trajectory.innovations",)
NOISE = ("trajectory._draw_noise",)
TRACE_DISTANCE = ("linalg.trace_distance",)
MASTER = ("master.integrate_master",)
WRITES = (
    "io.write_states_csv", "io.write_record_csv",
    "io.write_ensemble_outputs", "io.write_classical_csv",
)
READS = ("io.read_record_csv",)
PARTICLE_STEP = ("classical.particle_step",)
POSTERIOR = ("classical.posterior",)
CONFIG = ("config.parse_config",)


def kernel_flops_per_traj_step(dim: int, kind: str) -> int:
    """Real flops of the complex d x d matrix products in one kernel step.

    A complex product costs 8 d^3 real flops.  The quadrature kernel does 8
    products (6 in the drift, 2 in the gain); the counting kernel does 10
    without the jump branch (8 in the no-jump drift, 2 for the jump rate).
    Elementwise work, O(d^2), is left out.
    """
    products = 8 if kind == "quadrature" else 10
    return products * 8 * dim**3


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else None


def pass_metrics(a: dict, site_names: list, dim: int, kind: str) -> dict:
    """name -> (value or None, unit, source span names) for one pass's spans.

    `a` holds the pass's spans as Tracer.arrays() gives them; site_names
    maps a span's site index to its span name.
    """

    def sites_where(keep):
        return np.isin(a["site"], [i for i, n in enumerate(site_names) if keep(n)])

    def pick(names):
        return sites_where(lambda n: n in names)

    def calls(names):
        return int(pick(names).sum())

    def total(names, column="dur"):
        return float(a[column][pick(names)].sum())

    def prefix_total(prefix):
        return float(a["dur"][sites_where(lambda n: n.startswith(prefix))].sum())

    m = {}
    m["model.ops_calls"] = (calls(OPS), "count", OPS)
    m["model.ops_us"] = (_ratio(total(OPS, "self"), calls(OPS), 1e6), "us", OPS)
    m["model.generator_calls"] = (calls(GENERATORS), "count", GENERATORS)
    m["model.generator_us"] = (
        _ratio(total(GENERATORS, "self"), calls(GENERATORS), 1e6), "us", GENERATORS)

    k = pick(KERNELS)
    kernel_calls, traj_steps = int(k.sum()), float(a["work"][k].sum())
    kernel_self = float(a["self"][k].sum())
    m["trajectory.kernel_calls"] = (kernel_calls, "count", KERNELS)
    m["trajectory.kernel_traj_steps"] = (traj_steps, "count", KERNELS)
    m["trajectory.kernel_self_s"] = (kernel_self, "s", KERNELS)
    m["trajectory.kernel_self_us"] = (_ratio(kernel_self, kernel_calls, 1e6), "us", KERNELS)
    m["trajectory.kernel_ns_per_traj_step"] = (_ratio(kernel_self, traj_steps, 1e9), "ns", KERNELS)
    m["trajectory.kernel_flops_per_traj_step"] = (
        kernel_flops_per_traj_step(dim, kind), "flop", KERNELS)
    m["trajectory.simulate_self_s"] = (total(SIMULATE, "self"), "s", SIMULATE)
    m["trajectory.filter_self_s"] = (total(FILTER, "self"), "s", FILTER)
    m["trajectory.innovations_s"] = (total(INNOVATIONS), "s", INNOVATIONS)

    c = pick((COUNT_KERNEL,))
    branch = c & (a["aux"] > 0)
    pushed = float(a["work"][branch].sum())
    jumped = float(a["aux"][c].sum())
    m["trajectory.jump_steps"] = (int(branch.sum()), "count", (COUNT_KERNEL,))
    m["trajectory.jump_branch_traj_steps"] = (pushed, "count", (COUNT_KERNEL,))
    m["trajectory.jumped_traj_steps"] = (jumped, "count", (COUNT_KERNEL,))
    m["trajectory.jump_branch_useful_frac"] = (_ratio(jumped, pushed), "ratio", (COUNT_KERNEL,))

    m["ensemble.noise_s"] = (total(NOISE), "s", NOISE)
    m["linalg.trace_distance_s"] = (total(TRACE_DISTANCE), "s", TRACE_DISTANCE)

    mst = pick(MASTER)
    master_s, master_steps = float(a["dur"][mst].sum()), float(a["work"][mst].sum())
    m["master.integrate_s"] = (master_s, "s", MASTER)
    m["master.rk4_us_per_step"] = (_ratio(master_s, master_steps, 1e6), "us", MASTER)

    w = pick(WRITES)
    write_s, lines = float(a["dur"][w].sum()), float(a["aux"][w].sum())
    m["io.write_s"] = (write_s, "s", WRITES)
    m["io.read_s"] = (total(READS), "s", READS)
    m["io.bytes_written"] = (float(a["work"][w].sum()), "bytes", WRITES)
    m["io.lines_written"] = (lines, "count", WRITES)
    m["io.us_per_row"] = (_ratio(write_s, lines, 1e6), "us", WRITES)

    p = pick(PARTICLE_STEP)
    steps, step_s, resamples = int(p.sum()), float(a["dur"][p].sum()), float(a["aux"][p].sum())
    m["classical.particle_steps"] = (steps, "count", PARTICLE_STEP)
    m["classical.particle_step_s"] = (step_s, "s", PARTICLE_STEP)
    m["classical.particle_step_us"] = (_ratio(step_s, steps, 1e6), "us", PARTICLE_STEP)
    m["classical.resample_calls"] = (resamples, "count", PARTICLE_STEP)
    m["classical.resample_frac"] = (_ratio(resamples, steps), "ratio", PARTICLE_STEP)
    m["classical.posterior_calls"] = (calls(POSTERIOR), "count", POSTERIOR)
    m["classical.posterior_s"] = (total(POSTERIOR), "s", POSTERIOR)
    m["classical.posterior_us"] = (
        _ratio(total(POSTERIOR), calls(POSTERIOR), 1e6), "us", POSTERIOR)

    # qprob and ito functions are only called from verify, never from each other.
    m["verify.qprob_s"] = (prefix_total("qprob."), "s", ("qprob.",))
    m["verify.ito_s"] = (prefix_total("ito."), "s", ("ito.",))
    m["config.parse_ms"] = (_ratio(total(CONFIG), calls(CONFIG), 1e3), "ms", CONFIG)

    for lay in LAYERS:
        in_layer = sites_where(lambda n: layer_of(n) == lay)
        m[f"{lay}.self_s"] = (float(a["self"][in_layer].sum()), "s", layer_sources(lay))
    m["trace.spans"] = (len(a["site"]), "count", ())
    return m


def layer_sources(layer: str) -> tuple:
    modules = [layer] + [m for m, lay in LAYER_OF_MODULE.items() if lay == layer]
    return tuple(f"{module}." for module in modules)


def matches(sources, names) -> bool:
    """Whether any span name in `names` is one of `sources`.

    A metric with no sources is always measured, so it always matches.
    """
    return not sources or any(
        n == s or (s.endswith(".") and n.startswith(s)) for s in sources for n in names
    )
