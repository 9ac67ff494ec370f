"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Every criterion prints `[PASS]`/`[FAIL] criterion-N ...` (also echoed in the
terminal summary) and asserts, so the suite fails loudly on any regression.
All randomness is seeded; tolerances are frozen here.
"""

import numpy as np
from scipy import stats

from conftest import (
    EXCITED,
    bias_ensemble_records,
    decay_model,
    martingale_test,
    random_beta,
    random_model,
    record_acceptance,
    riccati_steady_state,
)
from qfilter.classical import (
    kalman_bucy_step,
    linear_model,
    particle_step,
    simulate_pair,
)
from qfilter.ensemble import run_ensemble
from qfilter.ito import girsanov_coefficients, verify_generator, zakai_expansion
from qfilter.linalg import (
    dagger,
    max_norm,
    random_density,
    random_hermitian,
    trace_distance,
)
from qfilter.master import TimeGrid, hermitian, integrate_master
from qfilter.model import (
    CoherentInput,
    HPModel,
    heisenberg_generator,
    lindblad_heisenberg,
    modulated_coupling,
    modulated_hamiltonian,
)
from qfilter.trajectory import (
    COUNTING,
    MeasurementRecord,
    QUADRATURE,
    filter_record,
    propagate,
    simulate_record,
    zakai_filter,
)
from qfilter.verify import qprob_suite
from reference import count_step_arrays, quad_step_arrays

HALF_MIXED = 0.5 * np.eye(2, dtype=complex)


def propagate_step(model, b, rho, kind, dy, dt):
    """The state after one `propagate` step from rho at constant beta = b on increment dy."""
    grid = TimeGrid(dt=dt, steps=1)
    steps = propagate(model, CoherentInput.constant(b), rho, kind, grid, increments=np.array([dy]))
    x, _, _ = next(steps)
    return hermitian(x)


def check(name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    record_acceptance(line)
    print(line)
    assert passed, line


def test_criterion_1_algebraic_identity_suite():
    rng = np.random.default_rng(100)
    res_a = res_b = res_c = res_d = 0.0
    dt = 1e-3
    for _ in range(100):
        dim = int(rng.choice([2, 3, 4]))
        model = random_model(rng, dim)
        b = random_beta(rng)
        x = random_hermitian(rng, dim)
        rho = random_density(rng, dim)
        lb = modulated_coupling(model, b)
        hb = modulated_hamiltonian(model, b)

        # (a) Evans-Hudson sum equals the Lindblad form with the corrected H.
        res_a = max(
            res_a,
            max_norm(heisenberg_generator(model, b, x) - lindblad_heisenberg(lb, hb, x)),
        )

        # (b) coherent expectation of the Langevin increment is the generator.
        res_b = max(res_b, verify_generator(model, b, x))

        # (c) quadrature Zakai gain/drift from the Ito table vs closed forms.
        tl, tk = girsanov_coefficients(model, b, "quadrature")
        gain, drift = zakai_expansion(model, b, x, "quadrature")
        res_c = max(res_c, max_norm(gain - (x @ tl + dagger(tl) @ x)))
        res_c = max(res_c, max_norm(drift - (dagger(tl) @ x @ tl + x @ tk + dagger(tk) @ x)))

        # (d) normalized-filter gains extracted from the step primitives by
        # finite differences in dY match the closed Kushner-Stratonovich forms.
        m = np.trace(lb @ rho + rho @ dagger(lb)).real
        plus, _ = quad_step_arrays(rho, 0.5, lb, hb, dt)
        minus, _ = quad_step_arrays(rho, -0.5, lb, hb, dt)
        fd_gain = np.trace((plus - minus) @ x).real  # divided by dy spread = 1
        ks_gain = np.trace(rho @ (x @ lb + dagger(lb) @ x)).real - m * np.trace(rho @ x).real
        res_d = max(res_d, abs(fd_gain - ks_gain))
        plus = propagate_step(model, b, rho, QUADRATURE, 0.5, dt)
        minus = propagate_step(model, b, rho, QUADRATURE, -0.5, dt)
        res_d = max(res_d, abs(np.trace((plus - minus) @ x).real - ks_gain))

        # Counting at dt = 0, which TimeGrid rejects: the reference step only.
        jumped, rate = count_step_arrays(rho, 1.0, lb, hb, 0.0)
        stayed, _ = count_step_arrays(rho, 0.0, lb, hb, 0.0)
        fd_cgain = np.trace((jumped - stayed) @ x).real
        ks_cgain = (np.trace(lb @ rho @ dagger(lb) @ x).real / rate) - np.trace(rho @ x).real
        res_d = max(res_d, abs(fd_cgain - ks_cgain))

    passed = res_a <= 1e-10 and res_b <= 1e-10 and res_c <= 1e-10 and res_d <= 1e-8
    check(
        "criterion-1 algebraic identities",
        passed,
        f"residuals a={res_a:.2e} b={res_b:.2e} c={res_c:.2e} d={res_d:.2e}",
    )


def test_criterion_2_qprob_lemma_suite():
    results = qprob_suite(seed=0, dims=(2, 4, 8), instances=100)
    worst = max(r.residual for r in results)
    check(
        "criterion-2 conditional-expectation lemmas",
        all(r.passed for r in results) and worst <= 1e-9,
        f"worst residual {worst:.2e} over {len(results)} checks",
    )


def test_criterion_3_kallianpur_striebel_consistency():
    model = decay_model()
    beta = CoherentInput.constant(0.5)
    grid = TimeGrid(dt=1e-3, steps=10_000)
    worst = 0.0
    for kind in (QUADRATURE, COUNTING):
        record, _, _ = simulate_record(model, beta, EXCITED, kind, grid, seed=101)
        direct, _ = filter_record(model, beta, EXCITED, record)
        unnorm, _ = zakai_filter(model, beta, EXCITED, record)
        for a, b in zip(direct, unnorm):
            worst = max(worst, trace_distance(a, b))
    check(
        "criterion-3 Kallianpur-Striebel consistency",
        worst <= 1e-6,
        f"max trace distance {worst:.2e} over 2x10^4 steps",
    )


def test_criterion_4_coherent_record_statistics():
    trivial = HPModel(S=np.eye(2, dtype=complex), L=np.zeros((2, 2)), H=np.zeros((2, 2)))
    n, dt, steps = 2000, 1e-3, 1000
    grid = TimeGrid(dt=dt, steps=steps)
    rho0 = np.broadcast_to(HALF_MIXED, (n, 2, 2))
    rng = np.random.default_rng(102)

    # Quadrature: slope beta + beta*, increment variance dt.
    b = 0.3 + 0.2j
    noise = rng.standard_normal((steps, n)) * np.sqrt(dt)
    total = np.zeros(n)
    sum_sq = 0.0
    for _, dy, m in propagate(
        trivial, CoherentInput.constant(b), rho0, QUADRATURE, grid, noise=noise
    ):
        total += dy
        sum_sq += float(np.sum((dy - m * dt) ** 2))
    slope = total / (steps * dt)
    c = 2 * b.real
    slope_err = abs(slope.mean() - c)
    slope_se = slope.std(ddof=1) / np.sqrt(n)
    n_inc = n * steps
    var = sum_sq / (n_inc - 1)
    var_err = abs(var - dt)
    var_se = var * np.sqrt(2.0 / (n_inc - 1))
    quad_ok = slope_err <= 5 * slope_se and var_err <= 5 * var_se

    # Counting: total counts Poisson with mean integral |beta|^2.
    def counting_pvalue(beta_input, seed):
        lam_steps = np.array([abs(beta_input.value(k * dt)) ** 2 for k in range(steps)])
        noise = np.random.default_rng(seed).random((steps, n))
        counts = np.zeros(n)
        for _, dy, _ in propagate(trivial, beta_input, rho0, COUNTING, grid, noise=noise):
            counts += dy
        lam = float(lam_steps.sum() * dt)
        kmax = int(counts.max())
        probs = stats.poisson.pmf(np.arange(kmax + 1), lam)
        observed = np.bincount(counts.astype(int), minlength=kmax + 1).astype(float)
        expected = probs * n
        expected[-1] += n * (1.0 - probs.sum())  # fold the upper tail in
        # Merge bins until every expected count is >= 5.
        obs_b, exp_b = [], []
        o_acc = e_acc = 0.0
        for o, e in zip(observed, expected):
            o_acc += o
            e_acc += e
            if e_acc >= 5:
                obs_b.append(o_acc)
                exp_b.append(e_acc)
                o_acc = e_acc = 0.0
        obs_b[-1] += o_acc
        exp_b[-1] += e_acc
        return stats.chisquare(obs_b, exp_b).pvalue

    p_const = counting_pvalue(CoherentInput.constant(2.0), 103)
    p_sin = counting_pvalue(CoherentInput.sinusoid(amplitude=0.5, frequency=2 * np.pi, offset=1.5), 104)
    count_ok = p_const > 1e-3 and p_sin > 1e-3

    check(
        "criterion-4 coherent record statistics",
        quad_ok and count_ok,
        f"slope err {slope_err:.2e} (5se {5*slope_se:.2e}), var err {var_err:.2e} "
        f"(5se {5*var_se:.2e}), Poisson p const={p_const:.3f} sin={p_sin:.3f}",
    )


def test_criterion_5_ensemble_average_matches_master():
    model = decay_model(1.0)
    beta = CoherentInput.constant(0.5)  # |beta|^2 = gamma / 4
    grid = TimeGrid(dt=1e-3, steps=5000)
    sups = {}
    for kind in (QUADRATURE, COUNTING):
        columns = run_ensemble(model, beta, EXCITED, kind, grid, n_traj=1000, master_seed=105)
        sups[kind] = float(np.max(columns["trace_distance_to_master"]))
    check(
        "criterion-5 unconditional average = master equation",
        all(v <= 0.05 for v in sups.values()),
        f"sup trace distance quadrature={sups[QUADRATURE]:.3f} counting={sups[COUNTING]:.3f}",
    )


def test_criterion_6_vacuum_reduction():
    rng = np.random.default_rng(106)
    worst = 0.0
    dt = 1e-3
    for _ in range(50):
        dim = int(rng.choice([2, 3]))
        model = random_model(rng, dim)
        lb = modulated_coupling(model, 0j)
        hb = modulated_hamiltonian(model, 0j)
        rho = random_density(rng, dim)
        l, h = model.L, model.H
        ld = dagger(l)

        # Hand-coded vacuum homodyne step.
        dy = rng.standard_normal() * np.sqrt(dt)
        dissip = -1j * (h @ rho - rho @ h) + l @ rho @ ld - 0.5 * (ld @ l @ rho + rho @ ld @ l)
        m = np.trace(l @ rho + rho @ ld).real
        raw = rho + dissip * dt + (l @ rho + rho @ ld - m * rho) * (dy - m * dt)
        raw = 0.5 * (raw + dagger(raw))
        by_hand = raw / np.trace(raw).real
        stepped, _ = quad_step_arrays(rho, dy, lb, hb, dt)
        worst = max(worst, max_norm(stepped - by_hand))
        stepped = propagate_step(model, 0j, rho, QUADRATURE, dy, dt)
        worst = max(worst, max_norm(stepped - by_hand))

        # Hand-coded vacuum jump step, detection and no-detection branches.
        def no_jump(state):
            drift = -1j * (h @ state - state @ h) + l @ state @ ld - 0.5 * (
                ld @ l @ state + state @ ld @ l
            )
            rate = np.trace(l @ state @ ld).real
            return state + (drift - l @ state @ ld + rate * state) * dt

        jumped = l @ rho @ ld
        jumped = no_jump(jumped / np.trace(jumped).real)
        jumped = 0.5 * (jumped + dagger(jumped))
        jumped /= np.trace(jumped).real
        got, _ = count_step_arrays(rho, 1.0, lb, hb, dt)
        worst = max(worst, max_norm(got - jumped))
        got = propagate_step(model, 0j, rho, COUNTING, 1.0, dt)
        worst = max(worst, max_norm(got - jumped))

        survived = no_jump(rho)
        survived = 0.5 * (survived + dagger(survived))
        survived /= np.trace(survived).real
        got, _ = count_step_arrays(rho, 0.0, lb, hb, dt)
        worst = max(worst, max_norm(got - survived))
        got = propagate_step(model, 0j, rho, COUNTING, 0.0, dt)
        worst = max(worst, max_norm(got - survived))

    check(
        "criterion-6 vacuum reduction",
        worst <= 1e-12,
        f"max per-step deviation {worst:.2e} from hand-coded vacuum SME steps",
    )


def test_criterion_7_innovations_martingale(monkeypatch):
    model = decay_model(1.0)
    beta = CoherentInput.constant(0.5)
    grid = TimeGrid(dt=1e-3, steps=2000)
    zs = {}
    unbiased_ok = True
    for kind in (QUADRATURE, COUNTING):
        columns = run_ensemble(model, beta, EXCITED, kind, grid, n_traj=2000, master_seed=107)
        ok, z = martingale_test(columns, 2000, z_max=4.0)
        zs[kind] = float(np.max(np.abs(z)))
        unbiased_ok = unbiased_ok and ok

    bias_ensemble_records(monkeypatch, 0.1)
    biased = run_ensemble(model, beta, EXCITED, QUADRATURE, grid, n_traj=2000, master_seed=107)
    bias_passed, z_b = martingale_test(biased, 2000, z_max=4.0)
    check(
        "criterion-7 innovations martingale",
        unbiased_ok and not bias_passed,
        f"max |z| quadrature={zs[QUADRATURE]:.2f} counting={zs[COUNTING]:.2f} (<= 4); "
        f"biased control flagged with |z|={np.max(np.abs(z_b)):.1f}",
    )


def test_criterion_8_purity_and_convergence():
    # Purity defect of the quadrature unraveling on qubit decay, T = 5, using
    # moment-matched two-point driving increments (+-sqrt(dt)), under which
    # the Euler purity defect is first order in dt.
    model = decay_model(1.0)

    def mean_path_defect(dt, n_traj=512, seed=777):
        grid = TimeGrid(dt=dt, steps=int(round(5.0 / dt)))
        signs = np.random.default_rng(seed).integers(0, 2, size=(grid.steps, n_traj)) * 2.0 - 1.0
        rho0 = np.broadcast_to(EXCITED, (n_traj, 2, 2))
        acc = np.zeros(n_traj)
        for x, _, _ in propagate(
            model, CoherentInput.constant(0.0), rho0, QUADRATURE, grid, noise=signs * np.sqrt(dt)
        ):
            rho = hermitian(x)
            acc += np.abs(1.0 - np.einsum("nij,nji->n", rho, rho).real)
        return float((acc / grid.steps).mean())

    d_coarse = mean_path_defect(2e-3)
    d_fine = mean_path_defect(1e-3)
    ratio = d_coarse / d_fine
    purity_ok = d_coarse <= 1.0 * 2e-3 and d_fine <= 1.0 * 1e-3 and 1.5 <= ratio <= 2.6

    # RK4 master-equation convergence order on dt halving.
    beta = CoherentInput.constant(0.5)

    def final_state(dt):
        grid = TimeGrid(dt=dt, steps=int(round(5.0 / dt)))
        return integrate_master(model, beta, EXCITED, grid)[-1]

    ref = final_state(0.003125)
    e_coarse = trace_distance(final_state(0.1), ref)
    e_fine = trace_distance(final_state(0.05), ref)
    rk4_ratio = e_coarse / e_fine
    rk4_ok = 8.0 <= rk4_ratio <= 32.0

    check(
        "criterion-8 purity and convergence",
        purity_ok and rk4_ok,
        f"purity defect {d_coarse:.2e}@2e-3 / {d_fine:.2e}@1e-3 (ratio {ratio:.2f}), "
        f"RK4 error ratio {rk4_ratio:.1f}",
    )


def test_criterion_9_classical_suite():
    a, c, sigma = -1.0, 1.0, 1.0
    model = linear_model(a=a, sigma=sigma, c=c)
    grid = TimeGrid(dt=1e-3, steps=2000)

    # Particle filter vs Kalman-Bucy posterior mean at 10^4 particles.
    xs, dys = simulate_pair(model, 0.0, grid, seed=108)
    rng = np.random.default_rng(109)
    positions, log_w = rng.standard_normal(10_000), np.zeros(10_000)
    mean, p = 0.0, 1.0
    diffs = []
    for k in range(grid.steps):
        positions, log_w, w = particle_step(positions, log_w, dys[k], model, grid.dt, rng)
        mean, p = kalman_bucy_step(mean, p, dys[k], a, c, sigma, grid.dt)
        diffs.append(float(np.sum(w * positions)) - mean)
    rmse = float(np.sqrt(np.mean(np.array(diffs) ** 2)))
    p_inf = riccati_steady_state(a, c, sigma)
    rmse_bound = 3.0 * np.sqrt(p_inf / 10_000)

    # Riccati steady state from long-time covariance integration.
    m2, p2 = 0.0, 1.0
    for _ in range(20_000):
        m2, p2 = kalman_bucy_step(m2, p2, 0.0, a, c, sigma, 1e-3)
    riccati_err = abs(p2 - p_inf)

    # Classical innovations martingale over an ensemble of Kalman filters.
    n = 2000
    gen = np.random.default_rng(110)
    x = np.zeros(n)
    mean = np.zeros(n)
    p = 1.0
    innov = np.zeros(n)
    z_worst = 0.0
    for k in range(grid.steps):
        dy = c * x * grid.dt + gen.standard_normal(n) * np.sqrt(grid.dt)
        innov += dy - c * mean * grid.dt
        mean, p = kalman_bucy_step(mean, p, dy, a, c, sigma, grid.dt)
        x = x + a * x * grid.dt + sigma * gen.standard_normal(n) * np.sqrt(grid.dt)
        if (k + 1) % (grid.steps // 50) == 0:
            z_worst = max(z_worst, abs(innov.mean()) / (innov.std(ddof=1) / np.sqrt(n)))

    passed = rmse <= rmse_bound and riccati_err <= 1e-6 and z_worst <= 4.0
    check(
        "criterion-9 classical filtering suite",
        passed,
        f"pf-vs-Kalman rmse {rmse:.2e} (bound {rmse_bound:.2e}), "
        f"Riccati err {riccati_err:.1e}, innovations max |z| {z_worst:.2f}",
    )


def test_criterion_10_no_jump_conditioning_oracle():
    gamma = 1.0
    model = decay_model(gamma)
    dt = 1e-4
    grid = TimeGrid(dt=dt, steps=int(round(3.0 / dt)))
    record = MeasurementRecord(kind=COUNTING, grid=grid, increments=np.zeros(grid.steps))
    states, _ = filter_record(model, CoherentInput.constant(0.0), HALF_MIXED, record)
    pe = states[:, 0, 0].real
    t = grid.times()
    p0 = 0.5
    exact = p0 * np.exp(-gamma * t) / (p0 * np.exp(-gamma * t) + 1.0 - p0)
    err = float(np.max(np.abs(pe - exact)))
    check(
        "criterion-10 no-jump conditioning oracle",
        err <= 1e-4,
        f"max excited-population error {err:.2e} vs analytic conditioning",
    )
