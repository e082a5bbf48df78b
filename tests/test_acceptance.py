"""Acceptance checks for the whole pipeline, one criterion per test.

Each test prints a single line

    ACCEPTANCE <n>: PASS/FAIL — <measured numbers vs threshold>

directly to the terminal (bypassing capture) and then asserts the same
condition, so a full run leaves an auditable pass/fail ledger of every
end-to-end requirement.

Selection runs are cached module-wide: the convergence-quality and
performance criteria (7 and 9) re-read the traces and wall times of the
runs made for criteria 1-5 instead of repeating them.

Criteria 5 and 6 are implemented faithfully at their stated
tolerances and are expected to fail; the Known limitations section of
the README carries the quantitative analyses (the truncation edge,
where the interior-curvature AMISE oracle does not hold, for the radial
study; smoothing bias plus noise over-subtraction for the roughness
fidelity study).
"""

import time
from dataclasses import dataclass

import numpy as np
from numpy.testing import assert_allclose
from scipy.integrate import quad

from kdeband.estimator import (
    Grid,
    Sample,
    build_grid,
    estimate_density,
    laplacian,
)
from kdeband.kernels import (
    eval_kernel,
    kernel_constants,
    radial_profile,
)
from kdeband.reference import (
    analytic_optimal_bandwidth,
    gaussian_1d,
    gaussian_3d,
    hernquist_radial_pdf,
    trimodal_1d,
    tsc_density_1d,
)
from kdeband.roughness import corrected_roughness
from kdeband.reference import (
    HernquistParams,
    sample_gaussian_1d,
    sample_gaussian_3d,
    sample_hernquist_radii,
    sample_trimodal,
    sample_tsc_density,
)
from kdeband.selector import (
    amise,
    optimal_bandwidth,
    select_bandwidth,
)

HQ_PARAMS = HernquistParams()  # rc=1, truncation window (0.05, 1000)

_DENSITIES = {
    "gauss1d": gaussian_1d(),
    "tscdens1d": tsc_density_1d(),
    "trimodal": trimodal_1d(),
    "gauss3d": gaussian_3d(),
    "hernquist": hernquist_radial_pdf(rc=1.0, r_window=(0.05, 1000.0)),
}

_SAMPLERS = {
    "gauss1d": lambda Np, seed: sample_gaussian_1d(Np, seed),
    "tscdens1d": lambda Np, seed: sample_tsc_density(Np, seed),
    "trimodal": lambda Np, seed: sample_trimodal(Np, seed),
    "gauss3d": lambda Np, seed: sample_gaussian_3d(Np, seed),
    "hernquist": lambda Np, seed: sample_hernquist_radii(Np, HQ_PARAMS, seed),
}

# (study, kernel token, Np, seeds) for every selection run used by the
# accuracy criteria; criteria 7 and 9 iterate the same lists.
RUNS_C1 = [("gauss1d", "tsc", Np, (1, 2, 3, 4, 5)) for Np in (10_000, 100_000, 1_000_000)]
RUNS_C2 = [("tscdens1d", "tsc", 100_000, (1, 2, 3, 4, 5))]
RUNS_C3 = [("trimodal", "tsc", 100_000, (1, 2, 3, 4, 5))]
RUNS_C4_TSC = [("gauss3d", "tsc3", 100_000, (1, 2, 3))]
RUNS_C4_NGP = [("gauss3d", "ngp3", 1_000, (1, 2, 3, 4, 5))]
RUNS_C5 = [("hernquist", "tsc", 1_050_000, (1,))]

ALL_RUN_GROUPS = RUNS_C1 + RUNS_C2 + RUNS_C3 + RUNS_C4_TSC + RUNS_C4_NGP + RUNS_C5


@dataclass
class _Run:
    study: str
    kernel_token: str
    Np: int
    seed: int
    sample: object
    kernel: object
    trace: object
    analytic_h: float
    wall_s: float

    @property
    def relative_error(self) -> float:
        return (self.trace.final_h - self.analytic_h) / self.analytic_h


_CACHE: dict = {}


def _dim(study: str) -> int:
    return 3 if study == "gauss3d" else 1


def _get_run(study: str, kernel_token: str, Np: int, seed: int) -> _Run:
    key = (study, kernel_token, Np, seed)
    if key in _CACHE:
        return _CACHE[key]
    dim = _dim(study)
    sample = _SAMPLERS[study](Np, seed)
    if dim == 1:
        kernel = kernel_constants(kernel_token, 1)
        t0 = time.perf_counter()
        trace = select_bandwidth(sample, kernel)
    else:
        kernel = kernel_constants(kernel_token, 3)
        t0 = time.perf_counter()
        trace = select_bandwidth(sample, kernel)
    wall = time.perf_counter() - t0
    analytic_h = analytic_optimal_bandwidth(_DENSITIES[study], kernel, Np, dim)
    run = _Run(study, kernel_token, Np, seed, sample, kernel, trace, analytic_h, wall)
    _CACHE[key] = run
    return run


def _mean_abs_err(study, kernel_token, Np, seeds):
    return float(
        np.mean([abs(_get_run(study, kernel_token, Np, s).relative_error) for s in seeds])
    )


def _announce(capsys, line):
    with capsys.disabled():
        print(flush=True)
        print(line, flush=True)


# ---------------------------------------------------------------------------
# 1. gaussian decades
# ---------------------------------------------------------------------------


def test_acceptance_01_gaussian_decades(capsys):
    """Fully data-driven selection on standard normal samples recovers the
    closed-form optimal bandwidth to 5 percent mean error at Np = 1e4,
    1e5, and 1e6 (five seeds each), inside a one-minute budget."""
    t0 = time.perf_counter()
    means = {Np: _mean_abs_err(st, k, Np, seeds) for st, k, Np, seeds in RUNS_C1}
    elapsed = time.perf_counter() - t0
    ok = all(m <= 0.05 for m in means.values()) and elapsed <= 60.0
    detail = ", ".join(f"Np={Np:g}: {m * 100:.2f}%" for Np, m in means.items())
    line = (
        f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} — gaussian/tsc mean |rel err| "
        f"{detail} (each <= 5%); elapsed {elapsed:.1f}s <= 60s"
    )
    _announce(capsys, line)
    assert ok, line


# ---------------------------------------------------------------------------
# 2. compact-support density
# ---------------------------------------------------------------------------


def test_acceptance_02_tsc_shaped_density(capsys):
    """Selection on samples from the compact TSC-shaped pdf stays within
    5 percent mean error at Np = 1e5, inside 20 seconds."""
    t0 = time.perf_counter()
    (study, token, Np, seeds), = RUNS_C2
    mean_err = _mean_abs_err(study, token, Np, seeds)
    elapsed = time.perf_counter() - t0
    ok = mean_err <= 0.05 and elapsed <= 20.0
    line = (
        f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} — tsc-shaped pdf mean |rel err| "
        f"{mean_err * 100:.2f}% <= 5%; elapsed {elapsed:.1f}s <= 20s"
    )
    _announce(capsys, line)
    assert ok, line


# ---------------------------------------------------------------------------
# 3. multiscale mixture
# ---------------------------------------------------------------------------


def test_acceptance_03_trimodal_mixture(capsys):
    """Selection on the three-scale normal mixture stays within 8 percent
    mean error at Np = 1e5, inside 30 seconds."""
    t0 = time.perf_counter()
    (study, token, Np, seeds), = RUNS_C3
    mean_err = _mean_abs_err(study, token, Np, seeds)
    elapsed = time.perf_counter() - t0
    ok = mean_err <= 0.08 and elapsed <= 30.0
    line = (
        f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} — trimodal mean |rel err| "
        f"{mean_err * 100:.2f}% <= 8%; elapsed {elapsed:.1f}s <= 30s"
    )
    _announce(capsys, line)
    assert ok, line


# ---------------------------------------------------------------------------
# 4. 3D gaussian, two kernel orders
# ---------------------------------------------------------------------------


def test_acceptance_04_gaussian_3d(capsys):
    """In 3D the TSC3 kernel at Np = 1e5 recovers the optimum within
    5 percent mean error, while the zeroth-order NGP3 kernel at Np = 1e3
    lands in the expected degraded band of 8 to 30 percent; both within a
    two-minute budget."""
    t0 = time.perf_counter()
    (study, token, Np, seeds), = RUNS_C4_TSC
    tsc3_err = _mean_abs_err(study, token, Np, seeds)
    (study, token, Np, seeds), = RUNS_C4_NGP
    ngp3_err = _mean_abs_err(study, token, Np, seeds)
    elapsed = time.perf_counter() - t0
    ok = tsc3_err <= 0.05 and 0.08 <= ngp3_err <= 0.30 and elapsed <= 120.0
    line = (
        f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} — gauss3d tsc3@1e5 mean |rel err| "
        f"{tsc3_err * 100:.2f}% <= 5%; ngp3@1e3 {ngp3_err * 100:.2f}% in [8%, 30%]; "
        f"elapsed {elapsed:.1f}s <= 120s"
    )
    _announce(capsys, line)
    assert ok, line


# ---------------------------------------------------------------------------
# 5. truncated radial profile (expected to fail)
# ---------------------------------------------------------------------------


def test_acceptance_05_truncated_sphere(capsys):
    """Selection on 1.05e6 radii of the truncated sphere should land within
    5 percent of the truncated law's closed-form optimum.

    The oracle is the interior-curvature AMISE value: the closed-form
    optimum fed with the integral of p''^2 inside the truncation window
    only.  The pdf jumps from 0 to about 0.087 at the inner edge, where
    that expansion does not hold.

    Expected to fail: the truncation edge makes the plug-in roughness
    blow up as the bandwidth shrinks, so the iteration settles far below
    the oracle.  Quadrature of the law's exact MISE puts its minimum
    lower still, near h = 0.023.  See the Known limitations section of
    the README for the quantitative analysis.
    """
    t0 = time.perf_counter()
    (study, token, Np, seeds), = RUNS_C5
    run = _get_run(study, token, Np, seeds[0])
    elapsed = time.perf_counter() - t0
    rel = run.relative_error
    ok = abs(rel) <= 0.05 and elapsed <= 60.0
    line = (
        f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} — truncated sphere selected h "
        f"{run.trace.final_h:.6g} vs analytic {run.analytic_h:.6g}: rel err "
        f"{rel * 100:+.1f}% (|err| <= 5% required); elapsed {elapsed:.1f}s <= 60s"
    )
    _announce(capsys, line)
    assert ok, line


# ---------------------------------------------------------------------------
# 6. roughness fidelity at the optimal bandwidth (expected to fail)
# ---------------------------------------------------------------------------


def test_acceptance_06_roughness_fidelity(capsys):
    """At the gaussian optimum h*(Np=1e4), the seed-averaged corrected
    roughness should match the true curvature roughness within 10 percent
    and beat the uncorrected value.

    Expected to fail: lattice smoothing biases the measured curvature
    down by about 11 percent at this bandwidth and the noise term
    over-subtracts, so the corrected mean undershoots by more than the
    allowance while the raw mean happens to sit closer.  See the Known
    limitations section of the README for the quantitative analysis.
    """
    t0 = time.perf_counter()
    h_star = 0.3340452250230561  # closed-form optimum, gaussian/tsc, Np=1e4
    kernel = kernel_constants("tsc", 1)
    truth = gaussian_1d().roughness()
    raws, correcteds = [], []
    for seed in range(1, 51):
        res = corrected_roughness(sample_gaussian_1d(10_000, seed), kernel, h_star)
        raws.append(res.raw)
        correcteds.append(res.corrected)
    elapsed = time.perf_counter() - t0
    gap_corr = (np.mean(correcteds) - truth) / truth
    gap_raw = (np.mean(raws) - truth) / truth
    ok = abs(gap_corr) <= 0.10 and abs(gap_corr) < abs(gap_raw) and elapsed <= 60.0
    line = (
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} — corrected roughness mean gap "
        f"{gap_corr * 100:+.1f}% (|gap| <= 10% required), raw gap {gap_raw * 100:+.1f}% "
        f"(corrected must be closer); elapsed {elapsed:.1f}s <= 60s"
    )
    _announce(capsys, line)
    assert ok, line


# ---------------------------------------------------------------------------
# 7. convergence quality of every selection run
# ---------------------------------------------------------------------------


def test_acceptance_07_convergence_quality(capsys):
    """Every converged selection run from criteria 1-5 needed at most 20
    plug-in updates, and its final bandwidth is a genuine fixed point:
    re-measuring the corrected roughness at final_h and re-applying the
    closed-form update moves h by at most 0.1 percent.

    A converged selection returns the bandwidth of its last roughness
    measurement, so the re-measurement reproduces the last step and the
    residual is that step's relative change.  This matters most for the
    nearest-node kernel at Np = 1e3, whose measured roughness is a step
    function of the bandwidth: the plug-in image of the last measurement,
    where nothing was measured, can sit a few tenths of a percent off
    the fixed point.
    """
    worst_iters = 0
    worst_resid = 0.0
    n_checked = 0
    for study, token, Np, seeds in ALL_RUN_GROUPS:
        for seed in seeds:
            run = _get_run(study, token, Np, seed)
            if not run.trace.converged:
                continue
            n_checked += 1
            iters = sum(1 for r in run.trace.iterations if not r.backoff_applied)
            worst_iters = max(worst_iters, iters)
            h = run.trace.final_h
            if _dim(study) == 1:
                rough = corrected_roughness(run.sample, run.kernel, h).corrected
                h_next = optimal_bandwidth(rough, run.kernel, Np)
            else:
                rough = corrected_roughness(run.sample, run.kernel, h).corrected
                h_next = optimal_bandwidth(rough, run.kernel, Np)
            worst_resid = max(worst_resid, abs(h_next - h) / h)
    ok = n_checked > 0 and worst_iters <= 20 and worst_resid <= 1e-3
    line = (
        f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} — {n_checked} converged runs: "
        f"max updates {worst_iters} <= 20, max fixed-point residual "
        f"{worst_resid:.2e} <= 1e-3"
    )
    _announce(capsys, line)
    assert ok, line


# ---------------------------------------------------------------------------
# 8. cross-cutting numerical spot checks
# ---------------------------------------------------------------------------


def test_acceptance_08_numerical_spot_checks(capsys):
    """A compact re-run of the load-bearing numerics: tabulated kernel
    constants against quadrature, exactness of the curvature stencils on
    quadratics, the windowed 3D evaluator against brute force, scale
    equivariance of selection, the AMISE optimum, sampler goodness of
    fit, and bit-identical repeatability; all inside two minutes."""
    t0 = time.perf_counter()
    checks: list[tuple[str, bool]] = []

    # tabulated kernel constants vs direct quadrature
    const_err = 0.0
    for fam in ("ngp", "cic", "tsc"):
        kern = kernel_constants(fam, 1)
        r_num, _ = quad(
            lambda u: eval_kernel(kern, u) ** 2, -1.5, 1.5, points=[-1.0, -0.5, 0.5, 1.0]
        )
        m_num, _ = quad(
            lambda u: u * u * eval_kernel(kern, u), -1.5, 1.5,
            points=[-1.0, -0.5, 0.5, 1.0],
        )
        const_err = max(const_err, abs(r_num - kern.roughness_RK), abs(m_num - kern.second_moment_mu2))
    for fam in ("ngp3", "cic3", "tsc3"):
        kern = kernel_constants(fam, 3)
        r_num, _ = quad(
            lambda r: 4.0 * np.pi * r * r * radial_profile(kern, r) ** 2,
            0.0, 1.5, points=[0.5, 1.0],
        )
        m_num, _ = quad(
            lambda r: (4.0 * np.pi / 3.0) * r ** 4 * radial_profile(kern, r),
            0.0, 1.5, points=[0.5, 1.0],
        )
        const_err = max(const_err, abs(r_num - kern.roughness_RK), abs(m_num - kern.second_moment_mu2))
    checks.append((f"kernel constants vs quadrature {const_err:.1e}<=1e-8", const_err <= 1e-8))

    # curvature stencils are exact on quadratics
    xs = 0.5 * (np.arange(9) - 4.0)
    g1 = Grid(origin=float(xs[0]), spacing=0.5, values=xs ** 2)
    d2 = laplacian(g1).values
    stencil_err = float(np.max(np.abs(d2 - 2.0)))
    coords = [0.25 * np.arange(7) for _ in range(3)]
    xg, yg, zg = np.meshgrid(*coords, indexing="ij")
    g3 = Grid(origin=np.zeros(3), spacing=0.25, values=xg ** 2 + yg ** 2 + zg ** 2)
    lap = laplacian(g3).values
    stencil_err = max(stencil_err, float(np.max(np.abs(lap - 6.0))))
    checks.append((f"quadratic stencils {stencil_err:.1e}<=1e-10", stencil_err <= 1e-10))

    # windowed 3D evaluation vs brute-force sum over all pairs
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((200, 3))
    sample3 = Sample(pts)
    kern3 = kernel_constants("tsc3", 3)
    targets = rng.standard_normal((40, 3))
    h3 = 0.8
    fast = estimate_density(sample3, kern3, h3, targets)
    diff = (targets[:, None, :] - pts[None, :, :]) / h3
    brute = np.array(
        [np.sum(radial_profile(kern3, np.linalg.norm(d, axis=1))) for d in diff]
    ) / (200 * h3 ** 3)
    brute_err = float(np.max(np.abs(fast - brute) / np.maximum(brute, 1e-300)))
    checks.append((f"3d window vs brute force {brute_err:.1e}<=1e-12", brute_err <= 1e-12))

    # selection is scale equivariant
    vals = sample_gaussian_1d(5000, seed=21).points
    kern = kernel_constants("tsc", 1)
    h_a = select_bandwidth(Sample(vals), kern).final_h
    h_b = select_bandwidth(Sample(10.0 * vals), kern).final_h
    scale_err = abs(h_b - 10.0 * h_a) / (10.0 * h_a)
    checks.append((f"scale equivariance {scale_err:.1e}<=1e-6", scale_err <= 1e-6))

    # AMISE is minimized at the closed-form optimum
    h_opt = optimal_bandwidth(1.7, kern, 50_000)
    grid = np.geomspace(h_opt / 4.0, 4.0 * h_opt, 101)
    vals_amise = [amise(hh, kern, 1.7, 50_000) for hh in grid]
    amise_ok = int(np.argmin(vals_amise)) == int(np.argmin(np.abs(grid - h_opt)))
    checks.append(("amise argmin at closed form", amise_ok))

    # sampler goodness of fit (probability integral transform, 50 bins)
    from scipy import stats

    crit = stats.chi2.ppf(0.999, 49)
    u_gauss = stats.norm.cdf(sample_gaussian_1d(100_000, seed=31).points)
    counts, _ = np.histogram(u_gauss, bins=50, range=(0.0, 1.0))
    chi2_gauss = float(np.sum((counts - 2000.0) ** 2) / 2000.0)
    r = sample_hernquist_radii(100_000, HQ_PARAMS, seed=32).points
    q = (r / (r + 1.0)) ** 2
    q_lo, q_hi = (0.05 / 1.05) ** 2, (1000.0 / 1001.0) ** 2
    counts, _ = np.histogram((q - q_lo) / (q_hi - q_lo), bins=50, range=(0.0, 1.0))
    chi2_hq = float(np.sum((counts - 2000.0) ** 2) / 2000.0)
    checks.append(
        (f"sampler GOF chi2 {chi2_gauss:.1f},{chi2_hq:.1f}<={crit:.1f}",
         chi2_gauss <= crit and chi2_hq <= crit)
    )

    # bit-identical repeatability of a full selection
    s = sample_gaussian_1d(20_000, seed=41)
    t_one = select_bandwidth(s, kern)
    t_two = select_bandwidth(s, kern)
    checks.append(
        ("bit-identical rerun", t_one.final_h == t_two.final_h and t_one.iterations == t_two.iterations)
    )

    elapsed = time.perf_counter() - t0
    ok = all(flag for _, flag in checks) and elapsed <= 120.0
    detail = "; ".join(name for name, flag in checks if not flag) or "all checks"
    line = (
        f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} — {detail} "
        f"({len(checks)} spot checks); elapsed {elapsed:.1f}s <= 120s"
    )
    _announce(capsys, line)
    assert ok, line + " failing: " + "; ".join(name for name, flag in checks if not flag)


# ---------------------------------------------------------------------------
# 9. single-run performance
# ---------------------------------------------------------------------------


def test_acceptance_09_performance(capsys):
    """Each cached 1e6-point 1D selection ran in at most 10 seconds and
    each 1e5-point 3D selection in at most 60 seconds."""
    t1d = [
        _get_run("gauss1d", "tsc", 1_000_000, seed).wall_s for seed in (1, 2, 3, 4, 5)
    ]
    t3d = [_get_run("gauss3d", "tsc3", 100_000, seed).wall_s for seed in (1, 2, 3)]
    ok = max(t1d) <= 10.0 and max(t3d) <= 60.0
    line = (
        f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} — slowest 1D@1e6 run "
        f"{max(t1d):.2f}s <= 10s; slowest 3D@1e5 run {max(t3d):.2f}s <= 60s"
    )
    _announce(capsys, line)
    assert ok, line
