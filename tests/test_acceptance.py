"""Acceptance suite: one test per criterion, with its stated tolerance.

Each test prints a single PASS line (visible with -s or in verbose logs)
after its assertions, tagged with the wall-clock time it took.
"""

import json
import math
import time

import dyadic_oracle
import numpy as np
import pytest

from homspace import (Field, NormSpec, build_cubes, build_nets,
                      KernelSpec, Pipeline, equivalence_experiment,
                      generate_ensemble, generate_space, hl_maximal,
                      lipschitz_norm, reconstruct, validate_ati,
                      verify_cubes)
from homspace.cli import main as cli_main
from homspace.lab import (EnsembleSpec, fefferman_stein_constants,
                          theta_power_check)
from homspace.norms import besov_norm, triebel_lizorkin_norm
from homspace.operators import mu_dot
from homspace.space import default_radius_grid, geometry_report

DELTA = 0.5


def _announce(num, label, t0, **stats):
    extra = " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in stats.items())
    print(f"ACCEPTANCE {num} PASS ({label}) [{time.time() - t0:.1f}s] {extra}")


ACCEPTANCE_SPACES = [
    ("grid1d-257", dict(kind="grid1d", size=257), (0, 9)),
    ("grid1d-513", dict(kind="grid1d", size=513), (0, 10)),
    ("grid2d-33", dict(kind="grid2d", size=33), (0, 6)),
    ("circle-256", dict(kind="circle", size=256), (1, 9)),
    ("sierpinski-5", dict(kind="sierpinski_level", level=5), (0, 6)),
    ("snowflake-2", dict(kind="snowflake_power", size=257, exponent=2.0),
     (0, 12)),
]


@pytest.fixture(scope="module")
def cube_systems():
    # built here so criterion 1 can charge construction+verification time to
    # each space individually
    out = {}
    for label, params, k_range in ACCEPTANCE_SPACES:
        t0 = time.time()
        sp = generate_space(**params)
        nets = build_nets(sp, DELTA, k_range)
        cubes = build_cubes(nets, sp)
        ver = verify_cubes(cubes)
        out[label] = (sp, cubes, ver, time.time() - t0)
    return out


@pytest.fixture(scope="module")
def pipe257():
    return Pipeline(generate_space("grid1d", size=257))


@pytest.fixture(scope="module")
def pipe513():
    return Pipeline(generate_space("grid1d", size=513))


@pytest.fixture(scope="module")
def norm_rig():
    sp = generate_space("grid1d", size=129)
    pipe = Pipeline(sp)
    ens = generate_ensemble(pipe.stack, EnsembleSpec(mean_zero=True))
    return sp, pipe, ens


def test_criterion_1_dyadic_axioms(cube_systems):
    t0 = time.time()
    for label, (sp, cubes, ver, build_seconds) in cube_systems.items():
        assert ver.partition_pass, f"{label}: partition fails: {ver.failures[:2]}"
        assert ver.nesting_pass, f"{label}: nesting fails: {ver.failures[:2]}"
        assert ver.center_pass, f"{label}: center membership fails"
        assert build_seconds < 10.0, f"{label}: over the 10 s budget"
    _announce(1, "dyadic axioms on five spaces", t0)


def test_criterion_2_ball_sandwich(cube_systems):
    t0 = time.time()
    bounds = {}
    for label, (sp, cubes, ver, _) in cube_systems.items():
        lo, hi = dyadic_oracle.interior_bounds(ver)
        assert lo >= 0.1, f"{label}: interior inradius ratio {lo:.3f} < 0.1"
        assert hi <= 8.0, f"{label}: interior outradius ratio {hi:.3f} > 8"
        bounds[label] = (lo, hi)
    lo_a, hi_a = bounds["grid1d-257"]
    lo_b, hi_b = bounds["grid1d-513"]
    assert max(lo_a / lo_b, lo_b / lo_a) <= 2.0
    assert max(hi_a / hi_b, hi_b / hi_a) <= 2.0
    _announce(2, "ball sandwich + resolution drift", t0,
              r_in_257=lo_a, r_out_257=hi_a, r_in_513=lo_b, r_out_513=hi_b)


def test_criterion_3_exp_ati_validation(pipe257):
    t0 = time.time()
    rep = validate_ati(pipe257.stack)
    assert rep.cancel_resid <= 1e-10
    assert math.isfinite(rep.size_const) and rep.size_const > 0
    assert rep.eta_fit >= 0.3
    assert rep.identity_resid <= 1e-3

    sp = pipe257.space
    pipe_i = Pipeline(sp, kernel=KernelSpec(flavor="inhomogeneous"))
    rep_i = validate_ati(pipe_i.stack)
    assert rep_i.unit_resid is not None and rep_i.unit_resid <= 1e-12
    assert rep_i.cancel_resid <= 1e-10
    assert rep_i.identity_resid <= 1e-3
    _announce(3, "exp-ATI / exp-IATI validation", t0,
              eta=rep.eta_fit, size_const=rep.size_const,
              identity=rep.identity_resid)


def test_criterion_4_maximal_operator():
    t0 = time.time()
    sp = generate_space("grid1d", size=129)
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(1000):
        f = rng.standard_normal(sp.n)
        mf = hl_maximal(Field(sp, f)).values
        if not np.all(mf >= np.abs(f) - 1e-13):
            violations += 1
        c = float(rng.uniform(0.5, 3.0))
        mcf = hl_maximal(Field(sp, -c * f)).values
        if not np.allclose(mcf, c * mf, rtol=1e-12, atol=1e-15):
            violations += 1
    # sublinearity on paired fields
    for _ in range(200):
        f = rng.standard_normal(sp.n)
        g = rng.standard_normal(sp.n)
        mf = hl_maximal(Field(sp, f)).values
        mg = hl_maximal(Field(sp, g)).values
        mfg = hl_maximal(Field(sp, f + g)).values
        if not np.all(mfg <= mf + mg + 1e-12):
            violations += 1
    const = hl_maximal(Field(sp, np.full(sp.n, -1.5))).values
    if not np.allclose(const, 1.5, atol=1e-14):
        violations += 1
    assert violations == 0

    big = generate_space("grid1d", size=1025)
    x = np.linspace(0, 1, big.n)
    m_end = hl_maximal(Field(big, (x <= 0.5).astype(float))).values[-1]
    assert abs(m_end - 0.5) <= 2.0 / big.n
    _announce(4, "maximal operator exact properties", t0,
              endpoint=float(m_end))


def test_criterion_5_frame_reconstruction(pipe257):
    t0 = time.time()
    st = pipe257.stack
    sp = pipe257.space
    rng = np.random.default_rng(3)
    worst_iters = 0
    for j in (st.k_min + 3, st.k_min + 4, st.k_min + 5):
        f = Field(sp, st.apply(j, rng.standard_normal(sp.n)))
        rf, rep = reconstruct(st, f, tol=1e-6, maxiter=200)
        assert rep.converged and rep.relative_residual <= 1e-6
        worst_iters = max(worst_iters, rep.iterations)

    f = Field(sp, st.apply(st.k_min + 3, rng.standard_normal(sp.n)))
    g = Field(sp, st.apply(st.k_min + 5, rng.standard_normal(sp.n)))
    combo = Field(sp, 1.5 * f.values + 2.5 * g.values)
    rf, _ = reconstruct(st, f, tol=1e-8, maxiter=400)
    rg, _ = reconstruct(st, g, tol=1e-8, maxiter=400)
    rc, _ = reconstruct(st, combo, tol=1e-8, maxiter=400)
    lhs = rc.values
    rhs = 1.5 * rf.values + 2.5 * rg.values
    rel = (math.sqrt(mu_dot(sp, lhs - rhs, lhs - rhs))
           / math.sqrt(mu_dot(sp, lhs, lhs)))
    assert rel <= 1e-5
    _announce(5, "frame reconstruction", t0, iterations=worst_iters,
              linearity=rel)


def test_criterion_6_exact_norm_identities(norm_rig):
    t0 = time.time()
    sp, pipe, ens = norm_rig
    slack = 1 + 1e-12
    for p in (1.5, 2.0):
        spec = NormSpec(s=0.4, p=p, q=p)
        for f in ens:
            b = besov_norm(f, spec, pipe.stack)
            t = triebel_lizorkin_norm(f, spec, pipe.stack)
            if b > 0:
                assert abs(b - t) / b <= 1e-12
            lb = lipschitz_norm(f, spec, "Lb_dot")
            lt = lipschitz_norm(f, NormSpec(s=0.4, p=p, q=p, u=1.0), "Lt_dot")
            if lb > 0:
                assert abs(lb - lt) / lb <= 1e-12

    viol = 0
    for f in ens:
        for variant in ("Ldot", "Lb_dot", "Lt_dot"):
            prev = None
            for q in (1.0, 2.0, 4.0, math.inf):
                v = lipschitz_norm(f, NormSpec(s=0.5, p=2.0, q=q), variant)
                if prev is not None and v > prev * slack:
                    viol += 1
                prev = v
        for p in (1.5, 2.0):
            spec = NormSpec(s=0.5, p=p, q=2.0)
            if lipschitz_norm(f, spec, "Lb_dot") > \
                    lipschitz_norm(f, spec, "Ldot") * slack:
                viol += 1
    assert viol == 0
    _announce(6, "exact norm identities over 50-field ensemble", t0)


def test_criterion_7_oracle_equivalence():
    t0 = time.time()
    sp = generate_space("grid1d", size=65)
    pipe = Pipeline(sp)
    st = pipe.stack
    f = Field(sp, sp.dist[0] ** 0.7)
    s, p, q = 0.5, 2.0, 2.0
    spec = NormSpec(s=s, p=p, q=q)

    acc = 0.0
    for k in st.levels():
        total = 0.0
        for x in range(sp.n):
            qf = 0.0
            for y in range(sp.n):
                qf += st.q[k][x, y] * f.values[y] * sp.weight[y]
            total += abs(qf) ** p * sp.weight[x]
        acc += st.delta ** (-k * s * q) * total ** (q / p)
    oracle_b = acc ** (1 / q)
    got_b = besov_norm(f, spec, st)
    assert abs(got_b - oracle_b) / oracle_b <= 1e-12

    # Triebel-Lizorkin oracle: pointwise aggregate first
    per_x = np.zeros(sp.n)
    for k in st.levels():
        qf = np.zeros(sp.n)
        for x in range(sp.n):
            for y in range(sp.n):
                qf[x] += st.q[k][x, y] * f.values[y] * sp.weight[y]
        per_x += st.delta ** (-k * s * q) * np.abs(qf) ** q
    oracle_t = float(np.sum(per_x ** (p / q) * sp.weight) ** (1 / p))
    got_t = triebel_lizorkin_norm(f, spec, st)
    assert abs(got_t - oracle_t) / oracle_t <= 1e-12

    # Lipschitz oracle: triple loop over (k, x, y) with the same far tail
    from homspace.difference import natural_k_window
    k0, k1 = natural_k_window(sp, spec.c_tilde, spec.delta)
    acc = 0.0
    for k in range(k0 - 60, k1 + 1):
        r = spec.c_tilde * spec.delta ** k
        outer = 0.0
        for x in range(sp.n):
            num = den = 0.0
            for y in range(sp.n):
                if sp.dist[x, y] < r:
                    num += abs(f.values[x] - f.values[y]) ** p * sp.weight[y]
                    den += sp.weight[y]
            outer += (num / den) * sp.weight[x]
        acc += spec.delta ** (-k * s * q) * outer ** (q / p)
    oracle_l = acc ** (1 / q)
    got_l = lipschitz_norm(f, spec, "Ldot")
    assert abs(got_l - oracle_l) / oracle_l <= 1e-12
    _announce(7, "independent re-summation oracles", t0,
              besov=got_b, triebel=got_t, lipschitz=got_l)


def _theorem_band(space, pipe, spec, pairing, mean_zero):
    geom = geometry_report(space, default_radius_grid(space))
    rep = validate_ati(pipe.stack)
    ens = generate_ensemble(pipe.stack,
                            EnsembleSpec(mean_zero=mean_zero))
    return equivalence_experiment(pipe.stack, spec,
                                  pairing, ens, omega=geom.omega,
                                  eta=rep.eta_fit, geometry=geom)


def band_drift(report_a, report_b):
    """Multiplicative drift of the geometric-mean ratio between two runs."""
    a, b = report_a.geometric_mean, report_b.geometric_mean
    return max(a / b, b / a)


def test_criterion_8_theorem_equivalence(pipe257, pipe513):
    t0 = time.time()
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    sp257, sp513 = pipe257.space, pipe513.space

    runs = {}
    for pairing in ("B_vs_L", "F_vs_Lt"):
        a = _theorem_band(sp257, pipe257, spec, pairing, mean_zero=True)
        b = _theorem_band(sp513, pipe513, spec, pairing, mean_zero=True)
        assert a.ratio_max / a.ratio_min <= 100.0, pairing
        assert b.ratio_max / b.ratio_min <= 100.0, pairing
        assert band_drift(a, b) <= 2.0, pairing
        runs[pairing] = (a, b)

    spec_i = NormSpec(s=0.5, p=2.0, q=2.0, flavor="inhomogeneous")
    pipe_i257 = Pipeline(sp257, kernel=KernelSpec(flavor="inhomogeneous"))
    pipe_i513 = Pipeline(sp513, kernel=KernelSpec(flavor="inhomogeneous"))
    for pairing in ("inhomog_B_vs_L", "inhomog_F_vs_Lt"):
        a = _theorem_band(sp257, pipe_i257, spec_i, pairing, mean_zero=False)
        b = _theorem_band(sp513, pipe_i513, spec_i, pairing, mean_zero=False)
        assert a.ratio_max / a.ratio_min <= 100.0, pairing
        assert band_drift(a, b) <= 2.0, pairing
        runs[pairing] = (a, b)

    stats = {p: f"{r[0].geometric_mean:.3g}->{r[1].geometric_mean:.3g}"
             for p, r in runs.items()}
    _announce(8, "theorem-level equivalence bands + drift", t0, **stats)


def test_criterion_9_lemma_suite(pipe257, pipe513):
    t0 = time.time()
    assert theta_power_check(seed=0) == 0

    sp513 = pipe513.space
    from homspace.kernels import r_gamma_integral_band
    radii = default_radius_grid(sp513)
    band = r_gamma_integral_band(sp513, 2.0, radii)
    vals = list(band.values())
    assert max(vals) / min(vals) <= 4.0

    drifts = {}
    pairs = ((1.5, 2.0), (2.0, 2.0), (4.0, 4.0))
    cs1 = fefferman_stein_constants(pipe257.space, pairs, seed=0)
    cs2 = fefferman_stein_constants(sp513, pairs, seed=0)
    for (p, q) in pairs:
        c1, c2 = cs1[p, q], cs2[p, q]
        drift = max(c1 / c2, c2 / c1)
        assert drift <= 2.0, (p, q, c1, c2)
        drifts[f"p{p}q{q}"] = drift
    _announce(9, "lemma suite", t0, **drifts)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    cfg = {
        "space": {"kind": "grid1d", "size": 33},
        "lab": {"pairing": "B_vs_L"},
        "output": {"dir": str(tmp_path / "out")},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["--config", str(path), "lab", "equivalence"]) == 0
    first_txt = (tmp_path / "out" / "equivalence.txt").read_bytes()
    first_csv = (tmp_path / "out" / "equivalence.csv").read_bytes()
    t1 = time.time()
    assert cli_main(["--config", str(path), "lab", "equivalence"]) == 0
    rerun = time.time() - t1
    assert (tmp_path / "out" / "equivalence.txt").read_bytes() == first_txt
    assert (tmp_path / "out" / "equivalence.csv").read_bytes() == first_csv

    # library-level determinism of a full suite rerun
    sp = generate_space("grid1d", size=33)
    pipe = Pipeline(sp)
    from homspace import lemma_suite
    a = lemma_suite(pipe.cubes, pipe.stack.levels(), omega=1.0,
                    seed=0).to_text()
    b = lemma_suite(pipe.cubes, pipe.stack.levels(), omega=1.0,
                    seed=0).to_text()
    assert a == b
    _announce(10, "byte-identical reruns", t0, rerun_seconds=rerun)
