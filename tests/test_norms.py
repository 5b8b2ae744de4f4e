import math

import numpy as np
import pytest

from homspace import (DyadicSpec, Field, FlavorMismatchError, KernelSpec,
                      LevelTable, NormSpec, ParameterError, Pipeline,
                      admissible_range, analyze, besov_norm, frame_operator,
                      generate_space, lebesgue_norm, triebel_lizorkin_norm)
from homspace import test_function_norm as tf_norm
from homspace.lab import EnsembleSpec, generate_ensemble
from homspace.dyadic import refine_subcubes
from homspace import norms

import norms_oracle as oracle
from dyadic_oracle import members

INF = math.inf


def holder_field(space, theta=0.7, center=0):
    return Field(space, space.dist[center] ** theta)


def test_lebesgue_basics(grid65, rng):
    one = Field(grid65, np.ones(grid65.n))
    for p in (0.5, 1.0, 2.0, 4.0, INF):
        assert lebesgue_norm(one, p) == pytest.approx(1.0, rel=1e-14)
    f = Field(grid65, rng.standard_normal(grid65.n))
    for p in (0.5, 2.0, INF):
        assert lebesgue_norm(Field(grid65, -3 * f.values), p) == \
            pytest.approx(3 * lebesgue_norm(f, p), rel=1e-13)


def test_lebesgue_matches_accumulation_oracle(grid65, rng):
    f = Field(grid65, rng.standard_normal(grid65.n))
    acc = 0.0
    for x in range(grid65.n):
        acc += abs(f.values[x]) ** 2 * grid65.weight[x]
    assert lebesgue_norm(f, 2.0) == pytest.approx(math.sqrt(acc), rel=1e-14)


def test_besov_zero_and_homogeneity(pipe65):
    sp = pipe65.space
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    zero = Field(sp, np.zeros(sp.n))
    assert besov_norm(zero, spec, pipe65.stack) == 0.0
    f = holder_field(sp)
    v1 = besov_norm(f, spec, pipe65.stack)
    v2 = besov_norm(Field(sp, 2 * f.values), spec, pipe65.stack)
    assert v2 == pytest.approx(2 * v1, rel=1e-13)
    const = Field(sp, np.full(sp.n, 5.0))
    assert besov_norm(const, spec, pipe65.stack) <= 1e-10


def test_besov_q_monotonicity(pipe65):
    f = holder_field(pipe65.space)
    vals = [besov_norm(f, NormSpec(s=0.5, p=2.0, q=q), pipe65.stack)
            for q in (1.0, 2.0, 4.0, INF)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a * (1 + 1e-12)


def test_besov_matches_double_loop_oracle(pipe65):
    st = pipe65.stack
    sp = st.space
    f = holder_field(sp)
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    acc = 0.0
    for k in st.levels():
        total = 0.0
        for x in range(sp.n):
            qf = 0.0
            for y in range(sp.n):
                qf += st.q[k][x, y] * f.values[y] * sp.weight[y]
            total += abs(qf) ** 2 * sp.weight[x]
        acc += st.delta ** (-k * spec.s * spec.q) * total ** (spec.q / spec.p)
    assert besov_norm(f, spec, st) == pytest.approx(acc ** 0.5, rel=1e-12)


def test_f_equals_b_at_p_eq_q(pipe65, ensemble65):
    for q in (1.5, 2.0, 3.0):
        spec = NormSpec(s=0.4, p=q, q=q)
        for f in ensemble65[:6]:
            b = besov_norm(f, spec, pipe65.stack)
            t = triebel_lizorkin_norm(f, spec, pipe65.stack)
            assert t == pytest.approx(b, rel=1e-12)


def test_flavor_mismatch(pipe65):
    f = holder_field(pipe65.space)
    spec = NormSpec(s=0.5, p=2.0, q=2.0, flavor="inhomogeneous")
    with pytest.raises(FlavorMismatchError):
        besov_norm(f, spec, pipe65.stack)


def test_spec_delta_must_be_the_stacks(pipe65):
    """Besov and Triebel-Lizorkin weigh the stack's levels by the spec's
    delta, so a spec at another delta is refused."""
    f = holder_field(pipe65.space)
    spec = NormSpec(s=0.5, p=2.0, q=2.0, delta=0.25)
    for norm in (besov_norm, triebel_lizorkin_norm):
        with pytest.raises(ParameterError, match="delta"):
            norm(f, spec, pipe65.stack)


def test_inhomogeneous_besov_block(pipe65_inhom):
    st, cubes = pipe65_inhom.stack, pipe65_inhom.cubes
    sp = st.space
    spec = NormSpec(s=0.5, p=2.0, q=2.0, flavor="inhomogeneous")
    const = Field(sp, np.full(sp.n, 2.0))
    # constant field: Q_0 reproduces it, finer levels vanish; the norm is
    # the coarse block of the cell averages of |Q_k f|
    val = besov_norm(const, spec, st)
    w_total = sp.total_mass
    expected = 0.0
    for k in range(0, st.n_low + 1):
        g = np.abs(st.apply(k, const.values))
        expected += float(np.sum(sp.weight * g ** 2))  # averages = g (fine cells)
    # direct evaluation via the definition instead of the shortcut above
    direct = _inhom_besov_oracle(const, spec, st, cubes)
    assert val == pytest.approx(direct, rel=1e-12)
    assert val == pytest.approx(2.0, rel=1e-6)


def _inhom_besov_oracle(f, spec, st, cubes):
    sp = st.space
    n_low = st.n_low
    coarse = 0.0
    for k in range(0, n_low + 1):
        g = np.abs(st.apply(k, f.values))
        _, _, _, wgt, sub_assign = cubes.sample_arrays(k)
        for i in range(len(wgt)):
            mem = np.nonzero(sub_assign == i)[0]
            avg = float((g[mem] * sp.weight[mem]).sum()
                        / sp.weight[mem].sum())
            coarse += wgt[i] * avg ** spec.p
    coarse = coarse ** (1.0 / spec.p)
    fine = 0.0
    for k in st.levels():
        if k <= n_low:
            continue
        g = st.apply(k, f.values)
        lp = float(np.sum(np.abs(g) ** spec.p * sp.weight) ** (1 / spec.p))
        fine += st.delta ** (-k * spec.s * spec.q) * lp ** spec.q
    return coarse + fine ** (1.0 / spec.q)


def test_inhomogeneous_besov_matches_oracle(pipe65_inhom, rng):
    st, cubes = pipe65_inhom.stack, pipe65_inhom.cubes
    f = Field(st.space, rng.standard_normal(st.space.n))
    spec = NormSpec(s=0.3, p=2.0, q=1.5, flavor="inhomogeneous")
    assert besov_norm(f, spec, st) == pytest.approx(
        _inhom_besov_oracle(f, spec, st, cubes), rel=1e-12)


def test_tl_infty_sup_attained_on_ancestor(pipe65):
    st, cubes = pipe65.stack, pipe65.cubes
    sp = st.space
    # field supported in one fine cube
    lv = cubes.levels[st.k_max]
    cube_id = len(lv.centers) // 2
    v = np.zeros(sp.n)
    v[members(lv)[cube_id]] = 1.0
    v -= float(v @ sp.weight) / sp.total_mass
    f = Field(sp, v)
    spec = NormSpec(s=0.3, p=INF, q=2.0)
    val = triebel_lizorkin_norm(f, spec, st)

    # exhaustive oracle over (l, alpha)
    best = 0.0
    arg = None
    contrib = {k: np.abs(st.apply(k, f.values)) for k in st.levels()}
    for l in sorted(set(cubes.levels) & set(st.levels())):
        acc = np.zeros(sp.n)
        for k in st.levels():
            if k >= l:
                acc += (st.delta ** (-k * spec.s) * contrib[k]) ** spec.q
        for a, mem in enumerate(members(cubes.levels[l])):
            avg = float((acc[mem] * sp.weight[mem]).sum()
                        / sp.weight[mem].sum()) ** (1 / spec.q)
            if avg > best:
                best, arg = avg, (l, a)
    assert val == pytest.approx(best, rel=1e-12)
    # the argmax cube contains the support's center
    l, a = arg
    assert lv.centers[cube_id] in members(cubes.levels[l])[a]


def test_tl_q_infty_modification(pipe65, ensemble65):
    spec = NormSpec(s=0.4, p=2.0, q=INF)
    f = ensemble65[0]
    st = pipe65.stack
    # oracle: sup_k weighted |Q_k f| pointwise, then L^p
    agg = np.zeros(st.space.n)
    for k in st.levels():
        agg = np.maximum(agg, st.delta ** (-k * spec.s)
                         * np.abs(st.apply(k, f.values)))
    want = lebesgue_norm(Field(st.space, agg), 2.0)
    assert triebel_lizorkin_norm(f, spec, st) == pytest.approx(want, rel=1e-13)


def test_besov_p_infty(pipe65, ensemble65):
    spec = NormSpec(s=0.4, p=INF, q=2.0)
    f = ensemble65[1]
    st = pipe65.stack
    acc = 0.0
    for k in st.levels():
        acc += (st.delta ** (-k * spec.s)
                * float(np.max(np.abs(st.apply(k, f.values))))) ** 2
    assert besov_norm(f, spec, st) == pytest.approx(acc ** 0.5, rel=1e-13)


# -- test-function norm ---------------------------------------------------------

def test_test_function_norm_zero(grid65):
    z = Field(grid65, np.zeros(grid65.n))
    assert tf_norm(z, 0, 0.25, 0.5, 1.0) == 0.0


def test_test_function_norm_self_bound(grid65):
    x1, r, beta, gamma = 10, 0.25, 0.5, 1.0
    vr = float(grid65.ball_measure(r)[x1])
    vx = grid65.v_table()[x1]
    rhs = (r / (r + grid65.dist[x1])) ** gamma / (vr + vx)
    f = Field(grid65, rhs)
    assert tf_norm(f, x1, r, beta, gamma) >= 1.0 - 1e-12


@pytest.mark.parametrize("bad", [
    dict(x1=-1), dict(x1=33), dict(x1=1.5), dict(x1=True), dict(x1="0"),
    dict(r="0.2"), dict(r=0.0), dict(r=math.inf), dict(beta="0.6"),
    dict(beta=1.5), dict(gamma="1.2"), dict(gamma=math.nan),
    dict(gamma=math.inf)])
def test_test_function_norm_checks_its_arguments(bad):
    """x1 is a point of the field's space, and r, beta and gamma are real
    numbers in their ranges; anything else is a ParameterError, not a
    reading of another point, an IndexError, a TypeError or a NaN."""
    sp = generate_space("grid1d", size=33)
    f = Field(sp, np.exp(-(sp.dist[16] / 0.2) ** 2))
    args = dict(x1=16, r=0.2, beta=0.6, gamma=1.2) | bad
    with pytest.raises(ParameterError, match=f"^{next(iter(bad))} must"):
        tf_norm(f, **args)
    assert tf_norm(f, 16.0, 0.2, 0.6, 1.2) == tf_norm(f, 16, 0.2, 0.6, 1.2)


def test_test_function_norm_matches_bruteforce():
    sp = generate_space("grid1d", size=33)
    x1, r, beta, gamma = 16, 0.2, 0.6, 1.2
    f = Field(sp, np.exp(-(sp.dist[x1] / r) ** 2))
    got = tf_norm(f, x1, r, beta, gamma)
    vr = float(sp.ball_measure(r)[x1])
    vx = sp.v_table()[x1]
    best = 0.0
    for x in range(sp.n):
        size_rhs = (r / (r + sp.dist[x1, x])) ** gamma / (vr + vx[x])
        best = max(best, abs(f.values[x]) / size_rhs)
        for y in range(sp.n):
            if x == y:
                continue
            if sp.dist[x, y] <= (r + sp.dist[x1, x]) / (2 * sp.a0):
                reg_rhs = (sp.dist[x, y] / (r + sp.dist[x1, x])) ** beta \
                    * size_rhs
                best = max(best, abs(f.values[x] - f.values[y]) / reg_rhs)
    assert got == pytest.approx(best, rel=1e-12)


# -- admissibility ---------------------------------------------------------------

def test_admissible_standard_window():
    spec = NormSpec(s=0.5, p=2.0, q=2.0, beta=0.9, gamma=0.9)
    rep = admissible_range(spec, omega=1.0, eta=0.95)
    assert not any(rep.violations.values())
    assert rep.p_threshold == pytest.approx(1.0 / 1.9)


def test_admissible_boundary_p_rejected():
    bg = 0.9
    p_star = 1.0 / (1.0 + bg)
    spec = NormSpec(s=0.5, p=p_star, q=2.0, beta=bg, gamma=bg)
    rep = admissible_range(spec, omega=1.0, eta=0.95)
    assert rep.violations["besov"]


def test_admissible_s_exceeds_smoothness():
    spec = NormSpec(s=0.8, p=2.0, q=2.0, beta=0.5, gamma=0.9)
    rep = admissible_range(spec, omega=1.0, eta=0.95)
    assert rep.violations["common"]
    assert any("beta^gamma" in v or "s=" in v
               for v in rep.violations["common"])


def test_norm_spec_validation():
    with pytest.raises(ParameterError):
        NormSpec(s=0.5, p=0.0, q=2.0)
    with pytest.raises(ParameterError):
        NormSpec(s=0.5, p=2.0, q=2.0, u=INF)
    with pytest.raises(ParameterError):
        NormSpec(s=0.5, p=2.0, q=2.0, flavor="mixed")


# -- sampler independence --------------------------------------------------------

def test_sampled_norm_sampler_band(pipe65, ensemble65):
    from homspace.dyadic import build_cubes
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    base = build_cubes(pipe65.cubes.nets, pipe65.space)
    variants = [refine_subcubes(base, 2, sampler="center"),
                refine_subcubes(base, 2, sampler="lowest_index"),
                refine_subcubes(base, 2, sampler="seeded_random", seed=11)]
    for f in ensemble65[:5]:
        vals = [oracle.sampled_besov_norm(f, spec, pipe65.stack, c)
                for c in variants]
        assert max(vals) / min(vals) <= 2.0


def test_truncation_risk_small_with_default_levels(pipe65):
    f = holder_field(pipe65.space)
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    assert oracle.truncation_risk(f, spec, pipe65.stack) <= 0.05


def test_truncation_risk_flags_narrow_range(grid65):
    pipe = Pipeline(grid65, DyadicSpec(k_min=2, k_max=4))
    f = holder_field(grid65)
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    assert oracle.truncation_risk(f, spec, pipe.stack) > 0.3


def test_inhomogeneous_tl_p_infty(pipe65_inhom, ensemble65):
    spec = NormSpec(s=0.4, p=INF, q=2.0, flavor="inhomogeneous")
    st, cubes = pipe65_inhom.stack, pipe65_inhom.cubes
    f = Field(st.space, ensemble65[2].values)
    val = triebel_lizorkin_norm(f, spec, st)
    assert math.isfinite(val) and val > 0
    # coarse block alone is a lower bound by the max structure
    sp = st.space
    coarse = 0.0
    for k in range(0, st.n_low + 1):
        g = np.abs(st.apply(k, f.values))
        sub_assign = cubes.sample_arrays(k).sub_assign
        for i in range(sub_assign.max() + 1):
            mem = np.nonzero(sub_assign == i)[0]
            coarse = max(coarse, float((g[mem] * sp.weight[mem]).sum()
                                       / sp.weight[mem].sum()))
    assert val >= coarse - 1e-13


def test_two_stack_stability_probe(grid65, ensemble65):
    # independence of the kernel family, empirically: two surrogate stacks
    # with different decay exponents give comparable norms (band measured
    # [0.81, 0.93] on this rig; frozen with slack)
    pa = Pipeline(grid65, kernel=KernelSpec(a=1.0))
    pb = Pipeline(grid65, kernel=KernelSpec(a=0.7))
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    for f in ensemble65[:8]:
        na = besov_norm(f, spec, pa.stack)
        nb = besov_norm(f, spec, pb.stack)
        if min(na, nb) > 1e-13:
            assert 0.25 <= na / nb <= 4.0


def test_norms_match_frozen_oracle(grid257):
    # one table per field serves every (p, q) and both scales; all values
    # == the per-site code, the p = inf Carleson sup within 1e-12 (its cube
    # averages are summed in another order)
    counts = {"bandlimited": 2, "holder": 2, "smoothed_indicator": 1,
              "gaussian_field": 1}
    for sp in (grid257, generate_space("circle", size=256)):
        for flavor in ("homogeneous", "inhomogeneous"):
            pipe = Pipeline(sp, kernel=KernelSpec(flavor=flavor))
            st, cubes = pipe.stack, pipe.cubes
            fields = generate_ensemble(st, EnsembleSpec(
                counts=counts, seed=3, mean_zero=flavor == "homogeneous"))
            for f in fields:
                table = LevelTable(f, st)
                for p in (1.5, 2.0, INF):
                    for q in (1.0, 2.0, INF):
                        spec = NormSpec(s=0.4, p=p, q=q, flavor=flavor)
                        key = (sp.label, flavor, p, q)
                        want = oracle.besov_norm(f, spec, st, cubes)
                        assert besov_norm(f, spec, st) == want, key
                        assert besov_norm(table, spec, st) == want, key
                        want = oracle.triebel_lizorkin_norm(f, spec, st, cubes)
                        for g in (f, table):
                            got = triebel_lizorkin_norm(g, spec, st)
                            if p == INF:
                                assert got == pytest.approx(want, rel=1e-12,
                                                            abs=0.0), key
                            else:
                                assert got == want, key
                grid, want = analyze(st, f), oracle.analyze(st, cubes, f)
                for k, lc in want.levels.items():
                    got = grid.levels[k]
                    assert np.array_equal(got.value, lc.value)
                    assert (got.average is None) == (lc.average is None)
                    if lc.average is not None:
                        assert np.array_equal(got.average, lc.average)
                assert np.array_equal(frame_operator(st, f).values,
                                      oracle.frame_operator(st, cubes, f).values)


def test_norms_reject_foreign_table(pipe65):
    f = holder_field(pipe65.space)
    table = LevelTable(f, pipe65.stack)
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    for norm_fn in (besov_norm, triebel_lizorkin_norm):
        with pytest.raises(ParameterError):
            norm_fn(table, spec, Pipeline(pipe65.space).stack)


def test_norms_reject_spec_of_another_stack(pipe65):
    f = holder_field(pipe65.space)
    for norm_fn in (besov_norm, triebel_lizorkin_norm):
        with pytest.raises(ParameterError, match="delta"):
            norm_fn(f, NormSpec(s=0.5, p=2.0, q=2.0, delta=0.25),
                    pipe65.stack)
        with pytest.raises(FlavorMismatchError):
            norm_fn(f, NormSpec(s=0.5, p=2.0, q=2.0, flavor="inhomogeneous"),
                    pipe65.stack)


def test_scale_sums_with_only_cell_levels():
    # every level of this inhomogeneous stack is a cell level (k <= N = 1),
    # so both scale sums are empty and each norm is its cell block
    sp = generate_space("grid1d", size=33)
    st = Pipeline(sp, DyadicSpec(k_max=1),
                  KernelSpec(flavor="inhomogeneous")).stack
    assert st.cell_levels() == st.levels()
    f = holder_field(sp)
    mags = np.abs(LevelTable(f, st).rows)
    for p in (1.5, 2.0, INF):
        for q in (1.5, 2.0, INF):
            spec = NormSpec(s=0.4, p=p, q=q, flavor="inhomogeneous")
            block = norms._cell_block(mags, spec, st)
            assert block > 0
            assert besov_norm(f, spec, st) == block, (p, q)
            assert triebel_lizorkin_norm(f, spec, st) == block, (p, q)


def test_tl_zero_field(pipe65):
    z = Field(pipe65.space, np.zeros(pipe65.space.n))
    assert triebel_lizorkin_norm(z, NormSpec(s=0.5, p=2.0, q=2.0),
                                 pipe65.stack) == 0.0
