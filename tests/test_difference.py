import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import difference_oracle as oracle
from homspace import (DifferenceTable, Field, MetricMeasureSpace, NormSpec,
                      ParameterError, difference_scales, generate_space,
                      lipschitz_norm, truncated_norm)
from homspace.difference import (TRUNCATED_VARIANTS, VARIANTS,
                                 natural_k_window, scale_weights)
from homspace.lab import embedding_suite
from homspace.norms import INF, lebesgue_norm

SLACK = 1 + 1e-12


def holder_field(space, theta=0.7, center=0):
    return Field(space, space.dist[center] ** theta)


def profile_rows(f, space, c_tilde, delta, k_range, u=1.0):
    # ball averages over an explicit level range (coarse to fine)
    scales = difference_scales(space, c_tilde, delta,
                               range(k_range[0], k_range[-1] + 1))
    return scales, DifferenceTable(f, scales).rows(u)


def test_profile_constant_zero(grid65):
    f = Field(grid65, np.full(grid65.n, 3.0))
    _, rows = profile_rows(f, grid65, 1.0, 0.5, (0, 6), u=1.0)
    assert np.max(rows) == 0.0


def test_profile_singleton_ball(grid65):
    f = holder_field(grid65)
    # radius below the nearest-neighbor gap: every ball is a singleton
    _, rows = profile_rows(f, grid65, grid65.min_gap / 2, 0.5, (0, 0))
    assert np.max(rows) == 0.0


def test_profile_linear_function_midpoint():
    sp = generate_space("grid1d", size=1025)
    x = np.linspace(0, 1, sp.n)
    f = Field(sp, x)
    # J at radius 1/4 around x = 1/2: average of |x - y| over (1/4, 3/4)
    _, rows = profile_rows(f, sp, 0.25, 0.5, (0, 0), u=1.0)
    mid = sp.n // 2
    assert abs(rows[0, mid] - 0.125) <= 2.0 / sp.n


def _mask_profile(sp, values, radii, u):
    # brute force: one open-ball mask per radius, no sorted index
    diff = np.abs(values[:, None] - values[None, :])
    rows = []
    for r in radii:
        mask = sp.dist < r
        if u == INF:
            rows.append(np.where(mask, diff, 0.0).max(axis=1))
        else:
            num = (np.where(mask, diff ** u, 0.0) * sp.weight).sum(axis=1)
            rows.append((num / (mask @ sp.weight)) ** (1.0 / u))
    return np.asarray(rows)


def test_profile_matches_mask_oracle(grid65):
    # circle-64 has exact distance ties at every radius it reaches
    for sp in (grid65, generate_space("sierpinski_level", level=3),
               generate_space("circle", size=64)):
        f = Field(sp, np.random.default_rng(3).standard_normal(sp.n))
        for u in (0.5, 1.0, 2.0, INF):
            scales, rows = profile_rows(f, sp, 1.0, 0.5, (-1, 8), u=u)
            radii = [1.0 * 0.5 ** k for k in scales.levels]
            want = _mask_profile(sp, f.values, radii, u)
            if u == INF:
                assert np.array_equal(rows, want), (sp.label, u)
            else:
                assert np.allclose(rows, want, rtol=1e-12, atol=0.0), \
                    (sp.label, u)


def test_profile_rejects_bad_u(grid65):
    f = holder_field(grid65)
    with pytest.raises(ParameterError):
        profile_rows(f, grid65, 1.0, 0.5, (0, 3), u=0.0)


def _oracle_spaces():
    circle = generate_space("circle", size=40)
    weight = 0.5 + np.random.default_rng(5).random(circle.n)
    return (generate_space("grid1d", size=65),
            generate_space("circle", size=64),
            generate_space("sierpinski_level", level=3),
            generate_space("graph", size=63),
            generate_space("snowflake_power", size=129, exponent=2.0),
            MetricMeasureSpace(circle.dist, weight, label="circle-40-weighted"),
            generate_space("circle", size=1))


def test_difference_matches_frozen_oracle():
    # every variant and truncation == the per-call code, on spaces with
    # ties, custom weights and a single point; one table per field serves
    # the whole (p, q, u) grid, as the lab suites use it
    for sp in _oracle_spaces():
        rng = np.random.default_rng(sp.n)
        fields = [Field(sp, rng.standard_normal(sp.n)),
                  Field(sp, sp.dist[sp.n // 3] ** 0.6)]
        for ct in (1.0, 0.37):
            scales = difference_scales(sp, ct, 0.5)
            for f in fields:
                table = DifferenceTable(f, scales)
                for p in (0.5, 1.0, 2.0, INF):
                    for q in (0.5, 2.0, INF):
                        for u in (0.5, 1.0):
                            spec = NormSpec(s=0.4, p=p, q=q, u=u, c_tilde=ct)
                            for v in VARIANTS:
                                want = oracle.lipschitz_norm(f, spec, v)
                                key = (sp.label, ct, p, q, u, v)
                                assert lipschitz_norm(table, spec, v) == want, key
                                assert lipschitz_norm(f, spec, v) == want, key
                            for v in TRUNCATED_VARIANTS:
                                want = oracle.truncated_norm(f, spec, v)
                                key = (sp.label, ct, p, q, u, v)
                                assert truncated_norm(table, spec, v) == want, key
                                assert truncated_norm(f, spec, v) == want, key


def test_embedding_suite_matches_frozen_oracle(grid65, pipe65, ensemble65,
                                               geom65):
    for pq in (2.0, INF):
        spec = NormSpec(s=0.5, p=pq, q=pq)
        args = (ensemble65, spec, geom65.omega)
        assert embedding_suite(pipe65.stack, *args,
                               geometry=geom65).to_csv() == \
            oracle.embedding_suite(grid65, pipe65.stack, pipe65.cubes, *args,
                                   geometry=geom65).to_csv()


def test_table_rejects_foreign_scales(grid65):
    f = holder_field(grid65)
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    other = generate_space("grid1d", size=65)
    with pytest.raises(ParameterError):
        DifferenceTable(f, difference_scales(other, 1.0, 0.5))
    for scales in (difference_scales(grid65, 0.5, 0.5),
                   difference_scales(grid65, 1.0, 0.5, range(0, 3))):
        with pytest.raises(ParameterError):
            lipschitz_norm(DifferenceTable(f, scales), spec, "Ldot")


def test_scales_refuse_fractional_levels(grid65):
    """A level is an integer: a fractional one is refused, not truncated,
    and an integral float is read as its int."""
    for levels in ([0.5, 1.7], [1, 2.5], [True, 2], ["1"]):
        with pytest.raises(ParameterError, match="difference level"):
            difference_scales(grid65, 1.0, 0.5, levels=levels)
    scales = difference_scales(grid65, 1.0, 0.5, levels=[1.0, 2])
    assert scales.levels == (1, 2)
    assert all(type(k) is int for k in scales.levels)


def test_window_and_weights(grid65):
    k0, k1 = natural_k_window(grid65, 1.0, 0.5)
    assert 1.0 * 0.5 ** k0 > grid65.diam >= 1.0 * 0.5 ** (k0 + 1)
    assert 1.0 * 0.5 ** k1 > grid65.min_gap >= 1.0 * 0.5 ** (k1 + 1)
    ks, wts = scale_weights(k0, k1, s=0.5, q=2.0, delta=0.5)
    # aggregated coarse weight equals the closed-form geometric tail
    x = 0.5 ** (-0.5 * 2.0)
    tail = sum(x ** k for k in range(k0, k0 - 60, -1))
    assert wts[0] == pytest.approx(tail, rel=1e-12)
    assert ks[0] == k0 and ks[-1] == k1


def test_scale_weights_need_positive_s():
    with pytest.raises(ParameterError):
        scale_weights(-3, 5, s=0.0, q=2.0, delta=0.5)


def test_constant_field_all_variants(grid65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    c = Field(grid65, np.full(grid65.n, 2.0))
    for variant in ("Ldot", "Lb_dot", "Lt_dot"):
        assert lipschitz_norm(c, spec, variant) == 0.0
    for variant in ("L", "Lb", "Lt"):
        assert lipschitz_norm(c, spec, variant) == \
            pytest.approx(lebesgue_norm(c, 2.0), rel=1e-14)
    for variant in ("L_tilde", "Lb_tilde"):
        assert truncated_norm(c, spec, variant) == 0.0


def test_one_point_space_zero():
    sp = generate_space("circle", size=1)
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    f = Field(sp, np.array([7.0]))
    assert lipschitz_norm(f, spec, "Ldot") == 0.0


def test_ldot_matches_triple_loop_oracle():
    sp = generate_space("grid1d", size=33)
    f = holder_field(sp)
    s, p, q, ct, delta = 0.5, 2.0, 2.0, 1.0, 0.5
    spec = NormSpec(s=s, p=p, q=q, c_tilde=ct, delta=delta)
    got = lipschitz_norm(f, spec, "Ldot")

    k0, k1 = natural_k_window(sp, ct, delta)
    acc = 0.0
    for k in range(k0 - 60, k1 + 1):  # far tail stands in for k -> -inf
        r = ct * delta ** k
        outer = 0.0
        for x in range(sp.n):
            num = den = 0.0
            for y in range(sp.n):
                if sp.dist[x, y] < r:
                    num += abs(f.values[x] - f.values[y]) ** p * sp.weight[y]
                    den += sp.weight[y]
            outer += (num / den) * sp.weight[x]
        acc += delta ** (-k * s * q) * outer ** (q / p)
    assert got == pytest.approx(acc ** (1 / q), rel=1e-12)


def test_lb_equals_lt_at_p_eq_q(grid65, ensemble65):
    # Fubini identity at u = 1
    for p in (1.5, 2.0, 3.0):
        spec = NormSpec(s=0.4, p=p, q=p, u=1.0)
        for f in ensemble65[:5]:
            lb = lipschitz_norm(f, spec, "Lb_dot")
            lt = lipschitz_norm(f, spec, "Lt_dot")
            assert lt == pytest.approx(lb, rel=1e-12)


def test_l_equals_lt_at_p_eq_q_eq_u(grid65, ensemble65):
    # second Fubini identity: inner exponent p on both sides
    p = 2.0
    spec = NormSpec(s=0.4, p=p, q=p, u=p)
    for f in ensemble65[:5]:
        ld = lipschitz_norm(f, spec, "Ldot")
        lt = lipschitz_norm(f, spec, "Lt_dot")
        assert lt == pytest.approx(ld, rel=1e-12)


def test_q_monotonicity_exact(grid65, ensemble65):
    for variant in ("Ldot", "Lb_dot", "Lt_dot", "L", "Lb", "Lt"):
        for f in ensemble65[:5]:
            prev = None
            for q in (1.0, 2.0, 4.0, INF):
                v = lipschitz_norm(f, NormSpec(s=0.5, p=2.0, q=q), variant)
                if prev is not None:
                    assert v <= prev * SLACK
                prev = v


def test_jensen_ordering(grid65, ensemble65):
    for p in (1.0, 2.0, 4.0, INF):
        spec = NormSpec(s=0.5, p=p, q=2.0)
        for f in ensemble65[:5]:
            lb = lipschitz_norm(f, spec, "Lb_dot")
            ld = lipschitz_norm(f, spec, "Ldot")
            assert lb <= ld * SLACK


def test_lt_sandwich_by_lb(grid65, ensemble65):
    # L_t(s,p,q) sits between L_b(s,p,min(p,q)) and L_b(s,p,max(p,q)) up to
    # constants; the q-monotone endpoints give literal inequalities at p = q
    p = 2.0
    for q in (1.0, 4.0):
        spec = NormSpec(s=0.5, p=p, q=q, u=1.0)
        lo = NormSpec(s=0.5, p=p, q=max(p, q), u=1.0)
        hi = NormSpec(s=0.5, p=p, q=min(p, q), u=1.0)
        for f in ensemble65[:4]:
            lt = lipschitz_norm(f, spec, "Lt_dot")
            ratio_hi = lipschitz_norm(f, hi, "Lb_dot")
            ratio_lo = lipschitz_norm(f, lo, "Lb_dot")
            assert ratio_lo <= lt * 4.0 and lt <= ratio_hi * 4.0


def test_truncated_below_full(grid65, ensemble65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    for f in ensemble65[:6]:
        assert truncated_norm(f, spec, "L_tilde") <= \
            lipschitz_norm(f, spec, "Ldot") * SLACK
        assert truncated_norm(f, spec, "Lb_tilde") <= \
            lipschitz_norm(f, spec, "Lb_dot") * SLACK


def test_truncation_equivalence_band(grid65, ensemble65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    ratios = []
    for f in ensemble65:
        full = lipschitz_norm(f, spec, "L")
        trunc = lebesgue_norm(f, 2.0) + truncated_norm(f, spec, "L_tilde")
        if min(full, trunc) > 1e-13:
            ratios.append(full / trunc)
    assert ratios
    assert max(ratios) / min(ratios) <= 4.0


def test_smoothness_shift_truncated_exact(grid65, ensemble65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    up = NormSpec(s=0.7, p=2.0, q=2.0)
    for f in ensemble65[:6]:
        assert truncated_norm(f, spec, "L_tilde") <= \
            truncated_norm(f, up, "L_tilde") * SLACK


def test_c_tilde_robustness(grid65, ensemble65):
    base = NormSpec(s=0.5, p=2.0, q=2.0, c_tilde=1.0)
    double = NormSpec(s=0.5, p=2.0, q=2.0, c_tilde=2.0)
    for variant in ("Ldot", "Lb_dot", "Lt_dot"):
        for f in ensemble65[:6]:
            a = lipschitz_norm(f, base, variant)
            b = lipschitz_norm(f, double, variant)
            if max(a, b) > 1e-13:
                assert 1 / 8 <= a / b <= 8


def test_p_infty_variants(grid65):
    f = holder_field(grid65)
    spec = NormSpec(s=0.5, p=INF, q=2.0)
    v = lipschitz_norm(f, spec, "Ldot")
    assert math.isfinite(v) and v > 0
    spec_qi = NormSpec(s=0.5, p=2.0, q=INF)
    v2 = lipschitz_norm(f, spec_qi, "Lt_dot")
    assert math.isfinite(v2) and v2 > 0


def test_variant_validation(grid65):
    f = holder_field(grid65)
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    with pytest.raises(ParameterError):
        lipschitz_norm(f, spec, "bogus")
    with pytest.raises(ParameterError):
        truncated_norm(f, spec, "Ldot")


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(min_value=0.3, max_value=1.0),
       scale=st.floats(min_value=0.25, max_value=4.0))
def test_absolute_homogeneity_property(theta, scale):
    sp = generate_space("grid1d", size=17)
    f = Field(sp, sp.dist[0] ** theta)
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    base = lipschitz_norm(f, spec, "Ldot")
    scaled = lipschitz_norm(Field(sp, scale * f.values), spec, "Ldot")
    assert scaled == pytest.approx(scale * base, rel=1e-11)


def test_quasi_triangle_bound(grid65, rng):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    kappa = 2.0 ** (1.0 / min(2.0, 2.0, 1.0))
    for _ in range(5):
        f = rng.standard_normal(grid65.n)
        g = rng.standard_normal(grid65.n)
        nf = lipschitz_norm(Field(grid65, f), spec, "Ldot")
        ng = lipschitz_norm(Field(grid65, g), spec, "Ldot")
        nfg = lipschitz_norm(Field(grid65, f + g), spec, "Ldot")
        assert nfg <= kappa * (nf + ng) * SLACK
