from dataclasses import asdict, fields

import numpy as np
import pytest
from ati_oracle import reference_validate_ati

from homspace import (Field, ParameterError, build_exp_iati, build_pipeline,
                      build_semigroup, generate_space, validate_ati)
from homspace.kernels import mean_projection, r_gamma_integral_band

CANCEL_TOL = 1e-10
UNIT_TOL = 1e-12


def test_semigroup_two_point_symmetric():
    sp = generate_space("grid1d", size=2)
    p = build_semigroup(sp, t=100.0)
    assert p[0, 1] == p[1, 0]
    assert p[0, 0] == pytest.approx(p[1, 1], rel=1e-12)
    rows = p @ sp.weight
    assert np.allclose(rows, 1.0, atol=1e-12)
    # at scales far above the diameter the table approaches 1/mu(X)
    assert np.allclose(p, 1.0 / sp.total_mass, rtol=2e-2)


def test_semigroup_identity_limit():
    sp = generate_space("grid1d", size=9)
    p = build_semigroup(sp, t=1e-4)
    off = p - np.diag(np.diag(p))
    assert np.max(np.abs(off)) < 1e-12
    assert np.allclose(np.diag(p), 1.0 / sp.weight, rtol=1e-10)


def test_semigroup_row_sums_and_symmetry(grid65):
    p = build_semigroup(grid65, t=1.0 / 8)
    assert np.max(np.abs(p @ grid65.weight - 1.0)) <= 1e-12
    assert np.array_equal(p, p.T)


def test_semigroup_rejects_bad_scale(grid65):
    with pytest.raises(ParameterError):
        build_semigroup(grid65, t=0.0)


def test_homogeneous_cancellation_and_constants(pipe65):
    st = pipe65.stack
    w = st.space.weight
    for k in st.levels():
        assert np.max(np.abs(st.q[k] @ w)) <= CANCEL_TOL
        assert np.max(np.abs(st.q[k].T @ w)) <= CANCEL_TOL
        assert np.array_equal(st.q[k], st.q[k].T)
    f = np.full(st.space.n, 3.7)
    for k in st.levels():
        assert np.max(np.abs(st.apply(k, f))) <= CANCEL_TOL


def test_homogeneous_telescoping_to_mean(pipe65):
    st = pipe65.stack
    sp = st.space
    total = sum(st.q[k] for k in st.levels())
    fine = st.semigroup(st.delta ** st.k_max)
    assert np.allclose(total, fine - mean_projection(sp), atol=1e-11)


def test_inhomogeneous_unit_integrals(pipe65_inhom):
    st = pipe65_inhom.stack
    w = st.space.weight
    assert np.max(np.abs(st.q[0] @ w - 1.0)) <= UNIT_TOL
    f = np.full(st.space.n, 2.5)
    assert np.max(np.abs(st.apply(0, f) - 2.5)) <= 1e-11
    for k in st.levels():
        if k >= 1:
            assert np.max(np.abs(st.apply(k, f))) <= CANCEL_TOL


def test_inhomogeneous_identity_on_arbitrary_fields(pipe65_inhom, rng):
    st = pipe65_inhom.stack
    w = st.space.weight
    for _ in range(4):
        g = rng.standard_normal(st.space.n) + rng.standard_normal()
        resid = np.sqrt(np.sum((st.apply_all(g) - g) ** 2 * w)
                        / np.sum(g ** 2 * w))
        assert resid <= 1e-3


def test_inhomogeneous_requires_level_zero(grid65, pipe65):
    with pytest.raises(ParameterError):
        build_exp_iati(grid65, pipe65.cubes, k_range=(1, 5))


def test_validation_report(pipe65, validated65):
    rep = validated65
    assert rep.cancel_resid <= CANCEL_TOL
    assert rep.identity_resid <= 1e-3
    assert np.isfinite(rep.size_const) and rep.size_const > 0
    assert np.isfinite(rep.size_const_no_h)
    assert rep.eta_fit >= 0.5
    assert rep.nu > 0
    assert all(np.isfinite(c) for c in rep.rgamma_const.values())


def test_validation_leaves_stack_unchanged(pipe65):
    st = pipe65.stack
    before = {f.name: getattr(st, f.name) for f in fields(st) if f.name != "q"}
    tables = {k: st.q[k].copy() for k in st.q}
    attrs = set(vars(st))
    validate_ati(st, pipe65.cubes)
    assert set(vars(st)) == attrs
    assert all(getattr(st, name) is val for name, val in before.items())
    assert st.q.keys() == tables.keys()
    assert all(np.array_equal(st.q[k], tables[k]) for k in tables)


def test_fields_and_kernel_tables_are_read_only(pipe65):
    st = pipe65.stack
    raw = np.ones(st.space.n)
    f = Field(st.space, raw)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
    raw[0] = 5.0  # the field holds its own copy
    assert f.values[0] == 1.0
    for k in st.levels():
        with pytest.raises(ValueError):
            st.q[k][0, 0] = 0.0


@pytest.fixture(scope="module")
def oracle_pipes(pipe257, grid257):
    return {"grid1d-257": pipe257,
            "grid1d-257-inhom": build_pipeline(grid257,
                                               flavor="inhomogeneous"),
            "circle-256": build_pipeline(generate_space("circle", size=256))}


@pytest.mark.parametrize("label,seed", [
    ("grid1d-257", 0), ("grid1d-257", 5), ("grid1d-257-inhom", 0),
    ("grid1d-257-inhom", 5), ("circle-256", 0)])
def test_validation_matches_frozen_oracle(oracle_pipes, label, seed):
    pipe = oracle_pipes[label]
    got = asdict(validate_ati(pipe.stack, pipe.cubes, seed=seed))
    assert got == reference_validate_ati(pipe.stack, pipe.cubes, seed=seed)


def test_validation_inhom_unit_resid(pipe65_inhom):
    rep = validate_ati(pipe65_inhom.stack, pipe65_inhom.cubes)
    assert rep.unit_resid is not None and rep.unit_resid <= UNIT_TOL
    assert rep.cancel_resid <= CANCEL_TOL


def test_rgamma_const_for_two_omega(pipe65, validated65):
    # exponential decay dominates any polynomial envelope; Gamma = 2*omega
    rep = validate_ati(pipe65.stack, pipe65.cubes, gamma_list=(2.0,))
    assert np.isfinite(rep.rgamma_const[2.0])


def test_scale_covariance_of_size_const():
    consts = {}
    for n in (33, 65):
        sp = generate_space("grid1d", size=n)
        pipe = build_pipeline(sp, k_max=6)
        rep = validate_ati(pipe.stack, pipe.cubes)
        consts[n] = rep.size_const
    ratio = consts[65] / consts[33]
    assert 0.5 <= ratio <= 2.0


def test_r_gamma_integral_band(grid65):
    band = r_gamma_integral_band(grid65, 2.0,
                                 [0.25, 0.125, 0.0625, 0.03125])
    vals = list(band.values())
    assert max(vals) / min(vals) <= 4.0


def test_validation_deterministic(pipe65):
    a = validate_ati(pipe65.stack, pipe65.cubes, seed=5)
    b = validate_ati(pipe65.stack, pipe65.cubes, seed=5)
    assert a == b


def test_semigroup_coarse_cap_mode(grid65):
    from homspace import build_cubes, build_nets, refine_subcubes
    from homspace.kernels import build_exp_ati
    nets = build_nets(grid65, 0.5, (0, 8))
    cubes = refine_subcubes(build_cubes(nets, grid65), 2)
    st = build_exp_ati(grid65, cubes, k_range=(0, 6), coarse="semigroup")
    w = grid65.weight
    for k in st.levels():
        assert np.max(np.abs(st.q[k] @ w)) <= 1e-10
    with pytest.raises(ParameterError):
        build_exp_ati(grid65, cubes, k_range=(0, 6), coarse="warp")
