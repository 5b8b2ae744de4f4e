import tracemalloc
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest
import stack_oracle
from ati_oracle import reference_validate_ati

from homspace import (DyadicSpec, Field, KernelSpec, MetricMeasureSpace,
                      ParameterError, Pipeline, RangeError, build_cubes,
                      build_exp_ati, build_exp_iati, build_nets,
                      build_semigroup, generate_space, kernels,
                      refine_subcubes, validate_ati)
from homspace.dyadic import cube_dump
from homspace.kernels import r_gamma_integral_band

CANCEL_TOL = 1e-10
UNIT_TOL = 1e-12
INHOM = KernelSpec(flavor="inhomogeneous")


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


@pytest.mark.parametrize("t, a", [("0.5", 1.0), (True, 1.0), (0.5, -1.0),
                                  (0.5, 0.0), (0.5, float("inf")),
                                  (0.5, "1"), (0.5, True)])
def test_semigroup_checks_scale_and_exponent(grid65, t, a):
    """t is a real number > 0 and a a finite one > 0: a string or a bool
    scale, and an exponent that is not finite and > 0, is refused before
    any table is formed."""
    with pytest.raises(ParameterError, match="semigroup"):
        build_semigroup(grid65, t, a=a)


@pytest.mark.parametrize("seed", [-1, 1.5, "a", True])
def test_validation_seed_must_be_an_integer(pipe65, seed):
    with pytest.raises(ParameterError, match="seed"):
        validate_ati(pipe65.stack, seed=seed)


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
    fine = build_semigroup(sp, st.delta ** st.k_max, a=st.a)
    assert np.allclose(total, fine - 1.0 / sp.total_mass, atol=1e-11)


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


def test_inhomogeneous_requires_level_zero(pipe65):
    with pytest.raises(ParameterError):
        build_exp_iati(pipe65.cubes, k_range=(1, 5))


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
    validate_ati(st)
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
    grid513 = generate_space("grid1d", size=513)
    sierpinski = generate_space("sierpinski_level", level=5)
    circle = generate_space("circle", size=40)
    weight = 0.5 + np.random.default_rng(5).random(circle.n)
    return {"grid1d-257": pipe257,
            "grid1d-257-inhom": Pipeline(grid257, kernel=INHOM),
            "circle-256": Pipeline(generate_space("circle", size=256)),
            "grid1d-513": Pipeline(grid513),
            "grid1d-513-inhom": Pipeline(grid513, kernel=INHOM),
            "sierpinski-5": Pipeline(sierpinski),
            "sierpinski-5-inhom": Pipeline(sierpinski, kernel=INHOM),
            "snowflake-257": Pipeline(generate_space(
                "snowflake_power", size=257, exponent=2.0)),
            "graph-127": Pipeline(generate_space("graph", size=127)),
            "circle-40-weighted": Pipeline(MetricMeasureSpace(
                circle.dist, weight, label="circle-40-weighted"))}


# grid1d-513 masks about 2.15 M kernel entries, above kernels.FIT_POINTS, so
# its pooled nu fit takes every second one; the other spaces fit them all.
# sierpinski-5 has tied distances; n = 257 and 513 are no multiples of their
# block row counts (127 and 63 rows)
@pytest.mark.parametrize("label,seed", [
    ("grid1d-257", 0), ("grid1d-257", 5), ("grid1d-257-inhom", 0),
    ("grid1d-257-inhom", 5), ("circle-256", 0), ("grid1d-513", 0),
    ("grid1d-513-inhom", 0), ("sierpinski-5", 0), ("sierpinski-5-inhom", 5),
    ("snowflake-257", 0), ("graph-127", 5), ("circle-40-weighted", 0)])
def test_validation_matches_frozen_oracle(oracle_pipes, label, seed):
    pipe = oracle_pipes[label]
    got = asdict(validate_ati(pipe.stack, seed=seed))
    assert got == reference_validate_ati(pipe.stack, pipe.cubes, seed=seed)


@pytest.fixture(scope="module")
def oracle65(pipe65, pipe65_inhom):
    """The oracle's seed-5 report for each flavor on grid1d-65."""
    return {p.stack.flavor: reference_validate_ati(p.stack, p.cubes, seed=5)
            for p in (pipe65, pipe65_inhom)}


@pytest.mark.parametrize("rows", [1, 7, 65])
@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
def test_validation_block_sizes_agree(pipe65, pipe65_inhom, oracle65,
                                      monkeypatch, rows, flavor):
    """One-row blocks, blocks that do not divide n = 65 and one block of
    every row give the oracle's report."""
    pipe = pipe65 if flavor == "homogeneous" else pipe65_inhom
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 8 * 65 * rows)
    assert len(kernels._row_blocks(65)) == -(-65 // rows)
    assert asdict(validate_ati(pipe.stack, seed=5)) == oracle65[flavor]


@pytest.mark.parametrize("stride", [3, 40])
@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
def test_validation_thinned_fit_matches_frozen_oracle(
        pipe65, pipe65_inhom, monkeypatch, stride, flavor):
    """A fit thinned to a stride above 2, across blocks of 7 rows, gives
    every field of the oracle's report under the same point cap."""
    st = (pipe65 if flavor == "homogeneous" else pipe65_inhom).stack
    total = 0
    for q in st.q.values():
        q = np.abs(q)
        total += int(np.count_nonzero(q > kernels.NOISE_FLOOR * q.max()))
    points = total // stride + 1
    assert total // points + 1 == stride
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 8 * 65 * 7)
    monkeypatch.setattr(kernels, "FIT_POINTS", points)
    got = asdict(validate_ati(st, seed=5))
    assert got == reference_validate_ati(st, st.cubes, seed=5,
                                         fit_points=points)


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
def test_validation_of_empty_row_blocks_matches_frozen_oracle(
        pipe65, pipe65_inhom, monkeypatch, flavor):
    """A block of 7 rows with no entry above the floor, at two levels, adds
    no fit sample, R_Gamma peak or size term: the oracle's report."""
    st = (pipe65 if flavor == "homogeneous" else pipe65_inhom).stack
    levels = st.levels()
    zeroed = dict(st.q)
    for k, blk in ((levels[1], slice(7, 14)), (levels[-2], slice(35, 42))):
        q = st.q[k].copy()
        q[blk] = 0.0
        q[:, blk] = 0.0
        q.setflags(write=False)
        zeroed[k] = q
    st = replace(st, q=zeroed)
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 8 * 65 * 7)
    got = asdict(validate_ati(st, seed=5))
    assert got == reference_validate_ati(st, st.cubes, seed=5)


def test_validation_skips_entries_below_the_floor(pipe65, monkeypatch):
    """Entries at or below a level's noise floor that do not decay (here
    replaced by noise of up to half the floor) would set the size constants
    and, far from the diagonal at Gamma = 8, the R_Gamma peaks if a pass
    read them."""
    st = pipe65.stack
    rng = np.random.default_rng(3)
    noisy = {}
    for k, q in st.q.items():
        floor = kernels.NOISE_FLOOR * np.abs(q).max()
        noise = rng.uniform(-0.25, 0.25, q.shape) * floor
        noisy[k] = np.where(np.abs(q) > floor, q, noise + noise.T)
        noisy[k].setflags(write=False)
    st = replace(st, q=noisy)
    monkeypatch.setattr(kernels, "RGAMMA_GAMMAS", (2.0, 8.0))
    got = asdict(validate_ati(st, seed=5))
    assert got == reference_validate_ati(st, pipe65.cubes,
                                         gamma_list=(2.0, 8.0), seed=5)


def test_validation_fit_samples_every_stride_th_entry(pipe65, monkeypatch):
    """With the fit thinned to a stride of 3 and of 40, the fit reads every
    stride-th above-floor entry of the stacked levels in row-major order,
    across blocks of 7 rows."""
    st = pipe65.stack
    zs, ts = [], []
    for k in st.levels():
        q = np.abs(st.q[k])
        mask = q > kernels.NOISE_FLOOR * q.max()
        logv = np.log(st.space.ball_measure(st.delta ** k))
        z = np.log(q, where=mask, out=np.full_like(q, -np.inf))
        z += 0.5 * (logv[:, None] + logv[None, :])
        dY = st.cubes.refpoint_distance(k)
        h = ((dY / st.delta ** k) ** st.a if np.any(np.isfinite(dY))
             else np.zeros(st.space.n))
        u = (st.space.dist / st.delta ** k) ** st.a
        zs.append(z[mask])
        ts.append(u[mask] + np.maximum(h[:, None], h[None, :])[mask])
    zs, ts = np.concatenate(zs), np.concatenate(ts)
    seen = []
    monkeypatch.setattr(kernels, "BLOCK_BYTES", 8 * 65 * 7)
    monkeypatch.setattr(kernels, "_slope", lambda lhs, z: (
        seen.append((lhs[:, 0].copy(), z.copy())), -1.0)[1])
    for stride in (3, 40):
        monkeypatch.setattr(kernels, "FIT_POINTS", zs.size // stride + 1)
        seen.clear()
        validate_ati(st)
        t, z = seen[0]  # the nu fit; the eta fit comes second
        assert np.array_equal(t, ts[::stride])
        assert np.array_equal(z, zs[::stride])


def test_validation_peak_memory(oracle_pipes):
    # streamed levels with the fit's design matrix filled in place peak at
    # about 41 MB here; np.polyfit's copies took it to 66 MB, and keeping
    # every level's masked arrays until the fit to 137-146 MB
    pipe = oracle_pipes["grid1d-513"]
    stack = pipe.stack  # and its cubes, built before tracemalloc starts
    stack.space.v_table()  # the space's cache, 8 MB on a first call
    tracemalloc.start()
    try:
        validate_ati(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20


def _design(t):
    lhs = np.ones((len(t), 2))
    lhs[:, 0] = t
    return lhs


@pytest.mark.parametrize("case", ["random", "tied", "two-point", "eta-sized"])
def test_slope_is_polyfit_bit_for_bit(case):
    """The fits' slope helper gives np.polyfit(t, z, 1)[0] exactly: on many
    points, on t with few distinct values, on two points and on the 12 bin
    centres of the eta fit."""
    rng = np.random.default_rng(7)
    t = {"random": rng.gamma(2.0, 3.0, 200_003),
         "tied": rng.integers(0, 5, 10_007).astype(float),
         "two-point": np.array([0.25, 3.0]),
         "eta-sized": np.linspace(-6.5, -0.2, 12)}[case]
    z = -1.7 * t + rng.standard_normal(len(t))
    want = np.polyfit(t, z, 1)[0]
    zc = z.copy()
    assert kernels._slope(_design(t), zc) == want
    assert np.array_equal(zc, z)  # z is read, not written


@pytest.fixture(scope="module")
def stack_spaces(oracle_pipes):
    return {"grid1d-513": oracle_pipes["grid1d-513"].stack.space,
            "sierpinski-5": oracle_pipes["sierpinski-5"].stack.space,
            "grid2d-33": generate_space("grid2d", size=33),
            "snowflake-257": oracle_pipes["snowflake-257"].stack.space}


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("label", ["grid1d-513", "sierpinski-5", "grid2d-33",
                                   "snowflake-257"])
def test_stack_tables_match_frozen_builder(stack_spaces, label, flavor):
    """Seeds formed and scaled in place, differences written into the
    coarser table and the scalar mean cap give the frozen builder's tables
    bit for bit."""
    pipe = Pipeline(stack_spaces[label], kernel=KernelSpec(flavor=flavor))
    st = pipe.stack
    want = stack_oracle.kernel_tables(st.space, st.delta, st.k_min,
                                      st.k_max, st.a, flavor)
    assert st.q.keys() == want.keys()
    assert all(np.array_equal(st.q[k], want[k]) for k in want)
    t = st.delta ** st.k_max
    for a in (0.5, 2.0):
        assert np.array_equal(build_semigroup(st.space, t, a=a),
                              stack_oracle.build_semigroup(st.space, t, a=a))


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_inhomogeneous_stack_builds_p_sigma_once(pipe65_inhom, monkeypatch,
                                                 sigma):
    """At the default sigma = delta^0 = 1, Q_0 is the table P_1 that the
    first difference reads, so the stack builds one semigroup per level;
    another sigma builds one more.  Either way the tables are the frozen
    builder's."""
    cubes, k_max = pipe65_inhom.cubes, pipe65_inhom.levels[-1]
    scales = []
    real = kernels.build_semigroup
    monkeypatch.setattr(kernels, "build_semigroup", lambda space, t, a=1.0: (
        scales.append(t) or real(space, t, a=a)))
    st = build_exp_iati(cubes, (0, k_max), sigma=sigma)
    assert len(scales) == k_max + 1 + (sigma != 1)
    want = stack_oracle.kernel_tables(st.space, st.delta, 0, k_max,
                                      flavor="inhomogeneous", sigma=sigma)
    assert st.q.keys() == want.keys()
    assert all(np.array_equal(st.q[k], want[k]) for k in want)


@pytest.mark.parametrize("build", [build_exp_ati, build_exp_iati])
def test_stack_build_peak_memory(oracle_pipes, build):
    """Besides its finished tables a stack build holds one transient n x n
    table, the P_t being built, and a block of rows.  The out-of-place
    build, which formed each product and difference as a new table, went
    past the bound of two tables."""
    pipe = oracle_pipes["grid1d-513"]
    cubes, levels = pipe.cubes, pipe.levels
    tracemalloc.start()
    try:
        st = build(cubes, (levels[0], levels[-1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = sum(q.nbytes for q in st.q.values())
    assert peak - final <= 2 * 8 * st.space.n ** 2


@pytest.mark.parametrize("build,kw", [
    (build_exp_ati, {}), (build_exp_iati, {"sigma": 1.0}),
    (build_exp_iati, {"sigma": 2.0})],
    ids=["homogeneous", "inhomogeneous-sigma-1", "inhomogeneous-sigma-2"])
def test_stack_build_holds_only_its_levels(oracle_pipes, build, kw):
    """Built finest-first, a stack holds no n x n table besides its levels,
    only a block of rows: each P_t is scaled while the finer level still
    holds its P, the difference is written into that table, and the
    coarsest P is dropped before another P_sigma is scaled.  Built
    coarsest-first, the build held one more table at its last step."""
    pipe = oracle_pipes["grid1d-513"]
    cubes, levels = pipe.cubes, pipe.levels
    tracemalloc.start()
    try:
        st = build(cubes, (levels[0], levels[-1]), **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    final = sum(q.nbytes for q in st.q.values())
    assert peak - final <= 0.5 * 8 * st.space.n ** 2
    assert list(st.q) == list(st.levels())


def test_validation_inhom_unit_resid(pipe65_inhom):
    rep = validate_ati(pipe65_inhom.stack)
    assert rep.unit_resid is not None and rep.unit_resid <= UNIT_TOL
    assert rep.cancel_resid <= CANCEL_TOL


def test_rgamma_const_for_two_omega(validated65):
    # exponential decay dominates any polynomial envelope; Gamma = 2*omega
    assert np.isfinite(validated65.rgamma_const[2.0])


def test_scale_covariance_of_size_const():
    consts = {}
    for n in (33, 65):
        sp = generate_space("grid1d", size=n)
        pipe = Pipeline(sp, DyadicSpec(k_max=6))
        rep = validate_ati(pipe.stack)
        consts[n] = rep.size_const
    ratio = consts[65] / consts[33]
    assert 0.5 <= ratio <= 2.0


def test_r_gamma_integral_band(grid65):
    band = r_gamma_integral_band(grid65, 2.0,
                                 [0.25, 0.125, 0.0625, 0.03125])
    vals = list(band.values())
    assert max(vals) / min(vals) <= 4.0


def test_validation_deterministic(pipe65):
    a = validate_ati(pipe65.stack, seed=5)
    b = validate_ati(pipe65.stack, seed=5)
    assert a == b


def test_pipeline_rejects_fractional_levels(grid65):
    for kw in (dict(k_max=6.7), dict(k_min=0.5), dict(k_max=True),
               dict(j0=1.5)):
        with pytest.raises(ParameterError, match=next(iter(kw))):
            Pipeline(grid65, DyadicSpec(**kw))
    pipe = Pipeline(grid65, DyadicSpec(k_min=0.0, k_max=6.0, j0=2.0))
    assert (pipe.stack.k_min, pipe.stack.k_max, pipe.cubes.j0) == (0, 6, 2)


def test_kernel_builders_reject_fractional_levels(pipe65):
    for k_range in ((0.5, 4), (0, 4.7), (0, True)):
        with pytest.raises(ParameterError, match="k_range"):
            build_exp_ati(pipe65.cubes, k_range)
        with pytest.raises(ParameterError, match="k_range"):
            build_exp_iati(pipe65.cubes, k_range)
    st = build_exp_iati(pipe65.cubes, (0.0, 3.0))
    assert (st.k_min, st.k_max) == (0, 3)


@pytest.mark.parametrize("build,k_range", [
    (build_exp_ati, (3, 1)), (build_exp_iati, (0, -1)),
    (build_exp_iati, (0, 0))], ids=["ati-3-1", "iati-0-m1", "iati-0-0"])
def test_kernel_builders_reject_an_empty_or_one_level_range(monkeypatch,
                                                            build, k_range):
    """A range with no level, or an inhomogeneous one without level 1, is
    refused before any table is built."""
    cubes = Pipeline(generate_space("grid1d", size=33)).cubes

    def no_semigroup(*args, **kwargs):
        raise AssertionError("a kernel table was built")

    monkeypatch.setattr(kernels, "build_semigroup", no_semigroup)
    with pytest.raises(ParameterError):
        build(cubes, k_range)


def test_inhomogeneous_pipeline_rejects_given_level_range(grid65):
    for kw in (dict(k_min=3), dict(k_min=-1), dict(k_max=0)):
        with pytest.raises(ParameterError, match=next(iter(kw))):
            Pipeline(grid65, DyadicSpec(**kw), INHOM)
    pipe = Pipeline(grid65, DyadicSpec(k_min=0, k_max=4), INHOM)
    assert (pipe.stack.k_min, pipe.stack.k_max) == (0, 4)


@pytest.mark.parametrize("flavor,kw", [
    ("homogeneous", {}), ("homogeneous", dict(k_min=1, k_max=5)),
    ("inhomogeneous", {}), ("inhomogeneous", dict(k_min=0, k_max=4))])
def test_cubes_without_a_stack_match_the_full_pipeline(grid65, flavor, kw):
    """Cubes and levels read alone build no stack, and equal those of a
    pipeline whose stack is read first."""
    lazy = Pipeline(grid65, DyadicSpec(**kw), KernelSpec(flavor=flavor))
    cubes, levels = lazy.cubes, lazy.levels
    assert "stack" not in vars(lazy)
    with pytest.raises(FrozenInstanceError):
        lazy.cubes = None
    pipe = Pipeline(grid65, DyadicSpec(**kw), KernelSpec(flavor=flavor))
    assert levels == pipe.stack.levels() == pipe.levels
    assert cube_dump(cubes) == cube_dump(pipe.cubes)
    assert cubes.delta == pipe.stack.delta


def test_kernel_arguments_are_checked_before_any_work(grid65):
    """a must be positive, and a leaf the flavor does not read must stay
    unset."""
    for kw in (dict(a=-1.0), dict(a=0.0), dict(sigma=0.5), dict(n_low=2),
               dict(flavor="inhomogeneous", sigma=-1.0),
               dict(flavor="inhomogeneous", n_low=-1)):
        with pytest.raises(ParameterError):
            Pipeline(grid65, kernel=KernelSpec(**kw))
    st = build_exp_iati(Pipeline(grid65).cubes, (0, 3),
                        n_low=2.0)
    assert st.n_low == 2 and isinstance(st.n_low, int)


def test_pipeline_rejects_an_empty_level_range(grid65):
    with pytest.raises(ParameterError, match="empty level range"):
        Pipeline(grid65, DyadicSpec(k_min=5, k_max=4, j0=0))
    # an end above the default range's other end: found when levels are read
    lazy = Pipeline(grid65, DyadicSpec(k_min=40, j0=0))
    with pytest.raises(ParameterError, match="empty level range"):
        lazy.levels


def test_interior_levels_are_the_middle_third(pipe65):
    for k_max, want in ((0, [0]), (1, [0, 1]), (2, [1, 2]), (5, [2, 3, 4]),
                        (8, [3, 4, 5, 6])):
        st = replace(pipe65.stack, k_min=0, k_max=k_max)
        assert list(st.interior_levels()) == want


def test_stack_checks_its_cubes_on_construction(grid65, pipe65):
    """A stack's cubes live on its space at its delta and carry subcubes at
    every stack level; `replace` runs the check again, and a sampler variant
    of the same nets passes it."""
    st, cubes = pipe65.stack, pipe65.cubes
    bare = build_cubes(cubes.nets, grid65)
    with pytest.raises(RangeError, match="no subcubes"):
        replace(st, cubes=bare)
    with pytest.raises(RangeError, match="no subcubes"):
        build_exp_ati(bare, (st.k_min, st.k_max))
    with pytest.raises(RangeError, match="subcubes stop at"):
        replace(st, k_max=cubes.k_max - cubes.j0 + 1)
    with pytest.raises(RangeError, match="coarser than the cube system"):
        replace(st, k_min=cubes.k_min - 1)
    for other in (Pipeline(generate_space("grid1d", size=65)).cubes,
                  Pipeline(grid65, DyadicSpec(delta=0.6)).cubes):
        with pytest.raises(ParameterError, match="another space or at"):
            replace(st, cubes=other)
    variant = refine_subcubes(bare, cubes.j0, sampler="lowest_index")
    moved = replace(st, cubes=variant)
    assert moved.cubes is variant and moved.q is st.q
    with pytest.raises(FrozenInstanceError):
        st.cubes = variant


def test_builders_check_the_cubes_before_any_table(grid65, monkeypatch):
    """Cubes without subcubes, or refined too shallowly, are rejected before
    the first semigroup table is built."""
    calls = []
    real = kernels.build_semigroup
    monkeypatch.setattr(kernels, "build_semigroup",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    bare = build_cubes(build_nets(grid65, 0.5, (0, 10)), grid65)
    for build in (build_exp_ati, build_exp_iati):
        with pytest.raises(RangeError, match="no subcubes"):
            build(bare, (0, 10))
    shallow = refine_subcubes(bare, 2)
    for build in (build_exp_ati, build_exp_iati):
        with pytest.raises(RangeError, match="subcubes stop at"):
            build(shallow, (0, 10))
    assert calls == []
    build_exp_ati(shallow, (0, 3))
    assert len(calls) == 4
