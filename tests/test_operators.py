import tracemalloc
import warnings
from dataclasses import replace

import frame_oracle
import numpy as np
import pytest

from homspace import (Field, IllConditionedFrameError, KernelSpec,
                      LevelTable, ParameterError, Pipeline, RangeError,
                      analyze, frame_operator, generate_space, hl_maximal,
                      operators, reconstruct)
from homspace.operators import mu_dot
from homspace.report import fmt
from homspace.space import point_count


def test_field_validation(grid65):
    with pytest.raises(ParameterError):
        Field(grid65, np.zeros(3))
    with pytest.raises(ParameterError):
        Field(grid65, np.full(grid65.n, np.nan))


@pytest.mark.parametrize("values", [
    lambda n: ["1"] * n, lambda n: [True] * n, lambda n: [None] * n,
    lambda n: np.ones(n, dtype=bool), lambda n: np.full(n, 1 + 2j)],
    ids=["strings", "booleans", "nulls", "bool-array", "complex"])
def test_field_refuses_values_that_are_not_numbers(grid65, values):
    # strings and booleans were parsed as numbers, and a complex field lost
    # its imaginary part after only a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="field values must be numbers"):
            Field(grid65, values(grid65.n))


def test_field_takes_integers(grid65):
    for values in (list(range(grid65.n)), np.arange(grid65.n)):
        f = Field(grid65, values)
        assert f.values.dtype == float
        assert f.values.tolist() == [float(i) for i in range(grid65.n)]


def test_level_table_matches_naive_loop(pipe65, rng):
    st = pipe65.stack
    sp = st.space
    f = Field(sp, rng.standard_normal(sp.n))
    table = LevelTable(f, st)
    assert table.rows.shape == (len(st.levels()), sp.n)
    assert not table.rows.flags.writeable
    for k in (st.k_min, st.k_min + 3, st.k_max):
        got = table.rows[k - st.k_min]
        want = np.zeros(sp.n)
        for x in range(sp.n):
            acc = 0.0
            for y in range(sp.n):
                acc += st.q[k][x, y] * f.values[y] * sp.weight[y]
            want[x] = acc
        assert np.max(np.abs(got - want)) <= 1e-13


def test_level_tables_of_many_fields_match_one_at_a_time(pipe65,
                                                          pipe65_inhom,
                                                          ensemble65):
    """`LevelTable.many` gives each field the rows of its own table and of
    one `stack.apply` per level, ==, in both flavors; its tables and the
    array they share are read-only."""
    for st in (pipe65.stack, pipe65_inhom.stack):
        tables = LevelTable.many(iter(ensemble65), st)
        assert len(tables) == len(ensemble65)
        for f, table in zip(ensemble65, tables):
            assert table.stack is st
            assert np.array_equal(table.rows, LevelTable(f, st).rows)
            assert np.array_equal(table.rows, np.stack(
                [st.apply(k, f.values) for k in st.levels()]))
            assert not table.rows.flags.writeable
            assert not table.rows.base.flags.writeable
    assert LevelTable.many([], pipe65.stack) == []
    other = generate_space("grid1d", size=65)
    with pytest.raises(ParameterError):
        LevelTable.many([ensemble65[0], Field(other, np.ones(other.n))],
                        pipe65.stack)


def test_level_table_rejects_foreign_stack_and_space(pipe65, pipe65_inhom):
    f = Field(pipe65.space, np.ones(pipe65.space.n))
    other = generate_space("grid1d", size=65)
    with pytest.raises(ParameterError):
        LevelTable(Field(other, np.ones(other.n)), pipe65.stack)
    table = LevelTable(f, pipe65.stack)
    assert LevelTable.of(table, pipe65.stack) is table
    with pytest.raises(ParameterError):
        LevelTable.of(table, pipe65_inhom.stack)
    with pytest.raises(ParameterError):
        analyze(pipe65_inhom.stack, table)
    with pytest.raises(ParameterError):
        frame_operator(pipe65_inhom.stack, table)


def test_apply_level_range_error(pipe65):
    with pytest.raises(RangeError):
        pipe65.stack.apply(pipe65.stack.k_max + 1, np.zeros(pipe65.space.n))


# -- maximal operator ----------------------------------------------------------

def test_maximal_constant(grid65):
    f = Field(grid65, np.full(grid65.n, -2.0))
    assert np.allclose(hl_maximal(f).values, 2.0, atol=1e-15)


def test_maximal_dominates_pointwise(grid65, rng):
    for _ in range(20):
        f = Field(grid65, rng.standard_normal(grid65.n))
        m = hl_maximal(f).values
        assert np.all(m >= np.abs(f.values) - 1e-15)


def test_maximal_sublinear_homogeneous(grid65, rng):
    f = rng.standard_normal(grid65.n)
    g = rng.standard_normal(grid65.n)
    mf = hl_maximal(Field(grid65, f)).values
    mg = hl_maximal(Field(grid65, g)).values
    mfg = hl_maximal(Field(grid65, f + g)).values
    assert np.all(mfg <= mf + mg + 1e-12)
    mcf = hl_maximal(Field(grid65, -3.0 * f)).values
    assert np.allclose(mcf, 3.0 * mf, rtol=1e-12)


def test_maximal_indicator_endpoint():
    sp = generate_space("grid1d", size=1025)
    x = np.linspace(0, 1, 1025)
    f = Field(sp, (x <= 0.5).astype(float))
    m = hl_maximal(f)
    assert abs(m.values[-1] - 0.5) <= 2.0 / 1025


def test_maximal_matches_brute_force(rng):
    sp = generate_space("grid1d", size=33)
    f = Field(sp, rng.standard_normal(sp.n))
    m = hl_maximal(f).values
    g = np.abs(f.values) * sp.weight
    for x in range(sp.n):
        best = 0.0
        for r in np.unique(sp.dist[x]) + 1e-12:
            mask = sp.dist[x] < r
            best = max(best, g[mask].sum() / sp.weight[mask].sum())
        assert m[x] == pytest.approx(best, rel=1e-12)


def _hl_maximal_oracle(space, f):
    """Frozen copy of the maximal operator that divided every prefix of every
    row and masked the non-ends with -inf before the row max."""
    idx = space.ball_index
    g = np.abs(f.values) * space.weight
    gpre = np.cumsum(g[idx.order], axis=1)
    with np.errstate(invalid="ignore"):
        ratio = gpre / idx.weight_prefix
    ratio = np.where(idx.group_end, ratio, -np.inf)
    return np.max(ratio, axis=1)


@pytest.mark.parametrize("kind,args,measure", [
    pytest.param("grid2d", dict(size=9), "uniform", id="grid2d-9-uniform"),
    pytest.param("graph", dict(size=40), "custom", id="graph-40-custom"),
    pytest.param("grid1d", dict(size=65), "uniform", id="grid1d-65-uniform"),
    pytest.param("grid1d", dict(size=1), "uniform", id="grid1d-1-uniform"),
    pytest.param("sierpinski_level", dict(level=3), "uniform",
                 id="sierpinski-3-uniform"),
    pytest.param("circle", dict(size=64), "uniform", id="circle-64-uniform"),
    pytest.param("snowflake_power", dict(size=65, exponent=1.5), "uniform",
                 id="snowflake1.5-65-uniform"),
    pytest.param("grid2d", dict(size=9), "custom", id="grid2d-9-custom")])
def test_maximal_matches_frozen_oracle(kind, args, measure, rng):
    n = point_count(kind, args.get("size"), args.get("level"))
    weights = rng.uniform(0.5, 2.0, n) if measure == "custom" else None
    sp = generate_space(kind, weights=weights, **args)
    for values in (rng.standard_normal(n), np.zeros(n), np.full(n, -2.0)):
        f = Field(sp, values)
        assert np.array_equal(hl_maximal(f).values,
                              _hl_maximal_oracle(sp, f))
    ends = sp.group_ends
    assert ends[0].dtype == np.int32 and len(ends[2]) == n
    assert not any(a.flags.writeable for a in ends)


@pytest.mark.parametrize("kw", [dict(kind="circle", size=64),
                                dict(kind="grid2d", size=9),
                                dict(kind="sierpinski_level", level=3)],
                         ids=["circle-64", "grid2d-9", "sierpinski-3"])
def test_group_ends_are_rank_major(kw):
    """`by_rank` is the ball index's order transposed, and `flat` names each
    group end once, row by row and in rank order within a row, as its
    position j * n + x in a rank-major n x n table."""
    sp = generate_space(**kw)
    idx = sp.ball_index
    flat, measure, starts, by_rank = sp.group_ends
    assert by_rank.flags.c_contiguous
    assert np.array_equal(by_rank, idx.order.T)
    assert idx.group_end.T.ravel()[flat].all()
    assert len(flat) == idx.group_end.sum()
    rank, x = np.divmod(flat, sp.n)
    assert np.all((np.diff(x) > 0) | ((np.diff(x) == 0) & (np.diff(rank) > 0)))
    assert np.array_equal(starts, np.searchsorted(x, np.arange(sp.n)))
    assert np.array_equal(measure, idx.weight_prefix[x, rank])


@pytest.mark.parametrize("kw", [dict(kind="grid1d", size=513),
                                dict(kind="grid2d", size=21)],
                         ids=["grid1d-513", "grid2d-21"])
def test_maximal_peak_memory(kw):
    """With `group_ends` cached, one maximal call holds its rank-major
    running sums, the gathered ball ends divided in place and the result:
    below two distance tables (1.79 and 1.53 of them when measured)."""
    sp = generate_space(**kw)
    f = Field(sp, np.random.default_rng(0).standard_normal(sp.n))
    sp.group_ends  # built and cached before tracemalloc starts
    tracemalloc.start()
    try:
        hl_maximal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sp.dist.nbytes


# -- coefficients and frame -----------------------------------------------------

def test_analyze_matches_direct_sampling(pipe65, rng):
    st = pipe65.stack
    sp = st.space
    f = Field(sp, rng.standard_normal(sp.n))
    grid = analyze(st, f)
    for k in st.levels():
        g = st.apply(k, f.values)
        lc = grid.levels[k]
        assert np.max(np.abs(lc.value - g[lc.y_index])) <= 1e-13
        total = sum(lc.weight)
        assert total == pytest.approx(sp.total_mass, rel=1e-12)


def test_analyze_constant_homogeneous_zero(pipe65):
    sp = pipe65.space
    f = Field(sp, np.ones(sp.n))
    grid = analyze(pipe65.stack, f)
    for lc in grid.levels.values():
        assert np.max(np.abs(lc.value)) <= 1e-10


def test_analyze_inhom_averages(pipe65_inhom, rng):
    st, cubes = pipe65_inhom.stack, pipe65_inhom.cubes
    sp = st.space
    f = Field(sp, rng.standard_normal(sp.n))
    grid = analyze(st, f)
    for k in range(0, st.n_low + 1):
        lc = grid.levels[k]
        assert lc.average is not None
        g = st.apply(k, f.values)
        _, _, _, _, sub_assign = cubes.sample_arrays(k)
        i = 0
        mem = np.nonzero(sub_assign == i)[0]
        direct = (g[mem] * sp.weight[mem]).sum() / sp.weight[mem].sum()
        assert lc.average[i] == pytest.approx(direct, rel=1e-12)


def test_grid_csv_export(pipe65, rng):
    f = Field(pipe65.space, rng.standard_normal(pipe65.space.n))
    grid = analyze(pipe65.stack, f)
    header, first, *rest = grid.csv().splitlines()
    assert header == "k,alpha,m,y_index,value,weight"
    assert len(rest) + 1 == sum(len(lc.alpha) for lc in grid.levels.values())
    k, alpha, m, y, val, wgt = first.split(",")
    assert int(k) == min(grid.levels) and int(alpha) >= 0 and float(wgt) > 0


def _fmt_join_csv(grid):
    """Frozen copy of the per-cell export the CSV replaced: a row tuple per
    sample and one `fmt` call per cell."""
    lines = ["k,alpha,m,y_index,value,weight"]
    for k in sorted(grid.levels):
        lc = grid.levels[k]
        for i in range(len(lc.alpha)):
            row = (k, int(lc.alpha[i]), int(lc.m[i]), int(lc.y_index[i]),
                   float(lc.value[i]), float(lc.weight[i]))
            lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("pipe", ["pipe65", "pipe65_inhom"])
def test_grid_csv_matches_fmt_join(request, pipe):
    """The level-by-level CSV is byte-equal to the per-cell `fmt` join, on
    a bandlimited field and on values fmt spells out (nan, infinities,
    signed zero, extremes)."""
    st = request.getfixturevalue(pipe).stack
    noise = np.random.default_rng(1).standard_normal(st.space.n)
    grid = analyze(st, Field(st.space, st.apply(st.interior_levels()[0],
                                                noise)))
    assert grid.csv() == _fmt_join_csv(grid)
    lc = grid.levels[st.k_min]
    special = np.resize([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16,
                         -1.7976931348623157e308, 0.1, 1 / 3], len(lc.value))
    odd = replace(grid, levels={st.k_min: replace(
        lc, value=special, weight=special[::-1].copy())})
    assert odd.csv() == _fmt_join_csv(odd)


def test_frame_operator_symmetric(pipe65, rng):
    sp = pipe65.space
    f = rng.standard_normal(sp.n)
    g = rng.standard_normal(sp.n)
    sf = frame_operator(pipe65.stack, Field(sp, f)).values
    sg = frame_operator(pipe65.stack, Field(sp, g)).values
    assert mu_dot(sp, sf, g) == pytest.approx(mu_dot(sp, f, sg), rel=1e-10)


def test_frame_operator_symmetric_inhom(pipe65_inhom, rng):
    sp = pipe65_inhom.space
    f = rng.standard_normal(sp.n)
    g = rng.standard_normal(sp.n)
    sf = frame_operator(pipe65_inhom.stack, Field(sp, f)).values
    sg = frame_operator(pipe65_inhom.stack, Field(sp, g)).values
    assert mu_dot(sp, sf, g) == pytest.approx(mu_dot(sp, f, sg), rel=1e-10)


FRAME_SPACES = {"grid2d-33": dict(kind="grid2d", size=33),
                "grid1d-513": dict(kind="grid1d", size=513),
                "sierpinski-5": dict(kind="sierpinski_level", level=5)}
FLAVORS = ("homogeneous", "inhomogeneous")


@pytest.fixture(scope="module")
def frame_pipes():
    """One pipeline per space and flavor; each stack is built on first read."""
    pipes = {}
    for label, kw in FRAME_SPACES.items():
        sp = generate_space(**kw)
        for flavor in FLAVORS:
            pipes[label, flavor] = Pipeline(sp,
                                            kernel=KernelSpec(flavor=flavor))
    return pipes


def _bandlimited(st, seed=0):
    """Q_j of white noise at the stack's middle level, as `frame
    reconstruct` makes its bandlimited field."""
    levels = st.levels()
    noise = np.random.default_rng(seed).standard_normal(st.space.n)
    return Field(st.space, st.apply(levels[len(levels) // 2], noise))


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("label", sorted(FRAME_SPACES))
def test_frame_operator_matches_frozen_column_form(frame_pipes, label, flavor,
                                                   rng):
    """The synthesis from rows of Q_k gives the frozen column form's bits,
    on point-sample levels that sample every point and on coarser ones, and
    next to the cell-average levels of an inhomogeneous stack."""
    st = frame_pipes[label, flavor].stack
    sp = st.space
    sampled = [k for k in st.levels() if k not in st.cell_levels()]
    assert any(len(st.cubes.sample_arrays(k).y) < sp.n for k in sampled)
    assert any(len(st.cubes.sample_arrays(k).y) == sp.n for k in sampled)
    assert bool(st.cell_levels()) == (flavor == "inhomogeneous")
    fields = [Field(sp, rng.standard_normal(sp.n)) for _ in range(2)]
    fields.append(_bandlimited(st))
    for f in fields:
        assert np.array_equal(frame_operator(st, f).values,
                              frame_oracle.frame_operator(st, f).values)


def test_reconstruct_matches_frozen_column_form(frame_pipes, monkeypatch):
    """`frame reconstruct`'s solve on grid2d-33: the report and the
    reconstruction equal those of CG run on the frozen column form."""
    st = frame_pipes["grid2d-33", "homogeneous"].stack
    f = _bandlimited(st)
    rf, rep = reconstruct(st, f, tol=1e-10, maxiter=500)
    monkeypatch.setattr(operators, "frame_operator",
                        frame_oracle.frame_operator)
    want_rf, want_rep = reconstruct(st, f, tol=1e-10, maxiter=500)
    assert rep == want_rep
    assert rep.iterations == 13
    assert np.array_equal(rf.values, want_rf.values)


def test_frame_annihilates_constants(pipe65):
    sp = pipe65.space
    sf = frame_operator(pipe65.stack, Field(sp, np.ones(sp.n))).values
    assert np.max(np.abs(sf)) <= 1e-10


def test_reconstruct_band_limited(pipe257, rng):
    st = pipe257.stack
    sp = st.space
    g = rng.standard_normal(sp.n)
    j = st.k_min + 4
    f = Field(sp, st.apply(j, g))
    rf, rep = reconstruct(st, f, tol=1e-6, maxiter=200)
    assert rep.converged and rep.iterations <= 200
    err = np.sqrt(mu_dot(sp, rf.values - f.values, rf.values - f.values)
                  / mu_dot(sp, f.values, f.values))
    assert err <= 1e-6
    assert rep.frame_lower is not None and rep.frame_lower > 0


def test_reconstruct_refuses_a_field_of_another_space(pipe65):
    """A field lives on the space of the stack it is reconstructed on; one
    of another space of the same size is refused, not solved for."""
    for other in (generate_space("circle", size=65),
                  generate_space("grid1d", size=65)):
        f = Field(other, np.cos(np.arange(other.n)))
        with pytest.raises(ParameterError, match="different spaces"):
            reconstruct(pipe65.stack, f)


def test_reconstruct_constant_gives_zero(pipe65):
    sp = pipe65.space
    f = Field(sp, np.full(sp.n, 4.2))
    rf, rep = reconstruct(pipe65.stack, f)
    assert rep.converged
    assert np.max(np.abs(rf.values)) <= 1e-10


def test_reconstruct_linear(pipe65, rng):
    st = pipe65.stack
    sp = st.space
    f = Field(sp, st.apply(st.k_min + 3, rng.standard_normal(sp.n)))
    g = Field(sp, st.apply(st.k_min + 4, rng.standard_normal(sp.n)))
    combo = Field(sp, 2.0 * f.values - 0.5 * g.values)
    rf, _ = reconstruct(st, f, tol=1e-10, maxiter=400)
    rg, _ = reconstruct(st, g, tol=1e-10, maxiter=400)
    rc, _ = reconstruct(st, combo, tol=1e-10, maxiter=400)
    lhs = rc.values
    rhs = 2.0 * rf.values - 0.5 * rg.values
    scale = np.max(np.abs(lhs)) or 1.0
    assert np.max(np.abs(lhs - rhs)) / scale <= 1e-6


def test_reconstruct_point_mass_residual(pipe257):
    sp = pipe257.space
    v = np.zeros(sp.n)
    v[sp.n // 2] = 1.0
    f = Field(sp, v)
    rf, rep = reconstruct(pipe257.stack, f, tol=1e-2,
                          maxiter=400)
    assert rep.relative_residual <= 1e-2


def test_reconstruct_nonconvergence_raises(pipe65, rng):
    f = Field(pipe65.space,
              pipe65.stack.apply(pipe65.stack.k_min + 3,
                                 rng.standard_normal(pipe65.space.n)))
    with pytest.raises(IllConditionedFrameError):
        reconstruct(pipe65.stack, f, tol=1e-14, maxiter=2)


def test_analyze_j0_zero_samples_at_centers(grid65):
    from homspace import DyadicSpec, Pipeline
    pipe = Pipeline(grid65, DyadicSpec(j0=0))
    st, cubes = pipe.stack, pipe.cubes
    rng = np.random.default_rng(8)
    f = Field(grid65, rng.standard_normal(grid65.n))
    grid = analyze(st, f)
    for k in st.levels():
        g = st.apply(k, f.values)
        lc = grid.levels[k]
        centers = cubes.levels[k].centers
        assert np.array_equal(lc.y_index, centers)
        assert np.max(np.abs(lc.value - g[centers])) == 0.0


def test_frame_rayleigh_floor_on_band_limited(pipe65, rng):
    # power-iteration-style oracle: Rayleigh quotients of S on band-limited
    # probes stay above a positive floor
    st = pipe65.stack
    sp = st.space
    floor = np.inf
    for j in (st.k_min + 3, st.k_min + 4, st.k_min + 5):
        f = st.apply(j, rng.standard_normal(sp.n))
        sf = frame_operator(st, Field(sp, f)).values
        floor = min(floor, mu_dot(sp, sf, f) / mu_dot(sp, f, f))
    assert floor > 0.01
