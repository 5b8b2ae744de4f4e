import json
import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError

import a0_oracle
import numpy as np
import pytest

from homspace import (CertificationError, DifferenceTable, Field,
                      FormatError, MetricMeasureSpace, ParameterError,
                      difference_scales, generate_space, geometry_report,
                      load_space, save_space)
from homspace import space as space_mod
from homspace.lab import LabSpec
from homspace.space import (A0_EXHAUSTIVE_CAP, certify_a0,
                            default_radius_grid, load_space_document,
                            point_count, radius_grid_arg, space_to_document)


def test_grid1d_metric_a0_is_one():
    sp = generate_space("grid1d", size=3)
    assert sp.a0 == 1.0
    assert sp.a0_method == "exhaustive"
    assert sp.diam == 1.0


def test_snowflake_a0_two():
    # d(x,y) = |x-y|^2 on {0, 0.5, 1}: the triple (0, 0.5, 1) attains
    # 1 / (0.25 + 0.25) = 2
    sp = generate_space("snowflake_power", size=3, exponent=2.0)
    assert sp.a0 == pytest.approx(2.0, abs=1e-14)
    a0, method, triple = certify_a0(sp.dist)
    assert a0 == pytest.approx(2.0, abs=1e-14)
    assert sorted(triple) == [0, 1, 2]


def test_one_point_space_degenerate():
    sp = generate_space("circle", size=1)
    assert sp.n == 1 and sp.a0 == 1.0 and sp.diam == 0.0
    assert math.isinf(sp.min_gap)


def test_invalid_params():
    with pytest.raises(ParameterError):
        generate_space("grid1d", size=0)
    with pytest.raises(ParameterError):
        generate_space("snowflake_power", size=5, exponent=0.0)
    with pytest.raises(ParameterError):
        generate_space("warp", size=5)
    # parameters the kind would ignore
    for kw in (dict(level=2), dict(exponent=2.0)):
        with pytest.raises(ParameterError, match="would be ignored"):
            generate_space("grid1d", size=3, **kw)


def test_size_and_level_must_be_integers():
    for kw in (dict(size=17.5), dict(size=True), dict(size="17")):
        with pytest.raises(ParameterError, match="size must be an integer"):
            generate_space("grid1d", **kw)
    for level in (2.5, False):
        with pytest.raises(ParameterError, match="level must be an integer"):
            generate_space("sierpinski_level", level=level)
    assert generate_space("grid1d", size=17.0).n == 17
    assert (generate_space("sierpinski_level", level=np.int64(2)).n
            == generate_space("sierpinski_level", level=2).n)


def test_uniform_measure_normalized():
    sp = generate_space("grid2d", size=5)
    assert sp.total_mass == pytest.approx(1.0, rel=1e-15)


def test_weights_alone_set_the_measure():
    weights = [0.5, 2.0, 1.0, 3.0]
    for kind, extra in (("grid1d", {}), ("circle", {}), ("graph", {}),
                        ("snowflake_power", {"exponent": 2.0})):
        sp = generate_space(kind, size=4, weights=weights, **extra)
        assert sp.weight.tolist() == weights


@pytest.mark.parametrize("kind,sizes", [
    ("grid1d", (1, 6)), ("grid2d", (1, 5)), ("circle", (2, 7)),
    ("graph", (1, 9)), ("snowflake_power", (2, 6)),
    ("sierpinski_level", (0, 2))])
def test_point_count_is_the_built_spaces(kind, sizes):
    """The point count the weights are checked against, before any space
    is built, is the count of the space `generate_space` then builds."""
    for size in sizes:
        args = ({"level": size} if kind == "sierpinski_level" else
                {"size": size, "exponent": 2.0} if kind == "snowflake_power"
                else {"size": size})
        n = point_count(kind, args.get("size"), args.get("level"))
        assert generate_space(kind, **args).n == n
        assert generate_space(kind, weights=[2.0] * n, **args).n == n
        for bad in ([1.0] * (n + 1), [1.0] * (n - 1) + [0.0]):
            with pytest.raises(ParameterError, match="space.weights"):
                generate_space(kind, weights=bad, **args)


@pytest.mark.parametrize("a0", [math.nan, math.inf, "abc", [1.0], True, 0.5])
def test_declared_a0_is_checked_before_certification(monkeypatch, a0):
    def no_certify(*args, **kwargs):
        raise AssertionError("a0 was certified")

    monkeypatch.setattr(space_mod, "certify_a0", no_certify)
    with pytest.raises(ParameterError, match="a0 must be a finite number"):
        MetricMeasureSpace([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], a0=a0)


@pytest.mark.parametrize("dim", range(1, 8))
def test_euclidean_equals_the_summed_squares(dim):
    """Below 8 coordinates the one-coordinate-at-a-time table is bit for
    bit the sum over the (n, n, dim) table of squared differences."""
    points = np.random.default_rng(dim).uniform(-3.0, 3.0, (40, dim))
    diff = points[:, None, :] - points[None, :, :]
    want = np.sqrt(np.sum(diff * diff, axis=-1))
    assert np.array_equal(space_mod._euclidean(points), want)


def test_quasi_triangle_holds_exhaustively(grid65):
    d = grid65.dist
    n = grid65.n
    for j in range(n):
        denom = d[:, j][:, None] + d[j, :][None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denom > 0, d / denom, 0.0)
        assert ratio.max() <= grid65.a0 * (1 + 1e-12)


def test_ball_monotone(grid65):
    v1 = grid65.ball_measure(0.1)
    v2 = grid65.ball_measure(0.2)
    assert np.all(v2 >= v1)
    assert np.all(v1 > 0)


def test_v_table_matches_direct(grid65):
    # circle-64 has many exact distance ties: every point has two
    # neighbours at each distance
    for sp in (grid65, generate_space("circle", size=64)):
        v = sp.v_table()
        for x in range(sp.n):
            for y in range(sp.n):
                direct = sp.weight[sp.dist[x] < sp.dist[x, y]].sum()
                assert v[x, y] == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_v_table_is_ball_measure_bitwise(grid65):
    # both read the same prefix of the sorted ball index
    for sp in (grid65, generate_space("sierpinski_level", level=3)):
        v = sp.v_table()
        for x in range(sp.n):
            for y in range(sp.n):
                assert v[x, y] == sp.ball_measure(sp.dist[x, y])[x], (x, y)


def test_ends_match_per_radius_count():
    # both spaces have ties; radii unsorted, with 0, a negative value, a
    # stored distance and one above the diameter
    for sp in (generate_space("circle", size=64),
               generate_space("graph", size=63)):
        idx = sp.ball_index
        stored = float(sp.dist[0, 5])
        radii = [0.3, 0.0, stored, -1.0, 2 * sp.diam, sp.min_gap, 0.05]
        want = [np.count_nonzero(sp.dist < r, axis=1) - 1 for r in radii]
        assert np.array_equal(idx.ends(sp.dist, radii), np.asarray(want)), \
            sp.label
        assert idx.ends(sp.dist, []).shape == (0, sp.n)


@pytest.mark.parametrize("radius", [math.nan, None, "abc", "0.5", True,
                                    np.float64(math.nan)],
                         ids=["nan", "None", "abc", "numeric-str", "bool",
                              "np-nan"])
def test_ball_radius_must_be_a_real_number(radius):
    """Every radius enters through `BallIndex.ends`: a NaN or non-real one
    is refused, where it read as an all-zero measure or raised a bare
    ValueError; r <= 0 stays the empty ball and inf the whole space."""
    sp = generate_space("grid1d", size=9)
    with pytest.raises(ParameterError, match="radius"):
        sp.ball_measure(radius)
    with pytest.raises(ParameterError, match="radius"):
        sp.ball_index.ends(sp.dist, [0.5, radius])
    assert np.all(sp.ball_measure(-math.inf) == 0.0)
    assert np.array_equal(sp.ball_measure(math.inf),
                          sp.ball_index.weight_prefix[:, -1])


def test_ball_measure_edge_radii(grid65):
    sp = grid65
    assert np.all(sp.ball_measure(0.0) == 0.0)
    assert np.all(sp.ball_measure(-1.0) == 0.0)
    # d < min_gap holds only for the center itself
    assert np.array_equal(sp.ball_measure(sp.min_gap), sp.weight)
    assert np.allclose(sp.ball_measure(1.5 * sp.diam), sp.total_mass,
                       rtol=1e-14, atol=0.0)


def test_v_symmetry_ratio_reported(grid65):
    r = grid65.v_symmetry_ratio()
    assert 1.0 <= r < 10.0


GAP_SPACES = {
    "grid1d-2": dict(kind="grid1d", size=2),
    "grid1d-65": dict(kind="grid1d", size=65),
    "circle-64": dict(kind="circle", size=64),
    "graph-63": dict(kind="graph", size=63),
    "sierpinski-4": dict(kind="sierpinski_level", level=4),
    "grid2d-17": dict(kind="grid2d", size=17),
    "snowflake-129": dict(kind="snowflake_power", size=129, exponent=2.0),
    "circle-40-custom": dict(kind="circle", size=40,
                             weights=[1.0 + (i * 7) % 5 for i in range(40)]),
}


@pytest.mark.parametrize("name", sorted(GAP_SPACES))
def test_min_gap_and_v_ratio_match_whole_table_forms(name):
    """The masked minimum and the blocked V ratio equal the forms that
    built an n x n table: the distances plus inf on the diagonal, and
    V(x,y)/V(y,x) gathered over every off-diagonal pair."""
    sp = generate_space(**GAP_SPACES[name])
    off = ~np.eye(sp.n, dtype=bool)
    gap = float((sp.dist + np.where(~off, np.inf, 0.0)).min())
    v = sp.v_table()
    assert sp.min_gap == gap
    assert sp.v_symmetry_ratio() == float(np.max(v[off] / v.T[off]))


@pytest.mark.parametrize("kw", [dict(kind="grid1d", size=513),
                                dict(kind="graph", size=600)],
                         ids=["grid1d-513", "graph-600"])
def test_min_gap_and_v_ratio_peak_memory(kw):
    """Neither value holds a float n x n temporary: each peak stays below
    half of one distance table (the whole-table forms took about two)."""
    sp = generate_space(**kw)
    sp.v_table()
    bound = sp.dist.nbytes // 2
    for read in (lambda: sp.min_gap, sp.v_symmetry_ratio):
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


@pytest.mark.parametrize("kw", [dict(kind="grid1d", size=513),
                                dict(kind="sierpinski_level", level=5)],
                         ids=["grid1d-513", "sierpinski-5"])
def test_ball_index_and_v_table_peak_memory(kw):
    """In units of one distance table: the ball index holds its order, its
    weight prefix sums and its group ends (2.125; with a sorted copy of the
    distances it held 3.125), none of them a view of `dist`; its build
    peaks below 2.5 (4.13 with that copy), `v_table` on top of it below 4.5
    (6.16 with a where-table and a running-max table besides), and one
    stack of difference rows below 1.5 (2.0 with an n x n weight gather)."""
    sp = generate_space(**kw)
    unit = sp.dist.nbytes
    tracemalloc.start()
    try:
        idx = sp.ball_index
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sp.v_table()
        v_table = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(a.nbytes for a in idx) <= 2.2 * unit
    assert not any(np.shares_memory(a, sp.dist) for a in idx)
    assert build < 2.5 * unit
    assert v_table < 4.5 * unit
    f = Field(sp, np.random.default_rng(0).standard_normal(sp.n))
    table = DifferenceTable(f, difference_scales(sp, 1.0, 0.5))
    tracemalloc.start()
    try:
        table.rows(2.0)
        rows = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows < 1.5 * unit


@pytest.mark.parametrize("kw", [dict(kind="grid2d", size=9),
                                dict(kind="circle", size=64),
                                dict(kind="sierpinski_level", level=3),
                                dict(kind="grid1d", size=513)],
                         ids=["grid2d-9", "circle-64", "sierpinski-3",
                              "grid1d-513"])
def test_ball_index_keeps_one_rank_major_order(kw):
    """The ball index stores its order once, rank-major: ``order`` is a
    view of ``by_rank`` and the stable argsort of each row (at n = 513 the
    in-place transpose runs over several tiles, the last one short), the
    maximal operator's index hands out that very table, and every stored
    table is C-contiguous and read-only."""
    sp = generate_space(**kw)
    idx = sp.ball_index
    assert sp.group_ends[3] is idx.by_rank
    assert np.shares_memory(idx.order, idx.by_rank)
    assert np.array_equal(idx.order,
                          np.argsort(sp.dist, axis=1, kind="stable"))
    for a in (idx.by_rank, idx.weight_prefix, idx.group_end):
        assert a.flags.c_contiguous and not a.flags.writeable


def test_ball_tables_are_read_only():
    """Every array of the ball index, of the group ends and the V table
    refuses writes, on a space with tied distances."""
    sp = generate_space("circle", size=64)
    for a in (*sp.ball_index, *sp.group_ends, sp.v_table()):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[-1]


def test_geometry_single_point():
    sp = generate_space("circle", size=1)
    rep = geometry_report(sp, [0.5])
    assert rep.c_mu == 1.0 and rep.omega == 0.0


def test_geometry_grid1d_band(grid257):
    # dyadic radii above the quantization scale; boundary effects push the
    # doubling ratio slightly above 2
    rep = geometry_report(grid257, default_radius_grid(grid257))
    assert 1.0 <= rep.omega <= 1.25
    assert rep.q_global == pytest.approx(1.0, abs=0.1)
    assert rep.q_global <= rep.omega + 0.25
    assert rep.c_global is not None and rep.c_global > 0


def test_geometry_grid2d_band():
    sp = generate_space("grid2d", size=33)
    rep = geometry_report(sp, default_radius_grid(sp))
    assert 2.0 <= rep.omega <= 2.4
    assert rep.q_global == pytest.approx(2.0, abs=0.35)


def test_geometry_deterministic(grid65):
    grid = default_radius_grid(grid65)
    a = geometry_report(grid65, grid)
    b = geometry_report(grid65, grid)
    assert a == b


def test_geometry_reverse_doubling(grid65):
    rep = geometry_report(grid65, default_radius_grid(grid65),
                          fit_reverse=True)
    assert rep.kappa is not None
    assert 0.0 <= rep.kappa <= rep.omega + 0.25


def test_radius_grid_rejects_bad(grid65):
    with pytest.raises(ParameterError):
        geometry_report(grid65, [])
    with pytest.raises(ParameterError):
        geometry_report(grid65, [0.2, 0.1])


@pytest.mark.parametrize("grid", ["123", {0.1: 1, 0.2: 2}, [True, 2],
                                  [0.1, "0.2"]])
def test_radius_grid_entries_are_real_numbers(grid65, grid):
    """A radius grid is a sequence of real numbers: a string, a mapping or
    an entry that is a bool or a string is refused, by the geometry report
    and by the lab spec alike."""
    with pytest.raises(ParameterError, match="radius_grid"):
        radius_grid_arg(grid)
    with pytest.raises(ParameterError, match="radius_grid"):
        geometry_report(grid65, grid)
    with pytest.raises(ParameterError, match="radius_grid"):
        LabSpec(radius_grid=grid)


def test_lab_spec_keeps_the_checked_radius_grid():
    spec = LabSpec(radius_grid=(1, 2.5))
    assert spec.radius_grid == [1.0, 2.5]
    assert all(type(r) is float for r in spec.radius_grid)


# -- document I/O ------------------------------------------------------------

def test_document_roundtrip(tmp_path, grid65):
    path = tmp_path / "space.json"
    save_space(grid65, str(path))
    back = load_space(str(path))
    assert np.array_equal(back.dist, grid65.dist)
    assert np.array_equal(back.weight, grid65.weight)
    assert back.a0 == grid65.a0


def test_two_point_document_valid():
    sp = load_space_document({"n": 2, "dist": [1.0], "weights": [1.0, 1.0]})
    assert sp.n == 2 and sp.a0 == 1.0


def test_asymmetric_document_rejected():
    doc = {"n": 2, "dist": [[0.0, 1.0], [2.0, 0.0]], "weights": [1.0, 1.0]}
    with pytest.raises(FormatError, match="asymmetric"):
        load_space_document(doc)


def test_triangle_length_mismatch_rejected():
    # a short triangle used to escape as an IndexError
    for tri in ([1.0], [1.0, 1.0, 1.0, 1.0]):
        with pytest.raises(FormatError, match="lower-triangle length"):
            load_space_document({"n": 3, "dist": tri,
                                 "weights": [1.0, 1.0, 1.0]})


@pytest.mark.parametrize("n", [2.7, True, "2", 0])
def test_document_point_count_is_never_truncated(n):
    # "n": 2.7 used to load as a 2-point space and "n": true as a 1-point one
    with pytest.raises(FormatError, match="n must be an integer"):
        load_space_document({"n": n, "dist": [1.0], "weights": [1.0, 1.0]})


def test_document_points_must_match_n():
    # with dist given, a 3-row points array used to be kept for n = 2
    for extra in ({"dist": [1.0]}, {}):
        with pytest.raises(FormatError, match="points must be 2"):
            load_space_document({"n": 2, "weights": [1.0, 1.0],
                                 "points": [[0.0], [1.0], [2.0]], **extra})
    sp = load_space_document({"n": 2, "weights": [1.0, 1.0], "dist": [1.0],
                              "points": [0.0, 1.0]})
    assert sp.points.tolist() == [0.0, 1.0]


def test_bad_weight_rejected():
    with pytest.raises(FormatError, match="not positive"):
        load_space_document({"n": 2, "dist": [1.0], "weights": [1.0, 0.0]})


def test_declared_a0_violation_names_triple():
    snow = generate_space("snowflake_power", size=3, exponent=2.0)
    doc = space_to_document(snow)
    doc["a0"] = 1.0
    with pytest.raises(CertificationError) as err:
        load_space_document(doc)
    assert sorted(err.value.triple) == [0, 1, 2]


def test_document_float_roundtrip_exact(tmp_path):
    sp = generate_space("grid1d", size=7,
                        weights=[0.1, 0.2, 0.3, 0.1, 0.1, 0.1, 0.1])
    path = tmp_path / "s.json"
    save_space(sp, str(path))
    with open(path) as fh:
        doc = json.load(fh)
    back = load_space_document(doc)
    assert np.array_equal(back.weight, sp.weight)
    assert np.array_equal(back.dist, sp.dist)


def test_non_numeric_weights_and_radii_raise_library_errors(grid65):
    with pytest.raises(FormatError, match="weights"):
        generate_space("grid1d", size=3, weights=["x", 1, 1])
    with pytest.raises(FormatError, match="weights"):
        MetricMeasureSpace(grid65.dist, [[1.0], [1.0, 2.0]] * 32 + [[1.0]])
    with pytest.raises(ParameterError, match="radius_grid"):
        geometry_report(grid65, ["x"])


@pytest.mark.parametrize("doc,what", [
    ({"n": 2, "weights": ["0.5", "0.5"], "dist": [1.0]}, "weights"),
    ({"n": 2, "weights": [0.5, 0.5], "dist": ["1"]}, "distances"),
    ({"n": 2, "weights": [True, True], "dist": [1.0]}, "weights"),
    ({"n": 2, "weights": [0.5, 0.5], "dist": [True]}, "distances"),
    ({"n": 2, "weights": [0.5, 0.5], "points": [None, 1.0]}, "points"),
    ({"n": 2, "weights": [0.5, 0.5], "dist": [1.0], "points": [0.0, None]},
     "points"),
], ids=["string-weights", "string-dist", "bool-weights", "bool-dist",
        "null-point", "null-point-with-dist"])
def test_documents_refuse_entries_that_are_not_numbers(doc, what):
    # strings and booleans were parsed as numbers, and a null point loaded
    # as NaN
    with pytest.raises(FormatError, match=f"{what} must be numbers"):
        load_space_document(doc)


@pytest.mark.parametrize("label", [[1, 2], 3, None, {"name": "x"}],
                         ids=["list", "integer", "null", "object"])
def test_documents_refuse_a_label_that_is_not_a_string(label):
    # a list loaded and was kept as the space's label
    doc = {"n": 2, "weights": [1, 1], "dist": [1], "label": label}
    with pytest.raises(FormatError, match="label must be a string"):
        load_space_document(doc)
    doc["label"] = "pair"
    assert load_space_document(doc).label == "pair"


@pytest.mark.parametrize("a0", ["2", True, 0.5, float("inf")],
                         ids=["string", "boolean", "below-1", "infinite"])
def test_document_a0_faults_are_format_errors(a0):
    # the constructor's ParameterError escaped, where every other fault of
    # a document raises FormatError
    doc = {"n": 2, "weights": [1, 1], "dist": [1], "a0": a0}
    with pytest.raises(FormatError, match="a0 must be a finite number"):
        load_space_document(doc)


def test_documents_and_spaces_take_integers():
    sp = load_space_document({"n": 2, "weights": [1, 3], "dist": [2],
                              "points": [0, 2]})
    assert sp.weight.tolist() == [1.0, 3.0] and sp.dist[0, 1] == 2.0
    assert sp.points.dtype == float and sp.points.tolist() == [0.0, 2.0]
    assert generate_space("grid1d", size=3, weights=[1, 2, 3]).weight.tolist() \
        == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("bad", [dict(weight=["1", "1"]),
                                 dict(weight=[True, True]),
                                 dict(dist=[[0, "1"], ["1", 0]]),
                                 dict(points=[None, 1.0])],
                         ids=["string-weights", "bool-weights", "string-dist",
                              "null-point"])
def test_space_refuses_entries_that_are_not_numbers(bad):
    args = {"dist": [[0.0, 1.0], [1.0, 0.0]], "weight": [1.0, 1.0], **bad}
    with pytest.raises(FormatError, match="must be numbers"):
        MetricMeasureSpace(**args)


@pytest.mark.parametrize("weights", [["1", "1", "1"], [True] * 3],
                         ids=["strings", "booleans"])
def test_space_weights_refuse_entries_that_are_not_numbers(weights):
    with pytest.raises(FormatError, match="space.weights must be numbers"):
        generate_space("grid1d", size=3, weights=weights)


def test_sampled_certification_flag(monkeypatch):
    monkeypatch.setattr(space_mod, "A0_EXHAUSTIVE_CAP", 128)
    sp = generate_space("grid1d", size=600)
    assert sp.a0_method == "sampled"
    assert sp.a0 == pytest.approx(1.0, abs=1e-12)


A0_ORACLE_SPACES = {
    "snowflake2-3": dict(kind="snowflake_power", size=3, exponent=2.0),
    "snowflake2-257": dict(kind="snowflake_power", size=257, exponent=2.0),
    "snowflake2-513": dict(kind="snowflake_power", size=513, exponent=2.0),
    "snowflake1.5-129": dict(kind="snowflake_power", size=129, exponent=1.5),
    "sierpinski-5": dict(kind="sierpinski_level", level=5),
    "circle-256": dict(kind="circle", size=256),
    "graph-127": dict(kind="graph", size=127),
    "grid2d-17": dict(kind="grid2d", size=17),
    "grid1d-513": dict(kind="grid1d", size=513),
}


def _random_quasi_metric(n, seed, levels=None):
    """Symmetric table, zero diagonal, positive elsewhere; cubed uniform
    entries break the triangle inequality, few integer levels force ties."""
    rng = np.random.default_rng(seed)
    if levels is None:
        m = rng.uniform(0.1, 1.0, (n, n)) ** 3
    else:
        m = rng.integers(1, levels + 1, (n, n)).astype(float)
    m = np.triu(m, 1)
    return m + m.T


@pytest.mark.parametrize("hub", [0, 70, 129])
def test_certify_a0_hub_middle_point(hub):
    # every pair's cheapest detour runs through the hub, so a sweep that
    # skips any middle point y misses the worst triple when y is the hub
    d = _random_quasi_metric(130, seed=hub) + 1.0
    d[hub] = d[:, hub] = np.random.default_rng(hub).uniform(0.01, 0.1, 130)
    np.fill_diagonal(d, 0.0)
    got = certify_a0(d)
    assert got[2][1] == hub
    assert got == a0_oracle.certify_a0(d, cap=130)


@pytest.mark.parametrize("name", sorted(A0_ORACLE_SPACES))
def test_certify_a0_matches_frozen_oracle(name):
    d = generate_space(**A0_ORACLE_SPACES[name]).dist
    got = certify_a0(d)
    assert got[1] == "exhaustive"
    assert got == a0_oracle.certify_a0(d, cap=A0_EXHAUSTIVE_CAP)


@pytest.mark.parametrize("n,levels", [(65, None), (150, None), (97, 3)])
def test_certify_a0_random_quasi_metric_matches_oracle(n, levels):
    d = _random_quasi_metric(n, seed=n, levels=levels)
    got = certify_a0(d)
    assert got[0] > 1.0 and got[1] == "exhaustive"
    assert got == a0_oracle.certify_a0(d, cap=n)


def test_certify_a0_sampled_matches_oracle():
    d = generate_space("grid1d", size=600).dist
    assert certify_a0(d, cap=128) == a0_oracle.certify_a0(d, cap=128)
    sp = generate_space("grid2d", size=33)
    assert sp.n > A0_EXHAUSTIVE_CAP and sp.a0_method == "sampled"
    want = a0_oracle.certify_a0(sp.dist)
    assert (sp.a0, sp.a0_method) == want[:2]
    assert certify_a0(sp.dist) == want


@pytest.mark.parametrize("name", ["grid1d-1100", "snowflake2-257"])
def test_certify_a0_sampled_sub_blocks_match_oracle(name):
    """A sample count that is a multiple of neither the draw chunk nor the
    sub-block, on a grid with many tied ratios and on a snowflake whose
    a0 = 2 is attained by many triples, gives the oracle's first worst
    triple."""
    if name == "grid1d-1100":
        dist = space_mod._euclidean(space_mod._grid1d_points(1100))
        cap = A0_EXHAUSTIVE_CAP
    else:
        dist = generate_space("snowflake_power", size=257, exponent=2.0).dist
        cap = 128
    samples = 2_345_678
    assert samples % 1_000_000 and samples % space_mod.A0_SAMPLE_BLOCK
    for seed in (0, 4):
        got = certify_a0(dist, cap=cap, samples=samples, seed=seed)
        assert got[1] == "sampled"
        assert got == a0_oracle.certify_a0(dist, cap=cap, samples=samples,
                                           seed=seed)


def test_sampled_a0_peak_memory():
    """The sample holds one chunk of int32 triples at a time and reads it
    in sub-blocks, about 14 MB; int64 draws and whole-chunk index and value
    arrays took about 69 MB on grid2d-33."""
    d = space_mod._euclidean(space_mod._grid2d_points(33))
    tracemalloc.start()
    try:
        got = certify_a0(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[1] == "sampled"
    assert peak < 20 * 2 ** 20


def test_certify_a0_names_the_first_nonpositive_distance():
    """The first offending pair in row-major order, as d + I <= 0 found it,
    for zero and negative off-diagonal entries."""
    good = _random_quasi_metric(40, seed=2)
    for pairs in ([(3, 17)], [(5, 9), (2, 30)], [(0, 39), (0, 1)]):
        d = good.copy()
        for value, (i, j) in zip((0.0, -0.5), pairs):
            d[i, j] = d[j, i] = value
        i, j = np.argwhere(d + np.eye(40) <= 0)[0]
        with pytest.raises(FormatError, match=re.escape(
                f"dist({i},{j}) is not positive for distinct points")):
            certify_a0(d)


def test_certify_a0_cap_boundary(monkeypatch):
    snow = generate_space("snowflake_power", size=40, exponent=2.0).dist
    assert certify_a0(snow, cap=40)[1] == "exhaustive"
    sampled = certify_a0(snow, cap=39, samples=5000, seed=3)
    assert sampled[1] == "sampled"
    assert sampled == a0_oracle.certify_a0(snow, cap=39, samples=5000, seed=3)
    monkeypatch.setattr(space_mod, "A0_EXHAUSTIVE_CAP", 9)
    assert generate_space("grid1d", size=9).a0_method == "exhaustive"


def test_certify_a0_rejects_bad_tables():
    good = generate_space("circle", size=6).dist
    bad = {"asymmetric": good + np.triu(np.full((6, 6), 0.1), 1),
           "nonzero": good + 0.5 * np.eye(6),
           "not positive": np.where(good == good[0, 1], 0.0, good),
           "finite": np.where(good == good[0, 3], np.inf, good)}
    for match, d in bad.items():
        with pytest.raises(FormatError, match=match):
            certify_a0(d)
        with pytest.raises(FormatError, match=match):
            MetricMeasureSpace(d, np.ones(6))
    with pytest.raises(FormatError, match="weights must be finite"):
        MetricMeasureSpace(good, np.full(6, np.nan))


def test_declared_a0_violation_names_oracle_triple():
    snow = generate_space("snowflake_power", size=129, exponent=1.5)
    doc = space_to_document(snow)
    doc["a0"] = 1.2
    with pytest.raises(CertificationError) as err:
        load_space_document(doc)
    a0, _, triple = a0_oracle.certify_a0(snow.dist, cap=129)
    assert err.value.triple == triple
    assert f"triple {triple} attains ratio {a0:.12g}" in str(err.value)


@pytest.fixture()
def a0_calls(monkeypatch):
    """The arguments and result of every `space.certify_a0` call made while
    a test runs, with ``A0_EXHAUSTIVE_CAP`` lowered to 4 points."""
    calls = []

    def counted(*args, _fn=space_mod.certify_a0, **kwargs):
        result = _fn(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(space_mod, "certify_a0", counted)
    monkeypatch.setattr(space_mod, "A0_EXHAUSTIVE_CAP", 4)
    return calls


@pytest.mark.parametrize("cap", [4, A0_EXHAUSTIVE_CAP],
                         ids=["above-cap", "below-cap"])
@pytest.mark.parametrize("seed", [None, True, [1], "x", 1.5, -1])
def test_a0_seed_is_checked_when_the_space_is_built(monkeypatch, seed, cap):
    """A seed that is not an integer >= 0 raises before any a0 work, on
    either side of the cap, where it was taken (None drawing from OS
    entropy), raised TypeError or ValueError, or was ignored."""
    grid = generate_space("grid1d", size=9)
    doc = space_to_document(grid)
    del doc["a0"]

    def no_certify(*args, **kwargs):
        raise AssertionError("a0 was certified")

    monkeypatch.setattr(space_mod, "certify_a0", no_certify)
    monkeypatch.setattr(space_mod, "A0_EXHAUSTIVE_CAP", cap)
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        MetricMeasureSpace(grid.dist, grid.weight, seed=seed)
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        load_space_document(doc, seed=seed)


def test_sampled_a0_is_not_drawn_when_the_space_is_built(a0_calls):
    sp = generate_space("snowflake_power", size=9, exponent=2.0, seed=5)
    assert sp.n > space_mod.A0_EXHAUSTIVE_CAP
    assert sp.a0_method == "sampled" and a0_calls == []
    # the exhaustive sweep is still eager below the cap
    assert generate_space("grid1d", size=4).a0_method == "exhaustive"
    assert len(a0_calls) == 1


def test_sampled_a0_is_drawn_once_on_first_read(monkeypatch, a0_calls):
    sp = generate_space("snowflake_power", size=9, exponent=2.0, seed=5)
    monkeypatch.setattr(space_mod, "A0_EXHAUSTIVE_CAP", A0_EXHAUSTIVE_CAP)
    want = a0_oracle.certify_a0(sp.dist, cap=4, seed=5)
    assert sp.a0 == want[0] and a0_calls != []
    (args, kwargs, result), = a0_calls
    assert args[0] is sp.dist and kwargs["seed"] == 5
    # the method chosen at construction, though the cap is now above n
    assert result == want and sp.a0_method == "sampled"
    assert sp.a0 == want[0] and len(a0_calls) == 1


def test_deferred_a0_space_still_checks_at_construction(a0_calls):
    snow = generate_space("snowflake_power", size=9, exponent=2.0)
    with pytest.raises(CertificationError) as err:
        MetricMeasureSpace(snow.dist, snow.weight, a0=1.5)
    assert err.value.triple == a0_oracle.certify_a0(snow.dist, cap=4)[2]
    assert [call[2][1] for call in a0_calls] == ["sampled"]
    bad = snow.dist + np.triu(np.full((9, 9), 0.1), 1)
    with pytest.raises(FormatError, match="asymmetric"):
        MetricMeasureSpace(bad, snow.weight)
    assert len(a0_calls) == 1


def test_deferred_a0_cannot_be_rebound_and_is_saved(a0_calls):
    sp = generate_space("snowflake_power", size=9, exponent=2.0, seed=5)
    docs = []
    for _ in range(2):  # before and after the first read
        with pytest.raises(FrozenInstanceError):
            sp.a0 = 2.0
        with pytest.raises(FrozenInstanceError):
            del sp.a0
        docs.append(space_to_document(sp))
    want = a0_oracle.certify_a0(sp.dist, cap=4, seed=5)[0]
    assert docs[0]["a0"] == docs[1]["a0"] == want
    assert len(a0_calls) == 1


def test_binary_tree_space():
    sp = generate_space("graph", size=31)
    assert sp.diam == 1.0
    assert sp.a0 == 1.0  # shortest-path metrics are metrics


def test_sierpinski_point_count():
    # level L gasket has 3(3^L + 1)/2 distinct vertices
    sp = generate_space("sierpinski_level", level=3)
    assert sp.n == 3 * (3 ** 3 + 1) // 2


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, deadline=None)
@given(a=st.floats(min_value=1.1, max_value=2.0))
def test_snowflake_a0_formula_property(a):
    # on a grid with midpoints, the worst triple is (x, midpoint, z) and the
    # quasi-triangle constant of d = |x-y|^a is exactly 2^(a-1)
    sp = generate_space("snowflake_power", size=9, exponent=a)
    assert sp.a0 == pytest.approx(2.0 ** (a - 1.0), rel=1e-12)
