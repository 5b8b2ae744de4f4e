import json
import math

import a0_oracle
import numpy as np
import pytest

from homspace import (CertificationError, FormatError, ParameterError,
                      generate_space, geometry_report, load_space, save_space)
from homspace.space import (A0_EXHAUSTIVE_CAP, certify_a0,
                            default_radius_grid, load_space_document,
                            space_to_document)


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


def test_uniform_measure_normalized():
    sp = generate_space("grid2d", size=5)
    assert sp.total_mass == pytest.approx(1.0, rel=1e-15)


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
        assert np.array_equal(idx.ends(radii), np.asarray(want)), sp.label
        assert idx.ends([]).shape == (0, sp.n)


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
    sp = generate_space("grid1d", size=7, measure="custom",
                        weights=[0.1, 0.2, 0.3, 0.1, 0.1, 0.1, 0.1])
    path = tmp_path / "s.json"
    save_space(sp, str(path))
    with open(path) as fh:
        doc = json.load(fh)
    back = load_space_document(doc)
    assert np.array_equal(back.weight, sp.weight)
    assert np.array_equal(back.dist, sp.dist)


def test_sampled_certification_flag():
    sp = generate_space("grid1d", size=600, a0_cap=128)
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


def test_certify_a0_cap_boundary():
    snow = generate_space("snowflake_power", size=40, exponent=2.0).dist
    assert certify_a0(snow, cap=40)[1] == "exhaustive"
    sampled = certify_a0(snow, cap=39, samples=5000, seed=3)
    assert sampled[1] == "sampled"
    assert sampled == a0_oracle.certify_a0(snow, cap=39, samples=5000, seed=3)
    assert generate_space("grid1d", size=9, a0_cap=9).a0_method == "exhaustive"


def test_certify_a0_rejects_bad_tables():
    good = generate_space("circle", size=6).dist
    bad = {"asymmetric": good + np.triu(np.full((6, 6), 0.1), 1),
           "nonzero": good + 0.5 * np.eye(6),
           "not positive": np.where(good == good[0, 1], 0.0, good),
           "finite": np.where(good == good[0, 3], np.inf, good)}
    for match, d in bad.items():
        with pytest.raises(FormatError, match=match):
            certify_a0(d)


def test_declared_a0_violation_names_oracle_triple():
    snow = generate_space("snowflake_power", size=129, exponent=1.5)
    doc = space_to_document(snow)
    doc["a0"] = 1.2
    with pytest.raises(CertificationError) as err:
        load_space_document(doc)
    a0, _, triple = a0_oracle.certify_a0(snow.dist, cap=129)
    assert err.value.triple == triple
    assert f"triple {triple} attains ratio {a0:.12g}" in str(err.value)


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
