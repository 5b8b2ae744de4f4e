import dataclasses
import math

import difference_oracle
import dyadic_oracle
import numpy as np
import pytest

from homspace import (FormatError, KernelSpec, MetricMeasureSpace,
                      ParameterError, Pipeline, RangeError, build_cubes,
                      build_nets, generate_space, refine_subcubes,
                      verify_cubes)
from homspace import dyadic
from homspace.difference import natural_k_window
from homspace.dyadic import cube_dump, cubes_from_dump
from homspace.pipeline import default_level_range
from homspace.space import SpaceSpec


def test_one_point_nets():
    sp = generate_space("circle", size=1)
    nets = build_nets(sp, 0.5, (0, 3))
    assert all(len(nets.nets[k]) == 1 for k in nets.levels())
    assert math.isinf(nets.c0)
    assert nets.big_c0 == 0.0


def test_delta_out_of_range(grid65):
    with pytest.raises(ParameterError):
        build_nets(grid65, 1.5, (0, 2))


def test_dyadic_arguments_are_checked_before_any_work():
    """delta >= 1 would loop in the level range; the pipeline's spec
    rejects it first."""
    from homspace import DyadicSpec, Pipeline
    sp = generate_space("grid1d", size=17)
    for kw in (dict(delta=2.0), dict(delta=1.0)):
        with pytest.raises(ParameterError):
            Pipeline(sp, DyadicSpec(**kw))


def test_net_nestedness_and_sizes(grid257):
    nets = build_nets(grid257, 0.5, (0, 8))
    for k in range(0, 8):
        prev, cur = nets.nets[k], nets.nets[k + 1]
        assert np.array_equal(cur[:len(prev)], prev)
    # separation >= sigma delta^k and covering < delta^k by construction
    assert nets.c0 >= 0.5
    assert nets.big_c0 <= 1.0
    for k in range(0, 9):
        size = len(nets.nets[k])
        assert 2 ** (k - 1) <= size <= 2 ** (k + 1) + 1


def test_saturation_at_fine_levels(grid65):
    # delta^k below the grid gap forces the net to contain every point
    nets = build_nets(grid65, 0.5, (0, 9))
    assert len(nets.nets[9]) == grid65.n


def test_strict_mode_rejects_coarse_delta(grid65):
    with pytest.raises(ParameterError, match="strict"):
        build_nets(grid65, 0.5, (0, 5), strict=True)


def test_cube_axioms_grid(grid257):
    nets = build_nets(grid257, 0.5, (0, 9))
    cubes = build_cubes(nets, grid257)
    ver = verify_cubes(cubes)
    assert ver.partition_pass and ver.nesting_pass and ver.center_pass
    assert not ver.failures


def test_coarsest_single_cube():
    sp = generate_space("grid1d", size=33)
    nets = build_nets(sp, 0.5, (-1, 5))
    cubes = build_cubes(nets, sp)
    lv = cubes.levels[-1]
    assert len(lv.centers) == 1
    ver = verify_cubes(cubes)
    s = ver.sandwich[-1]
    assert s.r_out[0] == pytest.approx(sp.diam / 0.5 ** -1)


def test_interior_inradius_floor(grid257):
    nets = build_nets(grid257, 0.5, (0, 9))
    cubes = build_cubes(nets, grid257)
    ver = verify_cubes(cubes)
    lo, hi = dyadic_oracle.interior_bounds(ver)
    assert lo >= 0.2
    assert hi <= 4.0


def test_refine_subcubes_identity_at_j0_zero(grid65, pipe65):
    nets = build_nets(grid65, 0.5, (0, 6))
    cubes = build_cubes(nets, grid65)
    ref = refine_subcubes(cubes, 0)
    for k, table in ref.subcubes.items():
        lv = cubes.levels[k]
        assert list(table.alpha) == list(range(len(lv.centers)))
        for i, alpha in enumerate(table.alpha):
            assert table.m[i] == 0
            assert table.y[i] == lv.centers[alpha]
            assert np.array_equal(np.nonzero(table.sub_assign == i)[0],
                                  dyadic_oracle.members(lv)[alpha])


def test_refine_subcube_counts(grid257):
    # N(k, alpha) <= C delta^(-j0 omega); with j0 = 2 and omega ~ 1 the
    # boundary-aware nets give a measured max of 11 on this grid (frozen)
    nets = build_nets(grid257, 0.5, (0, 9))
    cubes = refine_subcubes(build_cubes(nets, grid257), 2)
    interior_levels = range(1, 7)
    worst = 0
    for k in interior_levels:
        table = cubes.subcubes[k]
        for alpha in range(len(cubes.levels[k].centers)):
            worst = max(worst, int(np.sum(table.alpha == alpha)))
    assert worst <= 12
    ver = verify_cubes(cubes)
    assert ver.subcube_pass
    assert ver.max_subcubes <= 12


def test_refine_range_error(grid65):
    nets = build_nets(grid65, 0.5, (0, 3))
    cubes = build_cubes(nets, grid65)
    with pytest.raises(RangeError):
        refine_subcubes(cubes, 9)


def test_levels_must_be_integers(grid65):
    for k_range in ((0, 6.7), (0.5, 6), (False, 6)):
        with pytest.raises(ParameterError, match="k_range"):
            build_nets(grid65, 0.5, k_range)
    assert build_nets(grid65, 0.5, (0.0, 6.0)).k_max == 6
    cubes = build_cubes(build_nets(grid65, 0.5, (0, 6)), grid65)
    for j0 in (1.5, True):
        with pytest.raises(ParameterError, match="j0"):
            refine_subcubes(cubes, j0)
    assert refine_subcubes(cubes, 2.0).j0 == 2


def test_sampler_changes_samples_only(grid65):
    nets = build_nets(grid65, 0.5, (0, 6))
    cubes = build_cubes(nets, grid65)
    a = refine_subcubes(cubes, 2, sampler="center")
    b = refine_subcubes(cubes, 2, sampler="seeded_random", seed=3)
    for k in a.subcubes:
        ta, tb = a.subcubes[k], b.subcubes[k]
        assert np.array_equal(ta.alpha, tb.alpha)
        assert np.array_equal(ta.m, tb.m)
        assert np.array_equal(ta.sub_assign, tb.sub_assign)
        for i in range(len(ta.alpha)):
            mem = np.nonzero(tb.sub_assign == i)[0]
            assert ta.weight[i] == tb.weight[i]
            assert ta.y[i] in mem and tb.y[i] in mem


def test_integral_float_seeds_give_the_int_results():
    """A seed given as an integral float is kept as the int its check
    returns, so it draws what the int draws."""
    sp = generate_space("grid1d", size=33)
    cubes = build_cubes(build_nets(sp, 0.5, (0, 5)), sp)
    a = refine_subcubes(cubes, 2, sampler="seeded_random", seed=3)
    b = refine_subcubes(cubes, 2, sampler="seeded_random", seed=3.0)
    pa, pb = (Pipeline(sp, dyadic.DyadicSpec(sampler="seeded_random",
                                             seed=seed)).cubes
              for seed in (3, 3.0))
    for x, y in ((a, b), (pa, pb)):
        assert x.subcubes.keys() == y.subcubes.keys()
        assert all(np.array_equal(x.subcubes[k].y, y.subcubes[k].y)
                   for k in x.subcubes)
    assert type(dyadic.DyadicSpec(seed=3.0).seed) is int
    spec = SpaceSpec(seed=3.0)
    assert spec.seed == 3 and type(spec.seed) is int


def test_determinism_bitwise(grid65):
    a = build_cubes(build_nets(grid65, 0.5, (0, 6)), grid65)
    b = build_cubes(build_nets(grid65, 0.5, (0, 6)), grid65)
    for k in a.levels:
        assert np.array_equal(a.levels[k].centers, b.levels[k].centers)
        assert np.array_equal(a.levels[k].assign, b.levels[k].assign)


def test_refpoints_are_new_centers(grid65):
    nets = build_nets(grid65, 0.5, (0, 6))
    cubes = build_cubes(nets, grid65)
    for k in range(0, 6):
        ref = cubes.refpoints(k)
        prev = set(nets.nets[k].tolist())
        cur = set(nets.nets[k + 1].tolist())
        assert set(ref.tolist()) == cur - prev
    d = cubes.refpoint_distance(3)
    assert d.shape == (grid65.n,)
    assert np.all(d >= 0)


def test_mass_bracketing(grid65):
    nets = build_nets(grid65, 0.5, (0, 6))
    cubes = refine_subcubes(build_cubes(nets, grid65), 2)
    w = grid65.weight
    for k, table in cubes.subcubes.items():
        for alpha, mem in enumerate(dyadic_oracle.members(cubes.levels[k])):
            total = w[mem].sum()
            rows = np.nonzero(table.alpha == alpha)[0]
            masses = [w[np.nonzero(table.sub_assign == i)[0]].sum()
                      for i in rows]
            assert masses == list(table.weight[rows])
            n = len(rows)
            assert n * min(masses) <= total * (1 + 1e-12)
            assert total <= n * max(masses) * (1 + 1e-12)


def test_dump_roundtrip_and_tamper(grid65):
    nets = build_nets(grid65, 0.5, (0, 5))
    cubes = build_cubes(nets, grid65)
    doc = cube_dump(cubes)
    back = cubes_from_dump(doc, grid65)
    assert verify_cubes(back).passed

    # plant a defect: move one point across a cube boundary at level 2
    rec = doc["levels"]["2"]
    donor = next(i for i, m in enumerate(rec["members"]) if len(m) > 1)
    receiver = (donor + 1) % len(rec["members"])
    pt = [p for p in rec["members"][donor]
          if p != rec["centers"][donor]][0]
    rec["members"][donor] = [p for p in rec["members"][donor] if p != pt]
    rec["members"][receiver] = rec["members"][receiver] + [pt]
    ver = verify_cubes(cubes_from_dump(doc, grid65))
    assert not ver.passed
    assert any(str(pt) in msg for msg in ver.failures)


def test_grid2d_outradius_band():
    sp = generate_space("grid2d", size=33)
    nets = build_nets(sp, 0.5, (0, 6))
    ver = verify_cubes(build_cubes(nets, sp))
    for k, s in ver.sandwich.items():
        assert s.r_out.max() <= 4.0


ORACLE_SPACES = {
    "grid1d-257": dict(kind="grid1d", size=257),
    "grid2d-17": dict(kind="grid2d", size=17),
    "circle-64": dict(kind="circle", size=64),
    "graph-63": dict(kind="graph", size=63),
    "sierpinski-4": dict(kind="sierpinski_level", level=4),
    "circle-40-custom": dict(kind="circle", size=40,
                             weights=[1.0 + (i * 7) % 5 for i in range(40)]),
}


def _gathered_separation(space, net, scale):
    """A level's c0 from the full m x m gather of its centers' distances."""
    if len(net) < 2:
        return np.inf
    sub = space.dist[np.ix_(net, net)]
    np.fill_diagonal(sub, np.inf)
    return float(sub.min()) / scale


@pytest.mark.parametrize("name", ["grid2d-17", "sierpinski-4", "graph-63"])
def test_separation_matches_full_gather(name):
    sp = generate_space(**ORACLE_SPACES[name])
    lo, hi = default_level_range(sp)
    nets = build_nets(sp, 0.5, (lo, hi + 3))
    assert nets.c0_per_level == {
        k: _gathered_separation(sp, nets.nets[k], 0.5 ** k)
        for k in nets.levels()}
    # a dump whose nets are not nested prefixes: a middle level reversed,
    # with a repeated center (in an empty cube, so that each center has its
    # member list and parent)
    doc = cube_dump(build_cubes(nets, sp))
    mid = doc["levels"][str((lo + hi) // 2)]
    mid["centers"] = mid["centers"][::-1] + mid["centers"][:1]
    mid["members"].append([])
    mid["parent"].append(0)
    loaded = cubes_from_dump(doc, sp).nets
    want = {k: _gathered_separation(sp, loaded.nets[k], 0.5 ** k)
            for k in loaded.levels()}
    assert want[(lo + hi) // 2] == 0.0
    assert loaded.c0_per_level == want


@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
def test_build_matches_frozen_oracle(name):
    sp = generate_space(**ORACLE_SPACES[name])
    lo, hi = default_level_range(sp)
    hi += 3
    sigma, margin = dyadic.DEFAULT_SIGMA, dyadic.DEFAULT_DEEP_MARGIN
    o_nets, o_assigns, o_cover = dyadic_oracle.build(sp, 0.5, lo, hi, sigma,
                                                     margin)
    nets, assigns, cover = dyadic._build(sp, 0.5, lo, hi, sigma, margin)
    assert cover == o_cover
    net_sys = build_nets(sp, 0.5, (lo, hi))
    cubes = build_cubes(net_sys, sp)
    o_levels = dyadic_oracle.build_cubes(o_nets, o_assigns, lo, hi)
    for k in range(lo, hi + 1):
        for got in (nets[k], net_sys.nets[k], cubes.levels[k].centers):
            assert np.array_equal(got, o_nets[k])
        for got in (assigns[k], net_sys.assigns[k], cubes.levels[k].assign):
            assert np.array_equal(got, o_assigns[k])
        lv, o_lv = cubes.levels[k], o_levels[k]
        if k == lo:
            assert lv.parent is None and o_lv["parent"] is None
        else:
            assert np.array_equal(lv.parent, o_lv["parent"])
        got_members = dyadic_oracle.members(lv)
        assert len(got_members) == len(o_lv["members"])
        for got, want in zip(got_members, o_lv["members"]):
            assert np.array_equal(got, want)
    for j0 in range(4):
        for sampler in ("center", "lowest_index", "seeded_random"):
            ref = refine_subcubes(cubes, j0, sampler=sampler, seed=11)
            o_sub = dyadic_oracle.refine_subcubes(o_levels, sp, lo, hi, j0,
                                                  sampler=sampler, seed=11)
            assert sorted(ref.subcubes) == sorted(o_sub)
            for k, rows in o_sub.items():
                want = dyadic_oracle.sample_arrays(rows, sp.n)
                got = ref.sample_arrays(k)
                for field_name, g, w in zip(got._fields, got, want):
                    assert g.dtype == w.dtype, (j0, sampler, k, field_name)
                    assert np.array_equal(g, w), (j0, sampler, k, field_name)


@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
def test_build_matches_frozen_oracle_past_saturation(name):
    """Six levels past the default range the nets are complete; d(., net)
    carried from level to level and the complete-net assignment still give
    the oracle's nets, assignments and covers."""
    sp = generate_space(**ORACLE_SPACES[name])
    lo, hi = default_level_range(sp)
    hi += 6
    args = (sp, 0.5, lo, hi, dyadic.DEFAULT_SIGMA, dyadic.DEFAULT_DEEP_MARGIN)
    nets, assigns, cover = dyadic._build(*args)
    o_nets, o_assigns, o_cover = dyadic_oracle.build(*args)
    assert cover == o_cover
    assert sum(len(nets[k]) == sp.n for k in nets) >= 3
    for k in range(lo, hi + 1):
        assert np.array_equal(nets[k], o_nets[k]), k
        assert np.array_equal(assigns[k], o_assigns[k]), k


@pytest.mark.parametrize("name", ["grid1d-257", "sierpinski-4", "graph-63"])
def test_deep_mask_only_on_levels_that_grow(name, monkeypatch):
    """The deep-point mask is formed once on each level whose greedy loop
    adds a center, and never past saturation."""
    sp = generate_space(**ORACLE_SPACES[name])
    lo, hi = default_level_range(sp)
    margins = []
    real = dyadic._deep_mask
    monkeypatch.setattr(dyadic, "_deep_mask", lambda space, assign, margin: (
        margins.append(margin) or real(space, assign, margin)))
    nets = build_nets(sp, 0.5, (lo, hi + 4)).nets
    grown = [k for k in nets
             if len(nets[k]) > (len(nets[k - 1]) if k > lo else 1)]
    assert len(grown) < len(nets) - 3
    assert margins == [dyadic.DEFAULT_DEEP_MARGIN * 0.5 ** k for k in grown]


@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
def test_complete_net_assignment_matches_the_gather(name):
    """A complete net in any order assigns each point to its own position,
    as the oracle's nearest-center gathers do, whatever the coarser cubes."""
    sp = generate_space(**ORACLE_SPACES[name])
    rng = np.random.default_rng(5)
    net = rng.permutation(sp.n)
    coarse = rng.integers(0, 4, sp.n)
    got = dyadic._assign(sp, net, coarse)
    assert np.array_equal(got, dyadic_oracle._assign_refined(sp, net, coarse))
    assert np.array_equal(dyadic._assign(sp, net, np.zeros(sp.n, dtype=int)),
                          dyadic_oracle._assign_coarsest(sp, net))
    assert np.array_equal(net[got], np.arange(sp.n))


@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
def test_refpoint_distance_matches_column_min(name):
    """d(x, Y^k) read from the rows of Y^k equals the column minimum at
    every level, the finest (where Y^k is empty) included."""
    sp = generate_space(**ORACLE_SPACES[name])
    lo, hi = default_level_range(sp)
    cubes = build_cubes(build_nets(sp, 0.5, (lo, hi + 2)), sp)
    for k in cubes.nets.levels():
        ref = cubes.refpoints(k)
        want = (sp.dist[:, ref].min(axis=1) if len(ref)
                else np.full(sp.n, np.inf))
        assert np.array_equal(cubes.refpoint_distance(k), want), k


@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
def test_dump_reload_keeps_covering_constants(name):
    """A dumped and reloaded cube system measures the same C0 from its
    nets' rows as the build did while growing them."""
    sp = generate_space(**ORACLE_SPACES[name])
    lo, hi = default_level_range(sp)
    nets = build_nets(sp, 0.5, (lo, hi + 2))
    loaded = cubes_from_dump(cube_dump(build_cubes(nets, sp)), sp).nets
    assert loaded.big_c0 == nets.big_c0
    assert loaded.big_c0 == max(
        float(sp.dist[:, nets.nets[k]].min(axis=1).max()) / 0.5 ** k
        for k in nets.levels())
    assert loaded.c0_per_level == nets.c0_per_level


def test_cube_system_is_frozen_and_read_only(grid65):
    nets = build_nets(grid65, 0.5, (0, 6))
    cubes = refine_subcubes(build_cubes(nets, grid65), 2)
    lv = cubes.levels[3]
    arrays = [nets.nets[3], nets.assigns[3], lv.centers, lv.assign, lv.parent,
              lv.by_cube, lv.starts, *cubes.sample_arrays(3)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0
    for obj, name in ((nets, "c0"), (lv, "assign"), (cubes, "subcubes")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    with pytest.raises(RangeError):
        cubes.sample_arrays(5)


def _plant(doc, k, edit):
    rec = doc["levels"][str(k)]
    edit(rec["members"], rec["centers"])


def _non_center(members, centers, start):
    """First cube from ``start`` on (cyclically) holding a non-center point,
    and its non-center points."""
    for i in range(len(members)):
        c = (start + i) % len(members)
        pts = [p for p in members[c] if p != centers[c]]
        if pts:
            return c, pts
    raise AssertionError("every cube is a singleton")


def _move(src, dst, which=0):
    def edit(members, centers):
        c, pts = _non_center(members, centers, src)
        pt = pts[which % len(pts)]
        members[c].remove(pt)
        members[(c + dst) % len(members)].append(pt)
    return edit


def _copy(src, dst):
    def edit(members, centers):
        c = src % len(members)
        members[(c + dst) % len(members)].append(members[c][-1])
    return edit


def _drop(src):
    def edit(members, centers):
        c, pts = _non_center(members, centers, src)
        members[c].remove(pts[0])
    return edit


def _move_center(src, dst):
    def edit(members, centers):
        c = src % len(members)
        members[c].remove(centers[c])
        members[(c + dst) % len(members)].insert(0, centers[c])
    return edit


# (level offset, edit); cube offsets are relative to the source cube
DEFECTS = {
    "clean": [],
    "duplicate": [(3, _copy(0, 2)), (3, _copy(4, 1))],
    "uncovered": [(2, _drop(1)), (3, _drop(5))],
    "stray-center": [(3, _move_center(2, 1))],
    "escaped": [(2, _move(0, 1)), (3, _move(3, 2, which=2))],
    "listed-twice": [(2, _copy(1, 0))],
    "two-in-one-cube": [(2, _move(0, 1)), (2, _move(2, -1)),
                        (3, _copy(0, 1)), (3, _copy(2, -1))],
    "first-entry": [(2, _move_center(1, -1))],
    "mixed": [(1, _copy(0, 1)), (2, _drop(0)), (3, _move_center(1, 1)),
              (3, _move(2, 3)), (4, _copy(5, 2))],
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
def test_verify_structure_matches_frozen_loop(name):
    sp = generate_space(**ORACLE_SPACES[name])
    lo = default_level_range(sp)[0]
    cubes = build_cubes(build_nets(sp, 0.5, (lo, lo + 5)), sp)
    for defect, edits in DEFECTS.items():
        doc = cube_dump(cubes)
        for k, edit in edits:
            _plant(doc, lo + k, edit)
        planted = cubes_from_dump(doc, sp)
        ver = verify_cubes(planted)
        got = (ver.partition_pass, ver.nesting_pass, ver.center_pass,
               ver.failures)
        assert got == dyadic_oracle.structure_checks(planted), defect
        assert bool(ver.failures) == bool(edits), defect


@pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
def test_dump_assigns_a_point_listed_twice_to_the_later_cube(name):
    """A reloaded level's `assign` is what writing each cube's points in
    list order gives: a point listed by two cubes names the later one, and
    a point listed by none keeps -1.  The structure oracle reads the same
    `assign`, so this pins the rule on its own."""
    sp = generate_space(**ORACLE_SPACES[name])
    lo = default_level_range(sp)[0]
    cubes = build_cubes(build_nets(sp, 0.5, (lo, lo + 5)), sp)
    listed_twice = set()
    for defect, edits in DEFECTS.items():
        doc = cube_dump(cubes)
        for k, edit in edits:
            _plant(doc, lo + k, edit)
        planted = cubes_from_dump(doc, sp)
        for k, lv in planted.levels.items():
            members = doc["levels"][str(k)]["members"]
            want = np.full(sp.n, -1)
            for cid, mem in enumerate(members):
                want[mem] = cid
            assert np.array_equal(lv.assign, want), (defect, k)
            cube_sets = [set(m) for m in members]
            if sum(map(len, cube_sets)) > len(set().union(*cube_sets)):
                listed_twice.add(defect)
    assert {"duplicate", "two-in-one-cube", "mixed"} <= listed_twice


def test_dump_rejects_negative_member(grid65):
    doc = cube_dump(build_cubes(build_nets(grid65, 0.5, (0, 4)), grid65))
    doc["levels"]["2"]["members"][0].append(-1)
    with pytest.raises(FormatError, match="negative member"):
        cubes_from_dump(doc, grid65)


def test_dump_refuses_a_bool_or_a_huge_int_among_members():
    """A bool among integer members is refused though numpy would read the
    list as ints, and an integer past the float range is a FormatError."""
    sp = generate_space("grid1d", size=9)
    for extra in (True, 10 ** 400):
        doc = cube_dump(build_cubes(build_nets(sp, 0.5, (0, 3)), sp))
        doc["levels"]["3"]["members"][0].append(extra)
        with pytest.raises(FormatError, match=f"member index {extra!r}"):
            cubes_from_dump(doc, sp)


def _edit_level(k, key, edit):
    def apply(doc):
        rec = doc["levels"][str(k)]
        rec[key] = edit(rec[key])
    return apply


def _set(key, value):
    def apply(doc):
        doc[key] = value
    return apply


# edits of a grid1d-9 dump over levels 0..3; most used to load as a nearby
# valid value, or to reach verify_cubes and fail there with a ValueError
DUMP_DEFECTS = {
    "fractional k_min": _set("k_min", 0.5),
    "bool k_max": _set("k_max", True),
    "delta above 1": _set("delta", 2.0),
    "delta as a string": _set("delta", "0.5"),
    "fractional members": _edit_level(
        3, "members", lambda m: [[0.4], [1.4]] + m[2:]),
    "bool member": _edit_level(3, "members", lambda m: [[True]] + m[1:]),
    "member past n": _edit_level(3, "members", lambda m: [m[0] + [9]] + m[1:]),
    "negative center": _edit_level(2, "centers", lambda c: [-9] + c[1:]),
    "fewer centers than member lists": _edit_level(2, "centers",
                                                   lambda c: c[:-1]),
    "more centers than member lists": _edit_level(2, "centers",
                                                  lambda c: c + c[:1]),
    "fewer parents than cubes": _edit_level(2, "parent", lambda p: p[:-1]),
    "parent past the coarser level": _edit_level(2, "parent",
                                                 lambda p: [99] + p[1:]),
    "parent list at the coarsest level": _edit_level(0, "parent",
                                                     lambda p: [0]),
    "no parent list below the coarsest level": _edit_level(
        1, "parent", lambda p: None),
    "unknown top-level key": _set("extra", 1),
    "unknown level key": lambda doc: doc["levels"]["1"].update(typo=[]),
    "k_max below the dumped levels": _set("k_max", 1),
    "a level missing": lambda doc: doc["levels"].pop("2"),
    "a level off the range": lambda doc: doc["levels"].update(
        {"4": doc["levels"].pop("3")}),
    "k_max below k_min": _set("k_max", -1),
}
# the defects whose message is pinned as well
DUMP_MESSAGES = {
    "unknown top-level key": "unknown key.*'extra' in the dump",
    "unknown level key": "unknown key.*'typo' in level 1",
    "k_max below the dumped levels": r"levels \['0', '1', '2', '3'\] are "
                                     r"not the levels \['0', '1'\]",
    "k_max below k_min": "empty level range k_min=0 > k_max=-1",
}


@pytest.mark.parametrize("defect", sorted(DUMP_DEFECTS))
def test_dump_is_checked_as_outside_input(defect):
    sp = generate_space("grid1d", size=9)
    doc = cube_dump(build_cubes(build_nets(sp, 0.5, (0, 3)), sp))
    assert verify_cubes(cubes_from_dump(doc, sp)).passed
    DUMP_DEFECTS[defect](doc)
    with pytest.raises(FormatError, match=DUMP_MESSAGES.get(defect)):
        cubes_from_dump(doc, sp)


# every stock kind; grid1d's diameter 1 is delta^0 and its gaps 1/32 and
# 1/64 are powers of 1/2, so the tie rules show there
STOCK_SPACES = (dict(kind="grid1d", size=2), dict(kind="grid1d", size=33),
                dict(kind="grid1d", size=65), dict(kind="grid2d", size=9),
                dict(kind="circle", size=40), dict(kind="graph", size=63),
                dict(kind="sierpinski_level", level=3),
                dict(kind="snowflake_power", size=33, exponent=0.5))


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.7])
def test_level_searches_match_the_frozen_loops(delta):
    """`default_level_range` (delta^k >= diam) and the natural window
    (c * delta^k > x) share `finest_level` and keep the old results."""
    for kw in STOCK_SPACES:
        sp = generate_space(**kw)
        for flavor in ("homogeneous", "inhomogeneous"):
            assert default_level_range(sp, delta, flavor) == \
                dyadic_oracle.default_level_range(sp, delta, flavor, 16.0), kw
        for c_tilde in (0.5, 1.0, 2.0):
            assert natural_k_window(sp, c_tilde, delta) == \
                difference_oracle.natural_k_window(sp, c_tilde, delta), kw
    grid = generate_space("grid1d", size=65)
    assert default_level_range(grid) == (0, 10)
    assert natural_k_window(grid, 1.0, 0.5) == (-1, 5)


def test_inhomogeneous_levels_run_from_0_to_at_least_1():
    """Gaps far above delta^0 put every homogeneous level below 0; the
    inhomogeneous range still runs from 0 to 1, with and without a
    pipeline, and a one-point space's does too."""
    grid = generate_space("grid1d", size=65)
    sp = MetricMeasureSpace(grid.dist * 1e4, grid.weight)
    assert default_level_range(sp) == (-14, -3)
    assert default_level_range(sp, flavor="inhomogeneous") == (0, 1)
    inhom = KernelSpec(flavor="inhomogeneous")
    assert Pipeline(sp, kernel=inhom).levels == range(0, 2)
    one = generate_space("circle", size=1)
    assert default_level_range(one, flavor="inhomogeneous") == (0, 1)
    assert Pipeline(one, kernel=inhom).levels == range(0, 2)
