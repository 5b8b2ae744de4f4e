"""Nested point nets and dyadic cube systems on a finite space.

Construction follows the classical net-to-cubes route: per level a greedy
farthest-point net (seeded with the coarser net so centers are nested), then
a top-down nearest-eligible-center assignment that makes partition and
nesting true by construction.

Two refinements to the plain greedy keep cube centers away from inherited
cube boundaries, which is what gives usable inner-ball constants at scale
ratio 1/2:

* the separation threshold is relaxed to ``DEFAULT_SIGMA * delta^k``
  (below 1), which leaves a choice of candidates instead of forcing the
  single farthest point (always a coarse Voronoi vertex, i.e. a future
  boundary);
* among candidates, points lying at least ``DEFAULT_DEEP_MARGIN * delta^k``
  inside their current cube are preferred.

Covering stays below ``delta^k`` (the greedy runs until it is), so the
measured constants satisfy c0 >= DEFAULT_SIGMA and C0 <= 1.

The subcube refinement stores one flat table per level k, a
``SubcubeTable(alpha, m, y, weight, sub_assign)`` with one row per
level-(k+j0) subcube: rows are ordered by the level-k cube ``alpha`` that
holds the subcube and then by subcube id, ``m`` is the rank of the row
within its ``alpha``, ``y`` the sample point, ``weight`` the subcube mass,
and ``sub_assign`` maps every point to the row of its subcube.  Nets, cube
levels and cube systems are frozen, and every array they hold is read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (FormatError, ParameterError, RangeError, choice_arg,
                     integer_arg, is_integer, real_arg)

DEFAULT_SIGMA = 0.6
DEFAULT_DEEP_MARGIN = 0.3
INTERIOR_MARGIN = 0.2  # delta^k units; see verify_cubes
SAMPLERS = ("center", "lowest_index", "seeded_random")


@dataclass(frozen=True)
class DyadicSpec:
    """Nets, cubes and their subcube samples.  A null `k_min` or `k_max` is
    the default level range's; `seed` is the sampler's."""

    delta: float = 0.5
    k_min: int | None = None
    k_max: int | None = None
    j0: int = 2
    sampler: str = "center"
    seed: int = 0
    strict: bool = False

    def __post_init__(self):
        real_arg("dyadic.delta", self.delta, lambda v: 0 < v < 1, "in (0, 1)")
        for name in ("k_min", "k_max"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, integer_arg(
                    f"dyadic.{name}", getattr(self, name)))
        if None not in (self.k_min, self.k_max) and self.k_min > self.k_max:
            raise ParameterError(f"empty level range: k_min={self.k_min} > "
                                 f"k_max={self.k_max}")
        object.__setattr__(self, "j0",
                           integer_arg("dyadic.j0", self.j0, low=0))
        choice_arg("sampler", self.sampler, SAMPLERS)
        integer_arg("dyadic.seed", self.seed, low=0)


def finest_level(delta, x, c=1.0, ties=False):
    """The largest level k whose scale c * delta^k exceeds x, or reaches it
    with `ties` (scales shrink as k grows)."""
    def above(k):
        return c * delta ** k >= x if ties else c * delta ** k > x
    k = math.floor(math.log(x / c) / math.log(delta))
    while not above(k):
        k -= 1
    while above(k + 1):
        k += 1
    return k


def _read_only(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class NetSystem:
    """Per-level nets of net-point indices, coarse to fine.

    ``nets[k]`` extends ``nets[k-1]`` as a prefix, so newly appearing centers
    at level k+1 are exactly ``nets[k+1][len(nets[k]):]``.  ``assigns[k]``
    maps every point to the position in ``nets[k]`` of its level-k cube
    center.
    """

    delta: float
    k_min: int
    k_max: int
    nets: dict[int, np.ndarray]
    assigns: dict[int, np.ndarray]
    c0: float
    big_c0: float
    c0_per_level: dict[int, float] = field(default_factory=dict)

    def levels(self):
        return range(self.k_min, self.k_max + 1)


@dataclass(frozen=True)
class CubeLevel:
    centers: np.ndarray          # point index per cube, insertion order
    assign: np.ndarray           # point -> cube id
    parent: np.ndarray | None    # cube id -> parent cube id (None at k_min)
    members: tuple[np.ndarray, ...]  # cube id -> its points


class SubcubeTable(NamedTuple):
    """The level-(k+j0) subcubes of the level-k cubes, one row each."""

    alpha: np.ndarray       # level-k cube holding the subcube
    m: np.ndarray           # rank of the subcube within its alpha
    y: np.ndarray           # sample point
    weight: np.ndarray      # mu of the subcube
    sub_assign: np.ndarray  # point -> row of its subcube


@dataclass(frozen=True)
class CubeSystem:
    space: object
    nets: NetSystem
    levels: dict[int, CubeLevel]
    j0: int = 0
    # one table per level k <= k_max - j0
    subcubes: dict[int, SubcubeTable] | None = None

    @property
    def k_min(self):
        return self.nets.k_min

    @property
    def k_max(self):
        return self.nets.k_max

    @property
    def delta(self):
        return self.nets.delta

    def sample_arrays(self, k):
        """The level-k subcube table (alpha, m, y, weight, sub_assign)."""
        if self.subcubes is None or k not in self.subcubes:
            raise RangeError(f"no subcube refinement at level {k}")
        return self.subcubes[k]

    def refpoints(self, k):
        """Centers newly appearing at level k+1 (the set Y^k); may be empty."""
        if k < self.k_min or k >= self.k_max:
            return np.array([], dtype=int)
        prev = self.nets.nets[k]
        cur = self.nets.nets[k + 1]
        return cur[len(prev):]

    def refpoint_distance(self, k):
        """d(x, Y^k) for all x; +inf where Y^k is empty."""
        ref = self.refpoints(k)
        if len(ref) == 0:
            return np.full(self.space.n, np.inf)
        return self.space.dist[ref].min(axis=0)


def _grow_level(space, net, threshold, sep, deep_mask):
    """Extend `net` (list of point indices) greedily.

    Adds points while the covering radius is >= threshold; candidates must be
    >= sep from the net, preferring deep ones. Ties break to the lowest point
    index via argmax semantics on exact equality.  The distance table is
    exactly symmetric, so d(., net) is read from the contiguous rows of the
    net's points.
    """
    dist = space.dist
    if not net:
        net.append(0)
    mind = dist[net].min(axis=0)
    while True:
        far = mind.max()
        if far < threshold:
            break
        cand = mind >= sep
        pick_from = cand & deep_mask
        if not pick_from.any():
            pick_from = cand
        score = np.where(pick_from, mind, -1.0)
        new = int(np.argmax(score))
        net.append(new)
        mind = np.minimum(mind, dist[new])
    return net, float(mind.max())


def _assign(space, net, prev_assign):
    """Position in `net` of each point's nearest center within the point's
    own coarser cube (`prev_assign`, all zero at the coarsest level).
    Ties go to the center with the lowest point index.

    The distance table is exactly symmetric, so the (center, point) table
    is gathered from the centers' contiguous rows.  The first center that
    attains each column's minimum is found as the first match of the
    minimum: `argmin` over axis 0 would copy the whole float table."""
    order = np.argsort(net, kind="stable")
    cand = net[order]
    d = space.dist[cand]
    d[prev_assign[cand][:, None] != prev_assign] = np.inf
    return order[(d == d.min(axis=0)).argmax(axis=0)]


def _deep_mask(space, assign, margin):
    """Points at distance >= margin from the complement of their own cube."""
    gap = space.dist.min(axis=1, where=assign[:, None] != assign,
                         initial=np.inf)
    return gap >= margin


def _build(space, delta, k_min, k_max, sigma, deep_margin):
    """Nets, per-level assignments and covering radii, coarse to fine."""
    nets, assigns, cover = {}, {}, {}
    net = []
    assign = np.zeros(space.n, dtype=int)  # one cube above the coarsest level
    for k in range(k_min, k_max + 1):
        scale = delta ** k
        deep = _deep_mask(space, assign, deep_margin * scale)
        net, cover[k] = _grow_level(space, list(net), scale, sigma * scale,
                                    deep)
        nets[k] = _read_only(np.array(net, dtype=int))
        assign = assigns[k] = _read_only(_assign(space, nets[k], assign))
    return nets, assigns, cover


def _separations(space, nets, delta):
    """Per level k, the least distance between two centers of ``nets[k]``
    in delta^k units (inf for a single center).  A net that extends the
    previous level's as a prefix updates that level's minimum from its new
    centers' rows only; any other net (a dump may hold one) is gathered
    whole.  Either way each value is the minimum over the same distances."""
    out, prev, least = {}, (), np.inf
    for k in sorted(nets):
        net = nets[k]
        if not np.array_equal(net[:len(prev)], prev):
            prev, least = (), np.inf
        new = net[len(prev):]
        if len(new):
            sub = space.dist[np.ix_(new, net)]
            sub[np.arange(len(new)), np.arange(len(prev), len(net))] = np.inf
            least = min(least, float(sub.min()))
        out[k] = least / delta ** k
        prev = net
    return out


def build_nets(space, delta, k_range, strict=False):
    """Build nested nets over k_range = (k_min, k_max), coarse to fine.

    strict=True enforces the sufficient inequality 12 A0^3 C0 delta <= c0 on
    the measured constants instead of relying on post-hoc verification.
    The arguments are checked as a `DyadicSpec` before any work.
    """
    spec = DyadicSpec(delta=delta, k_min=integer_arg("k_range", k_range[0]),
                      k_max=integer_arg("k_range", k_range[-1]),
                      strict=strict)
    k_min, k_max = spec.k_min, spec.k_max
    nets, assigns, cover = _build(space, delta, k_min, k_max, DEFAULT_SIGMA,
                                  DEFAULT_DEEP_MARGIN)

    c0_lv = _separations(space, nets, delta)
    big_lv = {k: cover[k] / delta ** k for k in range(k_min, k_max + 1)}
    c0 = float(min(c0_lv.values()))
    big_c0 = float(max(big_lv.values()))
    if strict and 12 * space.a0 ** 3 * big_c0 * delta > c0:
        raise ParameterError(
            f"strict mode: 12*A0^3*C0*delta = "
            f"{12 * space.a0 ** 3 * big_c0 * delta:.6g} exceeds c0 = {c0:.6g}")
    return NetSystem(delta=delta, k_min=k_min, k_max=k_max, nets=nets,
                     assigns=assigns, c0=c0, big_c0=big_c0, c0_per_level=c0_lv)


def build_cubes(nets, space):
    """Cubes from the level assignments the nets carry; partition and nesting
    hold by construction (centers always land in their own cube)."""
    levels = {}
    for k in nets.levels():
        net, assign = nets.nets[k], nets.assigns[k]
        counts = np.bincount(assign, minlength=len(net))
        if not counts.all():
            raise RangeError(
                f"empty cube at level {k}, center {net[np.argmin(counts)]}")
        by_cube = _read_only(np.argsort(assign, kind="stable"))
        parent = (None if k == nets.k_min
                  else _read_only(nets.assigns[k - 1][net]))
        levels[k] = CubeLevel(
            centers=net, assign=assign, parent=parent,
            members=tuple(np.split(by_cube, np.cumsum(counts)[:-1])))
    return CubeSystem(space=space, nets=nets, levels=levels)


def refine_subcubes(cubes, j0, sampler="center", seed=0):
    """Attach the level-(k+j0) subcube table of every level k.

    The sample point y of each subcube is chosen by the sampler: "center"
    (the subcube's own net center), "lowest_index", or "seeded_random".
    j0 = 0 makes every cube its own single subcube with y = its center.
    The arguments are checked as a `DyadicSpec` first.
    """
    j0 = DyadicSpec(j0=j0, sampler=sampler, seed=seed).j0
    if j0 > cubes.k_max - cubes.k_min:
        raise RangeError(f"j0={j0} outside available levels")
    rng = np.random.default_rng(seed)
    w = cubes.space.weight
    tables = {}
    for k in range(cubes.k_min, cubes.k_max - j0 + 1):
        fine = cubes.levels[k + j0]
        # nesting: the level-k cube holding a subcube's center holds it all
        ancestor = cubes.levels[k].assign[fine.centers]
        order = np.argsort(ancestor, kind="stable")
        alpha = ancestor[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        members = [fine.members[i] for i in order]
        if sampler == "center":
            y = fine.centers[order]
        elif sampler == "lowest_index":
            y = np.unique(fine.assign, return_index=True)[1][order]
        else:
            y = np.array([mem[rng.integers(len(mem))] for mem in members],
                         dtype=int)
        tables[k] = SubcubeTable(*map(_read_only, (
            alpha, np.arange(len(order)) - np.searchsorted(alpha, alpha), y,
            np.array([w[mem].sum() for mem in members]), rank[fine.assign])))
    return replace(cubes, j0=j0, subcubes=tables)


@dataclass(frozen=True)
class LevelSandwich:
    r_in: np.ndarray          # per cube, delta^k units
    r_out: np.ndarray
    interior: np.ndarray       # bool mask
    nominal_inner_pass: np.ndarray
    nominal_outer_pass: np.ndarray


@dataclass(frozen=True)
class CubeVerification:
    partition_pass: bool
    nesting_pass: bool
    center_pass: bool
    failures: list[str]
    sandwich: dict[int, LevelSandwich]
    subcube_pass: bool | None
    subcube_const: float | None
    max_subcubes: int | None

    @property
    def passed(self):
        return (self.partition_pass and self.nesting_pass and self.center_pass
                and self.subcube_pass is not False)

    def interior_bounds(self):
        """(min r_in, max r_out) over the interior cubes of every level."""
        lo, hi = np.inf, 0.0
        for s in self.sandwich.values():
            if s.interior.any():
                lo = min(lo, float(s.r_in[s.interior].min()))
                hi = max(hi, float(s.r_out[s.interior].max()))
        return lo, hi


def _flat_members(members):
    """Member lists concatenated in cube order, with the cube of each entry."""
    cube_of = np.repeat(np.arange(len(members)), [len(m) for m in members])
    return np.concatenate(members), cube_of


def _membership(members, n):
    """(cube, point) bool matrix read from the member lists."""
    inside = np.zeros((len(members), n), dtype=bool)
    flat, cube_of = _flat_members(members)
    inside[cube_of, flat] = True
    return inside


def _first_per_cube(bad, flat, cube_of):
    """(cube, point) of the first flagged entry of each cube, in cube order."""
    pos = np.flatnonzero(bad)
    cubes, first = np.unique(cube_of[pos], return_index=True)
    return zip(cubes.tolist(), flat[pos[first]].tolist())


def _structure_failures(k, lv, coarse, n):
    """Partition, center and nesting failures of one level, in the order:
    points listed by an earlier cube, first uncovered point, member count,
    centers outside their cube, points escaping their parent cube."""
    flat, cube_of = _flat_members(lv.members)
    part, center, nest = [], [], []
    # the first entry of a point belongs to the first cube that lists it
    points, first = np.unique(flat, return_index=True)
    owner = np.empty(n, dtype=int)
    owner[points] = cube_of[first]
    for _, dup in _first_per_cube(owner[flat] != cube_of, flat, cube_of):
        part.append(f"level {k}: point {dup} in two cubes")
    covered = np.bincount(flat, minlength=n) > 0
    if not covered.all():
        part.append(f"level {k}: point {int(np.argmin(covered))} uncovered")
    if len(flat) != n:
        part.append(f"level {k}: member counts do not sum to n")
    outside = lv.assign[lv.centers] != np.arange(len(lv.centers))
    for z in lv.centers[outside].tolist():
        center.append(f"level {k}: center {z} outside its own cube")
    if coarse is not None:
        pid = lv.parent[cube_of]
        for cid, bad in _first_per_cube(coarse.assign[flat] != pid, flat,
                                        cube_of):
            nest.append(f"level {k}: point {bad} escapes parent cube "
                        f"{lv.parent[cid]}")
    return part, center, nest


def _sandwich_radii(space, lv, inside, parent_inside):
    """Per cube: farthest member, nearest non-member and nearest point
    outside the parent cube, each measured from the center (absolute)."""
    d = space.dist[lv.centers]
    r_out = d.max(axis=1, where=inside, initial=0.0)
    r_in = d.min(axis=1, where=~inside, initial=np.inf)
    if parent_inside is None:
        margin = np.full(len(lv.centers), np.inf)
    else:
        margin = d.min(axis=1, where=~parent_inside[lv.parent],
                       initial=np.inf)
    return r_in, r_out, margin


def _subcube_failures(k, table, inside, w):
    """Tiling and mass-bracketing failures of one level's subcube table;
    also returns the largest subcube count of a cube."""
    ncube = len(inside)
    tiled = table.alpha[table.sub_assign] == np.arange(ncube)[:, None]
    bad_tile = (tiled != inside).any(axis=1)
    nsub = np.bincount(table.alpha, minlength=ncube)
    lo = np.full(ncube, np.inf)
    hi = np.zeros(ncube)
    np.minimum.at(lo, table.alpha, table.weight)
    np.maximum.at(hi, table.alpha, table.weight)
    total = (inside * w).sum(axis=1)
    bad_mass = ~((nsub * lo <= total * (1 + 1e-12))
                 & (total <= nsub * hi * (1 + 1e-12)))
    failures = []
    for alpha in np.nonzero(bad_tile | bad_mass)[0]:
        if bad_tile[alpha]:
            failures.append(
                f"level {k} cube {alpha}: subcubes do not tile cube")
        if bad_mass[alpha]:
            failures.append(
                f"level {k} cube {alpha}: mass bracketing violated")
    return failures, int(nsub.max())


def verify_cubes(cubes):
    """Check partition, nesting and center membership exactly; measure the
    ball-sandwich constants per cube and compare with the nominal radii
    (3 A0^2)^-1 c0 delta^k and 2 A0 C0 delta^k.

    A cube is tagged interior when its center lies at least
    ``INTERIOR_MARGIN * delta^k`` inside its parent; those are the cubes for
    which the construction can promise an inner ball at scale ratio 1/2.
    With subcubes, the reported constant of the subcube-count bound
    N(k, alpha) <= C delta^-j0 is C = (largest subcube count) * delta^j0.
    """
    space = cubes.space
    nets = cubes.nets
    delta = nets.delta
    failures = []
    partition = nesting = center = True

    for k, lv in sorted(cubes.levels.items()):
        coarse = None if lv.parent is None else cubes.levels[k - 1]
        part, cent, nest = _structure_failures(k, lv, coarse, space.n)
        partition = partition and not part
        center = center and not cent
        nesting = nesting and not nest
        failures += part + cent + nest

    sandwich = {}
    a0 = space.a0
    nominal_in = nets.c0 / (3 * a0 ** 2)
    nominal_out = 2 * a0 * nets.big_c0
    subcube_pass = subcube_const = max_sub = None
    if cubes.subcubes is not None:
        subcube_pass, max_sub = True, 0
    parent_inside = None
    for k, lv in sorted(cubes.levels.items()):
        scale = delta ** k
        inside = _membership(lv.members, space.n)
        r_in, r_out, margin = _sandwich_radii(space, lv, inside,
                                              parent_inside)
        r_in /= scale
        r_out /= scale
        margin /= scale
        sandwich[k] = LevelSandwich(*map(_read_only, (
            r_in, r_out, margin >= INTERIOR_MARGIN, r_in >= nominal_in,
            r_out < nominal_out)))
        if cubes.subcubes is not None and k in cubes.subcubes:
            fails, nsub = _subcube_failures(k, cubes.subcubes[k], inside,
                                            space.weight)
            subcube_pass = subcube_pass and not fails
            failures += fails
            max_sub = max(max_sub, nsub)
        parent_inside = inside
    if cubes.subcubes is not None:
        subcube_const = max_sub * delta ** cubes.j0

    return CubeVerification(
        partition_pass=partition, nesting_pass=nesting, center_pass=center,
        failures=failures, sandwich=sandwich, subcube_pass=subcube_pass,
        subcube_const=subcube_const, max_subcubes=max_sub)


# -- dump round trip ---------------------------------------------------------

def cube_dump(cubes):
    """JSON-shaped dump: per level centers, parents and member lists."""
    out = {"delta": cubes.delta, "k_min": cubes.k_min, "k_max": cubes.k_max,
           "levels": {}}
    for k, lv in sorted(cubes.levels.items()):
        out["levels"][str(k)] = {
            "centers": lv.centers.tolist(),
            "parent": None if lv.parent is None else lv.parent.tolist(),
            "members": [m.tolist() for m in lv.members],
        }
    return out


def cubes_from_dump(doc, space):
    """Rebuild a CubeSystem from a dump for re-verification.

    Membership comes from the dump as-is, so planted defects are visible to
    verify_cubes rather than silently repaired.  The dump is outside input:
    its levels must be integers, delta in (0, 1), and each cube must have
    one center and (below the coarsest level) one parent, or FormatError.
    """
    try:
        return _cubes_from_dump(doc, space)
    except (KeyError, TypeError, ValueError, IndexError,
            ParameterError) as exc:
        raise FormatError(f"malformed cube dump: {exc!r}") from None


def _dumped_indices(values, n, what, k, count=None):
    """A dumped list of indices at level k as a read-only int array, `count`
    long if given; each entry must be an integer (`is_integer`) in [0, n)."""
    if count is not None and len(values) != count:
        raise FormatError(f"level {k}: {len(values)} {what}s for {count} "
                          f"cubes")
    for v in values:
        if not (is_integer(v) and 0 <= v < n):
            raise FormatError(f"level {k}: {what} index {v!r} is not an "
                              f"integer in [0, {n}); bools, fractions and "
                              f"negative {what} indices are refused")
    return _read_only(np.array(values, dtype=int))


def _cubes_from_dump(doc, space):
    k_min = integer_arg("k_min", doc["k_min"])
    k_max = integer_arg("k_max", doc["k_max"])
    delta = float(real_arg("delta", doc["delta"], lambda v: 0 < v < 1,
                           "in (0, 1)"))
    nets = {}
    levels = {}
    for k in range(k_min, k_max + 1):
        rec = doc["levels"][str(k)]
        members = tuple(_dumped_indices(m, space.n, "member", k)
                        for m in rec["members"])
        centers = nets[k] = _dumped_indices(rec["centers"], space.n,
                                            "center", k, len(members))
        assign = np.full(space.n, -1, dtype=int)
        for cid, mem in enumerate(members):
            assign[mem] = cid
        parent = rec["parent"]
        if k > k_min:
            parent = _dumped_indices(parent, len(levels[k - 1].members),
                                     "parent", k, len(members))
        elif parent is not None:
            raise FormatError(f"level {k}: the coarsest level has parents")
        levels[k] = CubeLevel(centers=centers, assign=_read_only(assign),
                              parent=parent, members=members)
    # measured constants recomputed from the dumped nets
    c0_lv = _separations(space, nets, delta)
    big_lv = {k: float(space.dist[nets[k]].min(axis=0).max()) / delta ** k
              for k in range(k_min, k_max + 1)}
    net_sys = NetSystem(
        delta=delta, k_min=k_min, k_max=k_max, nets=nets,
        assigns={k: lv.assign for k, lv in levels.items()},
        c0=float(min(c0_lv.values())), big_c0=float(max(big_lv.values())),
        c0_per_level=c0_lv)
    return CubeSystem(space=space, nets=net_sys, levels=levels)
