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

The nets are nested prefixes and a minimum is exact, so the build carries
one vector d(., net) from level to level instead of gathering it again, and
forms the deep-point mask only on a level that adds a center.  Once the net
is complete (every point a center, as on the levels below the least gap),
each point is its own nearest center, so the level is assigned by the net's
inverse permutation without the (center, point) gather.

The subcube refinement stores one flat table per level k, a
``SubcubeTable(alpha, m, y, weight, sub_assign)`` with one row per
level-(k+j0) subcube: rows are ordered by the level-k cube ``alpha`` that
holds the subcube and then by subcube id, ``m`` is the rank of the row
within its ``alpha``, ``y`` the sample point, ``weight`` the subcube mass,
and ``sub_assign`` maps every point to the row of its subcube.  Nets, cube
levels and cube systems are frozen, and every array they hold is read-only.
A cube level lists its points cube by cube in one array ``by_cube``; cube c
holds ``by_cube[starts[c]:starts[c+1]]``, in increasing order on a built
level and as dumped on a level read from a dump; `cube_dump` writes these
slices as the member lists.
"""

from __future__ import annotations

import itertools
import math
import numbers
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
        object.__setattr__(self, "seed",
                           integer_arg("dyadic.seed", self.seed, low=0))


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
    by_cube: np.ndarray          # the points, listed cube by cube
    starts: np.ndarray           # cube c lists by_cube[starts[c]:starts[c+1]]


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
        return self.nets.nets[k + 1][len(self.nets.nets[k]):]

    def refpoint_distance(self, k):
        """d(x, Y^k) for all x; +inf where Y^k is empty."""
        return self.space.dist[self.refpoints(k)].min(axis=0, initial=np.inf)


def _grow_level(space, net, mind, threshold, sep, assign, margin):
    """Extend `net` (list of point indices) greedily; `mind` is d(., net)
    and is updated in place.  Returns the covering radius.

    Adds points while the covering radius is >= threshold; candidates must be
    >= sep from the net, preferring those at least `margin` inside their
    cube of `assign` (the coarser level's).  That deep mask is formed when
    the first point is added, and not at all on a level that adds none.
    Ties break to the lowest point index via argmax semantics on exact
    equality.  The distance table is exactly symmetric, so d(., new) is read
    from the contiguous row of the new point.

    `deep` is d(., net) on the deep points and -1 elsewhere: its argmax is
    the farthest deep point, a candidate when it is >= sep.  Otherwise the
    farthest point is picked, a candidate because sep < threshold.
    """
    dist = space.dist
    deep = None
    while True:
        far = int(np.argmax(mind))
        if mind[far] < threshold:
            return float(mind[far])
        if deep is None:
            deep = np.where(_deep_mask(space, assign, margin), mind, -1.0)
        new = int(np.argmax(deep))
        if deep[new] < sep:
            new = far
        net.append(new)
        np.minimum(mind, dist[new], out=mind)
        np.minimum(deep, dist[new], out=deep)


def _assign(space, net, prev_assign):
    """Position in `net` of each point's nearest center within the point's
    own coarser cube (`prev_assign`, all zero at the coarsest level).
    Ties go to the center with the lowest point index.

    A complete net (every point a center) assigns each point to itself:
    distinct points are at positive distance, so a point is its own unique
    nearest center, and the result is the net's inverse permutation.
    Otherwise the distance table is exactly symmetric, so the (center,
    point) table is gathered from the centers' contiguous rows.  The first
    center that attains each column's minimum is found as the first match
    of the minimum: `argmin` over axis 0 would copy the whole float table."""
    if len(net) == space.n:
        pos = np.empty(space.n, dtype=int)
        pos[net] = np.arange(space.n)
        return pos
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
    """Nets, per-level assignments and covering radii, coarse to fine.  One
    vector d(., net) carries over from level to level: the nets are nested
    prefixes and a minimum is exact, so each level starts from the numbers a
    gather over its inherited net would give."""
    nets, assigns, cover = {}, {}, {}
    net = [0]
    mind = space.dist[0].copy()
    assign = np.zeros(space.n, dtype=int)  # one cube above the coarsest level
    for k in range(k_min, k_max + 1):
        scale = delta ** k
        cover[k] = _grow_level(space, net, mind, scale, sigma * scale, assign,
                               deep_margin * scale)
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
            # the new rows, then the net's columns: half the time of np.ix_
            sub = space.dist[new].take(net, axis=1)
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
        parent = (None if k == nets.k_min
                  else _read_only(nets.assigns[k - 1][net]))
        levels[k] = CubeLevel(
            centers=net, assign=assign, parent=parent,
            by_cube=_read_only(np.argsort(assign, kind="stable")),
            starts=_read_only(np.concatenate(([0], np.cumsum(counts)))))
    return CubeSystem(space=space, nets=nets, levels=levels)


def refine_subcubes(cubes, j0, sampler="center", seed=0):
    """Attach the level-(k+j0) subcube table of every level k.

    The sample point y of each subcube is chosen by the sampler: "center"
    (the subcube's own net center), "lowest_index", or "seeded_random".
    j0 = 0 makes every cube its own single subcube with y = its center.
    The arguments are checked as a `DyadicSpec` first.
    """
    spec = DyadicSpec(j0=j0, sampler=sampler, seed=seed)
    j0 = spec.j0
    if j0 > cubes.k_max - cubes.k_min:
        raise RangeError(f"j0={j0} outside available levels")
    rng = np.random.default_rng(spec.seed)
    w = cubes.space.weight
    tables = {}
    for k in range(cubes.k_min, cubes.k_max - j0 + 1):
        fine = cubes.levels[k + j0]
        # nesting: the level-k cube holding a subcube's center holds it all
        ancestor = cubes.levels[k].assign[fine.centers]
        order = np.argsort(ancestor, kind="stable")
        alpha = ancestor[order]
        rank = np.argsort(order)  # the inverse permutation
        first, end = fine.starts[order], fine.starts[order + 1]
        if sampler == "center":
            y = fine.centers[order]
        elif sampler == "lowest_index":
            y = np.unique(fine.assign, return_index=True)[1][order]
        else:
            # draws over an array of bounds are the scalar draws row by row
            y = fine.by_cube[first + rng.integers(end - first)]
        # one sum per subcube: np.add.reduceat would not give the same bits
        w_by = w[fine.by_cube]
        mass = [w_by[a:b].sum() for a, b in zip(first.tolist(), end.tolist())]
        tables[k] = SubcubeTable(*map(_read_only, (
            alpha, np.arange(len(order)) - np.searchsorted(alpha, alpha), y,
            np.array(mass), rank[fine.assign])))
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


def _cube_of(starts):
    """The cube of each entry of a level's `by_cube`, from its `starts`."""
    return np.repeat(np.arange(len(starts) - 1), np.diff(starts))


def _first_per_cube(bad, flat, cube_of):
    """(cube, point) of the first flagged entry of each cube, in cube order."""
    pos = np.flatnonzero(bad)
    cubes, first = np.unique(cube_of[pos], return_index=True)
    return zip(cubes.tolist(), flat[pos[first]].tolist())


def _structure_failures(k, lv, coarse, n):
    """Partition, center and nesting failures of one level, in the order:
    points listed by an earlier cube, first uncovered point, member count,
    centers outside their cube, points escaping their parent cube."""
    flat, cube_of = lv.by_cube, _cube_of(lv.starts)
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
    margin = (np.full(len(lv.centers), np.inf) if parent_inside is None
              else d.min(axis=1, where=~parent_inside[lv.parent],
                         initial=np.inf))
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
    space, nets, delta = cubes.space, cubes.nets, cubes.delta
    nominal_in = nets.c0 / (3 * space.a0 ** 2)
    nominal_out = 2 * space.a0 * nets.big_c0
    failures, sub_failures, nsubs = [], [], []
    failed = [False] * 3  # partition, center, nesting
    sandwich, parent_inside = {}, None
    for k, lv in sorted(cubes.levels.items()):
        coarse = None if lv.parent is None else cubes.levels[k - 1]
        found = _structure_failures(k, lv, coarse, space.n)
        failed = [was or bool(new) for was, new in zip(failed, found)]
        failures += sum(found, [])
        inside = np.zeros((len(lv.centers), space.n), dtype=bool)
        inside[_cube_of(lv.starts), lv.by_cube] = True
        r_in, r_out, margin = (r / delta ** k for r in _sandwich_radii(
            space, lv, inside, parent_inside))
        sandwich[k] = LevelSandwich(*map(_read_only, (
            r_in, r_out, margin >= INTERIOR_MARGIN, r_in >= nominal_in,
            r_out < nominal_out)))
        if cubes.subcubes is not None and k in cubes.subcubes:
            fails, nsub = _subcube_failures(k, cubes.subcubes[k], inside,
                                            space.weight)
            sub_failures += fails
            nsubs.append(nsub)
        parent_inside = inside
    partition, center, nesting = (not f for f in failed)
    subcube_pass = subcube_const = max_sub = None
    if cubes.subcubes is not None:
        subcube_pass, max_sub = not sub_failures, max(nsubs, default=0)
        subcube_const = max_sub * delta ** cubes.j0

    return CubeVerification(
        partition_pass=partition, nesting_pass=nesting, center_pass=center,
        failures=failures + sub_failures, sandwich=sandwich,
        subcube_pass=subcube_pass, subcube_const=subcube_const,
        max_subcubes=max_sub)


# -- dump round trip ---------------------------------------------------------

DUMP_KEYS = ("delta", "k_min", "k_max", "levels")
LEVEL_KEYS = ("centers", "parent", "members")


def cube_dump(cubes):
    """JSON-shaped dump: per level centers, parents and member lists."""
    out = {"delta": cubes.delta, "k_min": cubes.k_min, "k_max": cubes.k_max,
           "levels": {}}
    for k, lv in sorted(cubes.levels.items()):
        by_cube = lv.by_cube.tolist()
        out["levels"][str(k)] = {
            "centers": lv.centers.tolist(),
            "parent": None if lv.parent is None else lv.parent.tolist(),
            "members": [by_cube[a:b] for a, b in
                        itertools.pairwise(lv.starts.tolist())],
        }
    return out


def cubes_from_dump(doc, space):
    """Rebuild a CubeSystem from a dump for re-verification.

    Membership comes from the dump as-is, so planted defects are visible to
    verify_cubes rather than silently repaired.  The dump is outside input:
    it holds only the keys `cube_dump` writes (`DUMP_KEYS`, and `LEVEL_KEYS`
    per level) and exactly the levels k_min..k_max, its levels must be
    integers, delta in (0, 1), and each cube must have one center and
    (below the coarsest level) one parent, or FormatError.
    """
    try:
        return _cubes_from_dump(doc, space)
    except (KeyError, TypeError, ValueError, IndexError,
            ParameterError) as exc:
        raise FormatError(f"malformed cube dump: {exc!r}") from None


def _dumped_indices(values, n, what, k, count=None):
    """A dumped list of indices at level k as a read-only int array, `count`
    long if given; each entry must be an integer (`is_integer`) in [0, n).
    Once no entry is a bool or a non-number by its type, the list is checked
    as one float array, which holds every integer in [0, n) exactly."""
    if count is not None and len(values) != count:
        raise FormatError(f"level {k}: {len(values)} {what}s for {count} "
                          f"cubes")
    real = all(issubclass(t, numbers.Real) and not issubclass(t, bool)
               for t in set(map(type, values)))
    try:
        a = np.array(values, dtype=float) if real else None
    except OverflowError:  # an integer past the float range
        a = None
    if a is None or not ((0 <= a) & (a < n) & (a == np.floor(a))).all():
        bad = next(v for v in values if not (is_integer(v) and 0 <= v < n))
        raise FormatError(f"level {k}: {what} index {bad!r} is not an "
                          f"integer in [0, {n}); bools, fractions and "
                          f"negative {what} indices are refused")
    return _read_only(a.astype(int))


def _known_keys(rec, keys, where):
    """FormatError when the mapping `rec` has a key outside `keys`: a key
    that no reader reads is refused, not ignored."""
    extra = sorted(map(repr, set(rec) - set(keys)))
    if extra:
        raise FormatError(f"malformed cube dump: unknown key(s) "
                          f"{', '.join(extra)} in {where}; it may hold "
                          f"only {', '.join(keys)}")


def _cubes_from_dump(doc, space):
    _known_keys(doc, DUMP_KEYS, "the dump")
    k_min = integer_arg("k_min", doc["k_min"])
    k_max = integer_arg("k_max", doc["k_max"])
    delta = float(real_arg("delta", doc["delta"], lambda v: 0 < v < 1,
                           "in (0, 1)"))
    if k_max < k_min:
        raise FormatError(f"malformed cube dump: empty level range "
                          f"k_min={k_min} > k_max={k_max}")
    want = [str(k) for k in range(k_min, k_max + 1)]
    if set(doc["levels"]) != set(want):
        raise FormatError(f"malformed cube dump: levels "
                          f"{sorted(doc['levels'])} are not the levels "
                          f"{want} of k_min={k_min} to k_max={k_max}")
    nets, levels = {}, {}
    for k in range(k_min, k_max + 1):
        rec = doc["levels"][str(k)]
        _known_keys(rec, LEVEL_KEYS, f"level {k}")
        members = rec["members"]
        by_cube = _dumped_indices(list(itertools.chain.from_iterable(members)),
                                  space.n, "member", k)
        starts = _read_only(np.cumsum([0, *map(len, members)]))
        centers = nets[k] = _dumped_indices(rec["centers"], space.n,
                                            "center", k, len(members))
        # a point listed by two cubes is assigned the later one in list
        # order, the larger cube id; a point listed by none keeps -1
        assign = np.full(space.n, -1, dtype=int)
        np.maximum.at(assign, by_cube, _cube_of(starts))
        parent = rec["parent"]
        if k > k_min:
            parent = _dumped_indices(parent, len(levels[k - 1].centers),
                                     "parent", k, len(members))
        elif parent is not None:
            raise FormatError(f"level {k}: the coarsest level has parents")
        levels[k] = CubeLevel(centers=centers, assign=_read_only(assign),
                              parent=parent, by_cube=by_cube, starts=starts)
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
