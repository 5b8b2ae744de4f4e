"""Nested point nets and dyadic cube systems on a finite space.

Construction follows the classical net-to-cubes route: per level a greedy
farthest-point net (seeded with the coarser net so centers are nested), then
a top-down nearest-eligible-center assignment that makes partition and
nesting true by construction.

Two refinements to the plain greedy keep cube centers away from inherited
cube boundaries, which is what gives usable inner-ball constants at scale
ratio 1/2:

* the separation threshold is relaxed to ``sigma * delta^k`` (sigma < 1),
  which leaves a choice of candidates instead of forcing the single
  farthest point (always a coarse Voronoi vertex, i.e. a future boundary);
* among candidates, points lying at least ``deep_margin * delta^k`` inside
  their current cube are preferred.

Covering stays below ``delta^k`` (the greedy runs until it is), so the
measured constants satisfy c0 >= sigma and C0 <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FormatError, ParameterError, RangeError

DEFAULT_SIGMA = 0.6
DEFAULT_DEEP_MARGIN = 0.3
INTERIOR_MARGIN = 0.2  # delta^k units; see CubeVerification


@dataclass
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
    big_c0_per_level: dict[int, float] = field(default_factory=dict)
    sigma: float = DEFAULT_SIGMA
    deep_margin: float = DEFAULT_DEEP_MARGIN

    def levels(self):
        return range(self.k_min, self.k_max + 1)


@dataclass
class CubeLevel:
    k: int
    centers: np.ndarray          # point index per cube, insertion order
    assign: np.ndarray           # point -> cube id
    parent: np.ndarray | None    # cube id -> parent cube id (None at k_min)
    members: list[np.ndarray]
    children: list[list[int]]


@dataclass
class CubeSystem:
    space: object
    nets: NetSystem
    levels: dict[int, CubeLevel]
    j0: int = 0
    sampler: str | None = None
    sampler_seed: int = 0
    # per level k (k <= k_max - j0): list over cubes alpha of dicts with
    # subcube cube ids at level k+j0, sample point index y, center z, weight
    subcubes: dict[int, list[dict]] | None = None

    _sample_cache: dict = field(default_factory=dict, repr=False)

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
        """Flat subcube arrays for level k: (alpha, m, y, weight, sub_assign)
        where sub_assign maps every point to its flat subcube index."""
        if k not in self._sample_cache:
            if self.subcubes is None or k not in self.subcubes:
                raise RangeError(f"no subcube refinement at level {k}")
            rows = self.subcubes[k]
            alpha, m, y, wgt = [], [], [], []
            sub_assign = np.full(self.space.n, -1, dtype=int)
            flat = 0
            for a, entries in enumerate(rows):
                for e in entries:
                    alpha.append(a)
                    m.append(e["m"])
                    y.append(e["y"])
                    wgt.append(e["weight"])
                    sub_assign[e["members"]] = flat
                    flat += 1
            self._sample_cache[k] = (
                np.asarray(alpha, dtype=int), np.asarray(m, dtype=int),
                np.asarray(y, dtype=int), np.asarray(wgt), sub_assign)
        return self._sample_cache[k]

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
        return self.space.dist[:, ref].min(axis=1)


def _grow_level(space, net, threshold, sep, deep_mask):
    """Extend `net` (list of point indices) greedily.

    Adds points while the covering radius is >= threshold; candidates must be
    >= sep from the net, preferring deep ones. Ties break to the lowest point
    index via argmax semantics on exact equality.
    """
    dist = space.dist
    if not net:
        net.append(0)
    mind = dist[:, net].min(axis=1)
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
        mind = np.minimum(mind, dist[:, new])
    return net, float(mind.max())


def _assign_coarsest(space, net):
    # distance ties resolve to the candidate with the lowest point index
    net_arr = np.asarray(net)
    order = np.argsort(net_arr, kind="stable")
    sub = space.dist[:, net_arr[order]]
    return order[np.argmin(sub, axis=1)]


def _assign_refined(space, net, prev_assign_points):
    """Nearest eligible center; eligible = same coarser cube as the point.
    Ties go to the lowest candidate point index."""
    net_arr = np.asarray(net)
    assign = np.full(space.n, -1, dtype=int)
    net_cube = prev_assign_points[net_arr]
    for cube_id in np.unique(prev_assign_points):
        pts = np.nonzero(prev_assign_points == cube_id)[0]
        cand = np.nonzero(net_cube == cube_id)[0]
        cand = cand[np.argsort(net_arr[cand], kind="stable")]
        sub = space.dist[np.ix_(pts, net_arr[cand])]
        assign[pts] = cand[np.argmin(sub, axis=1)]
    return assign


def _deep_mask(space, assign, centers, margin):
    """Points at distance >= margin from the complement of their own cube."""
    n = space.n
    mask = np.zeros(n, dtype=bool)
    for cube_id in range(len(centers)):
        inside = assign == cube_id
        if inside.all():
            mask[:] = True
            break
        pts = np.nonzero(inside)[0]
        if len(pts) == 0:
            continue
        gap = space.dist[np.ix_(pts, np.nonzero(~inside)[0])].min(axis=1)
        mask[pts] = gap >= margin
    return mask


def _build(space, delta, k_min, k_max, sigma, deep_margin):
    """Shared net+assignment loop; returns nets and per-level assignments."""
    nets = {}
    assigns = {}
    cover = {}
    net = []
    prev_assign = None
    for k in range(k_min, k_max + 1):
        scale = delta ** k
        if prev_assign is None:
            deep = np.ones(space.n, dtype=bool)
        else:
            centers = nets[k - 1]
            deep = _deep_mask(space, prev_assign, centers, deep_margin * scale)
        net, cov = _grow_level(space, list(net), scale, sigma * scale, deep)
        nets[k] = np.asarray(net, dtype=int)
        cover[k] = cov
        if prev_assign is None:
            assigns[k] = _assign_coarsest(space, net)
        else:
            assigns[k] = _assign_refined(space, net, prev_assign)
        prev_assign = assigns[k]
    return nets, assigns, cover


def _separation(space, net, scale):
    if len(net) < 2:
        return np.inf
    sub = space.dist[np.ix_(net, net)]
    sub = sub + np.where(np.eye(len(net), dtype=bool), np.inf, 0.0)
    return float(sub.min()) / scale


def build_nets(space, delta, k_range, sigma=DEFAULT_SIGMA,
               deep_margin=DEFAULT_DEEP_MARGIN, strict=False):
    """Build nested nets over k_range = (k_min, k_max), coarse to fine.

    strict=True enforces the sufficient inequality 12 A0^3 C0 delta <= c0 on
    the measured constants instead of relying on post-hoc verification.
    """
    if not 0 < delta < 1:
        raise ParameterError("delta must lie in (0, 1)")
    k_min, k_max = int(k_range[0]), int(k_range[-1])
    if k_max < k_min:
        raise ParameterError("empty level range")
    nets, assigns, cover = _build(space, delta, k_min, k_max, sigma,
                                  deep_margin)

    c0_lv, big_lv = {}, {}
    for k in range(k_min, k_max + 1):
        scale = delta ** k
        c0_lv[k] = _separation(space, nets[k], scale)
        big_lv[k] = cover[k] / scale
    c0 = float(min(c0_lv.values()))
    big_c0 = float(max(big_lv.values()))
    if strict and 12 * space.a0 ** 3 * big_c0 * delta > c0:
        raise ParameterError(
            f"strict mode: 12*A0^3*C0*delta = "
            f"{12 * space.a0 ** 3 * big_c0 * delta:.6g} exceeds c0 = {c0:.6g}")
    return NetSystem(delta=delta, k_min=k_min, k_max=k_max, nets=nets,
                     assigns=assigns, c0=c0, big_c0=big_c0, c0_per_level=c0_lv,
                     big_c0_per_level=big_lv, sigma=sigma,
                     deep_margin=deep_margin)


def build_cubes(nets, space):
    """Cubes from the level assignments the nets carry; partition and nesting
    hold by construction (centers always land in their own cube)."""
    levels = {}
    prev_assign = None
    for k in nets.levels():
        net = nets.nets[k]
        assign = nets.assigns[k]
        parent = None if prev_assign is None else prev_assign[net]
        members = [np.nonzero(assign == i)[0] for i in range(len(net))]
        for i, mem in enumerate(members):
            if len(mem) == 0:
                raise RangeError(
                    f"empty cube at level {k}, center {net[i]}")
        children = [[] for _ in range(len(nets.nets[k - 1]))] if parent is not None else None
        if parent is not None:
            for cid, par in enumerate(parent):
                children[par].append(cid)
            levels[k - 1].children = children
        levels[k] = CubeLevel(k=k, centers=net, assign=assign, parent=parent,
                              members=members,
                              children=[[] for _ in range(len(net))])
        prev_assign = assign
    return CubeSystem(space=space, nets=nets, levels=levels)


def refine_subcubes(cubes, j0, sampler="center", seed=0):
    """Attach the level-(k+j0) subcube decomposition of every cube.

    The sample point y of each subcube is chosen by the sampler: "center"
    (the subcube's own net center), "lowest_index", or "seeded_random".
    j0 = 0 makes every cube its own single subcube with y = z.
    """
    j0 = int(j0)
    if j0 < 0 or j0 > cubes.k_max - cubes.k_min:
        raise RangeError(f"j0={j0} outside available levels")
    if sampler not in ("center", "lowest_index", "seeded_random"):
        raise ParameterError(f"unknown sampler {sampler!r}")
    rng = np.random.default_rng(seed)
    sub = {}
    for k in range(cubes.k_min, cubes.k_max - j0 + 1):
        fine = cubes.levels[k + j0]
        # ancestor cube id at level k of each fine cube
        anc = np.arange(len(fine.centers))
        for step in range(j0):
            anc = cubes.levels[k + j0 - step].parent[anc]
        per_cube = [[] for _ in cubes.levels[k].centers]
        for fine_id in range(len(fine.centers)):
            per_cube[anc[fine_id]].append(fine_id)
        rows = []
        w = cubes.space.weight
        for alpha, fine_ids in enumerate(per_cube):
            entries = []
            for m, fid in enumerate(fine_ids):
                mem = fine.members[fid]
                if sampler == "center":
                    y = int(fine.centers[fid])
                elif sampler == "lowest_index":
                    y = int(mem.min())
                else:
                    y = int(mem[rng.integers(len(mem))])
                entries.append({
                    "m": m, "fine_cube": fid, "y": y,
                    "z": int(fine.centers[fid]),
                    "weight": float(w[mem].sum()),
                    "members": mem,
                })
            rows.append(entries)
        sub[k] = rows
    return replace(cubes, j0=j0, sampler=sampler, sampler_seed=seed,
                   subcubes=sub, _sample_cache={})


@dataclass
class LevelSandwich:
    k: int
    r_in: np.ndarray          # per cube, delta^k units
    r_out: np.ndarray
    parent_margin: np.ndarray  # distance of center into parent, delta^k units
    interior: np.ndarray       # bool mask
    nominal_inner_pass: np.ndarray
    nominal_outer_pass: np.ndarray


@dataclass
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

    def interior_bounds(self, skip_levels=0):
        """(min r_in, max r_out) over interior cubes, optionally skipping the
        coarsest/finest `skip_levels` levels."""
        lo, hi = np.inf, 0.0
        ks = sorted(self.sandwich)
        if skip_levels:
            ks = ks[skip_levels:len(ks) - skip_levels or None]
        for k in ks:
            s = self.sandwich[k]
            if s.interior.any():
                lo = min(lo, float(s.r_in[s.interior].min()))
                hi = max(hi, float(s.r_out[s.interior].max()))
        return lo, hi


def verify_cubes(cubes, interior_margin=INTERIOR_MARGIN, omega=1.0):
    """Check partition, nesting and center membership exactly; measure the
    ball-sandwich constants per cube and compare with the nominal radii
    (3 A0^2)^-1 c0 delta^k and 2 A0 C0 delta^k.

    A cube is tagged interior when its center lies at least
    ``interior_margin * delta^k`` inside its parent; those are the cubes for
    which the construction can promise an inner ball at scale ratio 1/2.
    ``omega`` feeds the subcube-count bound N(k, alpha) <= C delta^(-j0 omega)
    whose measured C is reported.
    """
    space = cubes.space
    nets = cubes.nets
    delta = nets.delta
    failures = []
    partition = nesting = center = True

    for k, lv in sorted(cubes.levels.items()):
        counts = np.zeros(len(lv.centers), dtype=int)
        seen = np.zeros(space.n, dtype=bool)
        for cid, mem in enumerate(lv.members):
            counts[cid] = len(mem)
            if np.any(seen[mem]):
                dup = int(mem[seen[mem]][0])
                partition = False
                failures.append(f"level {k}: point {dup} in two cubes")
            seen[mem] = True
        if not seen.all():
            missing = int(np.argmin(seen))
            partition = False
            failures.append(f"level {k}: point {missing} uncovered")
        if int(counts.sum()) != space.n:
            partition = False
            failures.append(f"level {k}: member counts do not sum to n")
        for cid, z in enumerate(lv.centers):
            if lv.assign[z] != cid:
                center = False
                failures.append(
                    f"level {k}: center {int(z)} outside its own cube")
        if lv.parent is not None:
            coarse = cubes.levels[k - 1]
            for cid, mem in enumerate(lv.members):
                pid = lv.parent[cid]
                if not np.all(coarse.assign[mem] == pid):
                    bad = int(mem[coarse.assign[mem] != pid][0])
                    nesting = False
                    failures.append(
                        f"level {k}: point {bad} escapes parent cube {pid}")

    sandwich = {}
    a0 = space.a0
    for k, lv in sorted(cubes.levels.items()):
        scale = delta ** k
        ncube = len(lv.centers)
        r_in = np.empty(ncube)
        r_out = np.empty(ncube)
        margin = np.empty(ncube)
        coarse = cubes.levels.get(k - 1)
        for cid, mem in enumerate(lv.members):
            z = lv.centers[cid]
            inside = np.zeros(space.n, dtype=bool)
            inside[mem] = True
            r_out[cid] = space.dist[z, mem].max() if len(mem) else 0.0
            out = ~inside
            r_in[cid] = space.dist[z, out].min() if out.any() else np.inf
            if coarse is None:
                margin[cid] = np.inf
            else:
                pmem = coarse.members[lv.parent[cid]]
                pin = np.zeros(space.n, dtype=bool)
                pin[pmem] = True
                pout = ~pin
                margin[cid] = (space.dist[z, pout].min() / scale
                               if pout.any() else np.inf)
        r_in /= scale
        r_out /= scale
        nominal_in = nets.c0 / (3 * a0 ** 2)
        nominal_out = 2 * a0 * nets.big_c0
        sandwich[k] = LevelSandwich(
            k=k, r_in=r_in, r_out=r_out, parent_margin=margin,
            interior=margin >= interior_margin,
            nominal_inner_pass=r_in >= nominal_in,
            nominal_outer_pass=r_out < nominal_out)

    subcube_pass = subcube_const = max_sub = None
    if cubes.subcubes is not None:
        subcube_pass = True
        max_sub = 0
        for k, rows in cubes.subcubes.items():
            for alpha, entries in enumerate(rows):
                mem = cubes.levels[k].members[alpha]
                got = np.sort(np.concatenate([e["members"] for e in entries]))
                if not np.array_equal(got, np.sort(mem)):
                    subcube_pass = False
                    failures.append(
                        f"level {k} cube {alpha}: subcubes do not tile cube")
                total = space.weight[mem].sum()
                masses = [e["weight"] for e in entries]
                nsub = len(entries)
                max_sub = max(max_sub, nsub)
                if not (nsub * min(masses) <= total * (1 + 1e-12)
                        and total <= nsub * max(masses) * (1 + 1e-12)):
                    subcube_pass = False
                    failures.append(
                        f"level {k} cube {alpha}: mass bracketing violated")
        subcube_const = max_sub * delta ** (cubes.j0 * omega)

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
    verify_cubes rather than silently repaired.
    """
    try:
        return _cubes_from_dump(doc, space)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"malformed cube dump: {exc!r}") from None


def _cubes_from_dump(doc, space):
    k_min, k_max = int(doc["k_min"]), int(doc["k_max"])
    delta = float(doc["delta"])
    nets = {}
    levels = {}
    for k in range(k_min, k_max + 1):
        rec = doc["levels"][str(k)]
        centers = np.asarray(rec["centers"], dtype=int)
        nets[k] = centers
        members = [np.asarray(m, dtype=int) for m in rec["members"]]
        assign = np.full(space.n, -1, dtype=int)
        for cid, mem in enumerate(members):
            assign[mem] = cid
        parent = rec["parent"]
        levels[k] = CubeLevel(
            k=k, centers=centers, assign=assign,
            parent=None if parent is None else np.asarray(parent, dtype=int),
            members=members, children=[[] for _ in centers])
    # measured constants recomputed from the dumped nets
    c0_lv, big_lv = {}, {}
    for k in range(k_min, k_max + 1):
        scale = delta ** k
        c0_lv[k] = _separation(space, nets[k], scale)
        big_lv[k] = float(space.dist[:, nets[k]].min(axis=1).max()) / scale
    net_sys = NetSystem(
        delta=delta, k_min=k_min, k_max=k_max, nets=nets,
        assigns={k: lv.assign for k, lv in levels.items()},
        c0=float(min(c0_lv.values())), big_c0=float(max(big_lv.values())),
        c0_per_level=c0_lv, big_c0_per_level=big_lv)
    return CubeSystem(space=space, nets=net_sys, levels=levels)
