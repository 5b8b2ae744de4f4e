"""Frozen reference for the build path of ``homspace.dyadic``.

This is the earlier loop-per-cube implementation (per-cube assignment and
deep-mask loops, per-level member scans, per-subcube dicts flattened into
arrays on demand), kept verbatim except that it returns plain dicts and
touches no ``CubeSystem``.  ``test_dyadic.py`` asserts that the current
array-based build reproduces every net, assignment, cover, member list and
flat subcube table exactly.  ``structure_checks`` is the earlier per-cube
partition, center and nesting loop of ``verify_cubes``, and
``default_level_range`` the earlier level-range rule of ``homspace.pipeline``.
``members`` and ``interior_bounds`` read a built cube level and a
verification report for the tests.
"""

import itertools
import math

import numpy as np


def _grow_level(space, net, threshold, sep, deep_mask):
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
    net_arr = np.asarray(net)
    order = np.argsort(net_arr, kind="stable")
    sub = space.dist[:, net_arr[order]]
    return order[np.argmin(sub, axis=1)]


def _assign_refined(space, net, prev_assign_points):
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


def build(space, delta, k_min, k_max, sigma, deep_margin):
    """(nets, assigns, cover) per level, as the earlier ``_build``."""
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


def build_cubes(nets, assigns, k_min, k_max):
    """Per level dict with centers, assign, parent, members and children."""
    levels = {}
    prev_assign = None
    for k in range(k_min, k_max + 1):
        net = nets[k]
        assign = assigns[k]
        parent = None if prev_assign is None else prev_assign[net]
        members = [np.nonzero(assign == i)[0] for i in range(len(net))]
        for i, mem in enumerate(members):
            if len(mem) == 0:
                raise ValueError(f"empty cube at level {k}, center {net[i]}")
        children = [[] for _ in range(len(nets[k - 1]))] if parent is not None else None
        if parent is not None:
            for cid, par in enumerate(parent):
                children[par].append(cid)
            levels[k - 1]["children"] = children
        levels[k] = {"centers": net, "assign": assign, "parent": parent,
                     "members": members,
                     "children": [[] for _ in range(len(net))]}
        prev_assign = assign
    return levels


def refine_subcubes(levels, space, k_min, k_max, j0, sampler="center",
                    seed=0):
    """Per level k <= k_max - j0: list over cubes of per-subcube dicts."""
    rng = np.random.default_rng(seed)
    sub = {}
    for k in range(k_min, k_max - j0 + 1):
        fine = levels[k + j0]
        anc = np.arange(len(fine["centers"]))
        for step in range(j0):
            anc = levels[k + j0 - step]["parent"][anc]
        per_cube = [[] for _ in levels[k]["centers"]]
        for fine_id in range(len(fine["centers"])):
            per_cube[anc[fine_id]].append(fine_id)
        rows = []
        w = space.weight
        for alpha, fine_ids in enumerate(per_cube):
            entries = []
            for m, fid in enumerate(fine_ids):
                mem = fine["members"][fid]
                if sampler == "center":
                    y = int(fine["centers"][fid])
                elif sampler == "lowest_index":
                    y = int(mem.min())
                else:
                    y = int(mem[rng.integers(len(mem))])
                entries.append({
                    "m": m, "fine_cube": fid, "y": y,
                    "z": int(fine["centers"][fid]),
                    "weight": float(w[mem].sum()),
                    "members": mem,
                })
            rows.append(entries)
        sub[k] = rows
    return sub


def sample_arrays(rows, n):
    """The earlier flattening: (alpha, m, y, weight, sub_assign)."""
    alpha, m, y, wgt = [], [], [], []
    sub_assign = np.full(n, -1, dtype=int)
    flat = 0
    for a, entries in enumerate(rows):
        for e in entries:
            alpha.append(a)
            m.append(e["m"])
            y.append(e["y"])
            wgt.append(e["weight"])
            sub_assign[e["members"]] = flat
            flat += 1
    return (np.asarray(alpha, dtype=int), np.asarray(m, dtype=int),
            np.asarray(y, dtype=int), np.asarray(wgt), sub_assign)


def structure_checks(cubes):
    """(partition, nesting, center, failures) as the earlier per-cube loop
    of ``verify_cubes`` reported them."""
    n = cubes.space.n
    failures = []
    partition = nesting = center = True
    for k, lv in sorted(cubes.levels.items()):
        counts = np.zeros(len(lv.centers), dtype=int)
        seen = np.zeros(n, dtype=bool)
        for cid, mem in enumerate(members(lv)):
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
        if int(counts.sum()) != n:
            partition = False
            failures.append(f"level {k}: member counts do not sum to n")
        for cid, z in enumerate(lv.centers):
            if lv.assign[z] != cid:
                center = False
                failures.append(
                    f"level {k}: center {int(z)} outside its own cube")
        if lv.parent is not None:
            coarse = cubes.levels[k - 1]
            for cid, mem in enumerate(members(lv)):
                pid = lv.parent[cid]
                if not np.all(coarse.assign[mem] == pid):
                    bad = int(mem[coarse.assign[mem] != pid][0])
                    nesting = False
                    failures.append(
                        f"level {k}: point {bad} escapes parent cube {pid}")
    return partition, nesting, center, failures


def default_level_range(space, delta, flavor, fine_factor):
    """The earlier level-range rule: two floor/ceil-of-log searches, each
    with its two fix-up loops."""
    diam = space.diam
    gap = space.min_gap
    if diam <= 0 or not math.isfinite(gap):
        return 0, 0
    k_min = int(math.floor(math.log(diam) / math.log(delta)))
    while delta ** k_min < diam:
        k_min -= 1
    while delta ** (k_min + 1) >= diam:
        k_min += 1
    if flavor == "inhomogeneous":
        k_min = 0
    target = gap / fine_factor
    k_max = int(math.ceil(math.log(target) / math.log(delta)))
    while delta ** k_max > target:
        k_max += 1
    while delta ** (k_max - 1) <= target:
        k_max -= 1
    return min(k_min, k_max), max(k_min + 1, k_max)


def members(lv):
    """cube id -> its points: the level's `by_cube` sliced at `starts`."""
    return [lv.by_cube[a:b] for a, b in itertools.pairwise(lv.starts.tolist())]


def interior_bounds(ver):
    """(min r_in, max r_out) over the interior cubes of every level of a
    `verify_cubes` report."""
    lo, hi = np.inf, 0.0
    for s in ver.sandwich.values():
        if s.interior.any():
            lo = min(lo, float(s.r_in[s.interior].min()))
            hi = max(hi, float(s.r_out[s.interior].max()))
    return lo, hi
