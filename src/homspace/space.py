"""Finite quasi-metric measure spaces and their certified geometry.

A space is a finite point set with a symmetric distance table, strictly
positive atomic weights, and a certified quasi-triangle constant
``d(x,z) <= a0 * (d(x,y) + d(y,z))``.  Balls are open:
``B(x,r) = {y : d(x,y) < r}``, so ties at exactly ``r`` are excluded.
One sorted ball index (``BallIndex``) defines every ball measure.

Up to ``A0_EXHAUSTIVE_CAP`` points a0 is exhaustive: one blocked min-plus
sweep covers every triple exactly, and the result equals the maximum over
all triples bit for bit.  Above the cap a0 is a sample of
``A0_SAMPLE_TRIPLES`` random triples, flagged "sampled", read in
sub-blocks of ``A0_SAMPLE_BLOCK`` triples so that it holds about 14 MB at
any n.  A space draws that sample on the first read of its ``a0``, so a
command that never reads a0 never pays for it; construction still checks
the distance table, the weights, the seed and a declared a0 (above the cap
against a sample drawn at once).  On one core of a 2-vCPU VM (best of 3,
one BLAS thread, over several runs) the sweep takes 0.16-0.18 s at
n = 513, 1.1-1.4 s at n = 1025 and 1.4-1.5 s at n = 1089, and the sample
0.54-0.68 s at n = 1025 and 0.71-0.93 s at n = 1089: at the cap an exact
a0 costs about twice the sample.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (CertificationError, FormatError, Frozen, ParameterError,
                     choice_arg, integer_arg, real_arg, resolve)
from .kernels import _row_blocks

# Exact min-plus certificate up to this point count; sampled above it.
A0_EXHAUSTIVE_CAP = 1025
A0_SAMPLE_TRIPLES = 10_000_000
# triples per sub-block of the sample, in reused index and value buffers
A0_SAMPLE_BLOCK = 1 << 16
# rows per block of the min-plus sweep
A0_BLOCK_ROWS = 64


def _as_float_array(values, what, error=FormatError):
    """`values` as a float array, or `error` unless every entry is an
    integer or a real number: strings, booleans, nulls and complex numbers
    are refused, not parsed or cast."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged nesting
        a = None
    if a is None or a.dtype.kind not in "iuf":
        raise error(f"{what} must be numbers")
    return a.astype(float, copy=False)


def _as_float_matrix(dist):
    d = _as_float_array(dist, "distances")
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise FormatError("distance table must be a square matrix")
    return d


def _check_distance_table(d):
    """Zero diagonal, symmetric, positive between distinct points."""
    n = d.shape[0]
    if not np.all(np.isfinite(d)):
        raise FormatError("distances must be finite")
    if np.any(np.diag(d) != 0):
        bad = int(np.argmax(np.diag(d) != 0))
        raise FormatError(f"dist({bad},{bad}) is nonzero")
    if not np.array_equal(d, d.T):
        idx = np.argwhere(d != d.T)[0]
        raise FormatError(
            f"distance table is asymmetric at ({idx[0]},{idx[1]})")
    bad = d <= 0
    np.fill_diagonal(bad, False)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), n)
        raise FormatError(
            f"dist({i},{j}) is not positive for distinct points")


def _upper_ratios(d):
    """d(x,z) / min_y (d(x,y) + d(y,z)) for x < z; zero on and below the
    diagonal.

    Blocks of ``A0_BLOCK_ROWS`` rows x sweep every middle point y over the
    columns z >= the block's first row, two in-place passes per y.  Since
    fl(d/s) is monotone in s, each ratio equals the largest of the per-y
    ratios the middle-point loop forms.
    """
    n = d.shape[0]
    ratio = np.zeros_like(d)
    for x0 in range(0, n, A0_BLOCK_ROWS):
        x1 = min(x0 + A0_BLOCK_ROWS, n)
        acc = d[0, x0:x1][:, None] + d[0, x0:]
        tmp = np.empty_like(acc)
        for y in range(1, n):
            # d(x, y) is read from row y: the table is symmetric
            np.add(d[y, x0:x1][:, None], d[y, x0:], out=tmp)
            np.minimum(acc, tmp, out=acc)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio[x0:x1, x0:] = np.triu(d[x0:x1, x0:] / acc, 1)
    return ratio


def _first_middle_point(d, ratio, best):
    """Worst triple under the middle-point loop's tie rule: the smallest y at
    which some pair attains ``best``, then the first such pair (x, z) in
    row-major order (x < z by symmetry)."""
    xs, zs = np.nonzero(ratio == best)
    num = d[xs, zs]
    for y in range(d.shape[0]):
        hit = np.flatnonzero(num / (d[xs, y] + d[y, zs]) == best)
        if hit.size:
            break
    return int(xs[hit[0]]), y, int(zs[hit[0]])


def certify_a0(dist, cap=A0_EXHAUSTIVE_CAP, samples=A0_SAMPLE_TRIPLES, seed=0):
    """Largest ratio d(x,z)/(d(x,y)+d(y,z)) over triples, clamped below at 1.

    Returns ``(a0, method, worst_triple)`` where worst_triple is ``(x, y, z)``
    with y the middle point, or None when no triple exceeds 1.  The table must
    be finite, symmetric, zero on the diagonal and positive elsewhere
    (``FormatError`` otherwise).

    For n <= cap the method is "exhaustive": every triple is covered exactly
    by the min-plus table S(x,z) = min_y d(x,y) + d(y,z), and a0 is the
    largest d(x,z)/S(x,z), bit for bit the maximum over all triples; the worst
    triple is the smallest middle point attaining it, then the first pair in
    row-major order.  The sweep costs about n^3/2 additions and minima (the
    module docstring has the measured times of the sweep and the sample).
    Above the cap the method is "sampled": ``samples`` random triples drawn
    from ``seed``, a lower bound on the true constant, not a certificate.
    They are drawn 1 M at a time as int32 and read in sub-blocks of
    ``A0_SAMPLE_BLOCK`` through reused buffers; the worst triple is the
    first drawn that attains the maximum.
    `MetricMeasureSpace` calls it with ``cap=A0_EXHAUSTIVE_CAP`` and the
    default sample count when it is built, except for an undeclared a0
    above the cap: that sample is drawn with ``cap=0`` on the space's first
    read of ``a0``.  Tests call it with other caps and counts.
    """
    d = _as_float_matrix(dist)
    _check_distance_table(d)
    n = d.shape[0]
    if n <= 2:
        return 1.0, "exhaustive", None
    if n <= cap:
        ratio = _upper_ratios(d)
        best = float(ratio.max())
        if best <= 1.0:
            return 1.0, "exhaustive", None
        return best, "exhaustive", _first_middle_point(d, ratio, best)
    best = 1.0
    worst = None
    flat = d.ravel()
    rng = np.random.default_rng(seed)
    # int32 draws are the int64 draws' values, from the same stream
    chunk, block = 1_000_000, A0_SAMPLE_BLOCK
    index = np.empty(block, dtype=np.intp)
    num, denom, other = np.empty(block), np.empty(block), np.empty(block)
    remaining = samples
    while remaining > 0:
        m = min(chunk, remaining)
        draw = rng.integers(0, n, size=(3, m), dtype=np.int32)
        for lo in range(0, m, block):
            x, y, z = draw[:, lo:lo + block]
            ratio = _flat_take(flat, x, n, z, index, num)
            den = _flat_take(flat, x, n, y, index, denom)
            den += _flat_take(flat, y, n, z, index, other)
            # den is 0 only when x = y = z, where the ratio's d(x, z) is 0
            np.divide(ratio, den, out=ratio, where=den > 0)
            k = int(np.argmax(ratio))
            if ratio[k] > best:  # the first triple to attain the maximum
                best = float(ratio[k])
                worst = (int(x[k]), int(y[k]), int(z[k]))
        remaining -= m
        del draw, x, y, z  # free the chunk before the next is drawn
    return best, "sampled", worst


def _flat_take(flat, rows, n, cols, index, out):
    """flat[rows * n + cols] of an n x n table's flat view, into the front
    of `out`, with the flat positions formed in `index` (both reused)."""
    b = len(rows)
    np.multiply(rows, n, out=index[:b], dtype=np.intp)
    index[:b] += cols
    return np.take(flat, index[:b], out=out[:b], mode="clip")


class BallIndex(NamedTuple):
    """Every row of the distance table in stable ascending order.

    ``by_rank[j, x]`` is the j-th nearest point to x: the order is kept
    rank-major, so a running sum over every ball runs rank by rank, one
    vector operation across all centres per rank (`_accumulate_ranks`).
    ``order`` is its point-major view, ``order[x]`` the points by distance
    from x; the distances stay in the space's own table, read through it.
    ``weight_prefix[x, j]`` is the measure of the first j + 1 points of row
    x, and ``group_end[x, j]`` marks the last point of each group of tied
    distances: an open ball is always a prefix that ends on a group end, so
    every ball measure is one entry of ``weight_prefix``.  Both are
    point-major and C-contiguous.
    """

    by_rank: np.ndarray
    weight_prefix: np.ndarray
    group_end: np.ndarray

    @classmethod
    def build(cls, dist, weight):
        order = np.argsort(dist, axis=1, kind="stable")
        sd = np.take_along_axis(dist, order, axis=1)
        group_end = np.ones(dist.shape, dtype=bool)
        np.greater(sd[:, 1:], sd[:, :-1], out=group_end[:, :-1])
        del sd  # the sorted distances are not kept
        # gathered through the point-major order, so that the prefix is
        # C-ordered (through a transposed view it would come out F-ordered)
        prefix = weight[order]
        np.cumsum(prefix, axis=1, out=prefix)
        _transpose_in_place(order)
        idx = cls(order, prefix, group_end)
        for a in idx:
            a.setflags(write=False)
        return idx

    @property
    def order(self):
        """The point-major view of ``by_rank``: ``order[x, j]`` is the j-th
        nearest point to x."""
        return self.by_rank.T

    def ends(self, dist, radii):
        """``ends[i, x]``: sorted position of the last point of B(x, radii[i])
        (-1 for an empty ball, r <= 0), one less than the count of entries
        of row x of `dist`, the indexed table, below the radius; one
        bisection through the order finds all of them at once.  A radius
        that is NaN or not a real number raises ParameterError."""
        r = np.array([real_arg("radius", v) for v in radii],
                     dtype=float).reshape(-1, 1)
        n = dist.shape[1]
        rows = np.arange(dist.shape[0])
        count = np.zeros((len(r), len(rows)), dtype=np.intp)
        step = 1 << (n.bit_length() - 1)
        while step:
            probe = np.minimum(count + step, n)
            count = np.where(dist[rows, self.by_rank[probe - 1, rows]] < r,
                             probe, count)
            step >>= 1
        return count - 1

    def read(self, table, end):
        """Row-wise ``table[x, end[..., x]]`` of a row-sorted table, for one
        end vector or a stack of them; 0 where the ball is empty."""
        return np.where(end >= 0, table[np.arange(len(table)), end], 0.0)


def _transpose_in_place(a, size=128):
    """Transpose a square table in place, one pair of size x size tiles at
    a time, so that it needs no second table."""
    for lo in range(0, len(a), size):
        for hi in range(lo, len(a), size):
            upper = a[lo:lo + size, hi:hi + size]
            lower = a[hi:hi + size, lo:lo + size]
            saved = upper.T.copy()
            upper[...] = lower.T
            lower[...] = saved


def _accumulate_ranks(run, op=np.add):
    """Running `op` (a sum, or ``np.maximum``) down the rows of a rank-major
    table, in place: row j becomes op(row j, running row j - 1), across all
    centres at once.  Each entry is formed as a point-major row's cumulative
    sum forms it, P[j - 1] + v[j], so the two agree bit for bit."""
    for prev, row in zip(run, run[1:]):
        op(row, prev, out=row)
    return run


def _declared_a0(a0):
    """None for an undeclared a0, a declared one as a float: a finite number
    >= 1, else ParameterError."""
    if a0 is None:
        return None
    return float(real_arg("a0", a0, lambda v: 1 <= v < math.inf,
                          "a finite number >= 1"))


class MetricMeasureSpace(Frozen):
    """Immutable finite quasi-metric measure space: no attribute can be
    rebound or deleted, and its arrays are read-only.

    Parameters
    ----------
    dist : (n, n) array of pairwise distances, symmetric, zero diagonal.
    weight : (n,) array of strictly positive atomic measures.
    a0 : declared quasi-triangle constant, a finite number >= 1 checked
        before `certify_a0` runs, then against the constant it measures,
        at construction; ``a0_method`` is then "declared", else the
        measured method.  Undeclared, a0 is measured at construction up to
        ``A0_EXHAUSTIVE_CAP`` points (the cap is read then) and sampled on
        the first read of ``a0`` above it; ``a0_method`` reads "sampled"
        at once.
    label : free-form description.
    points : optional coordinate array kept for round-tripping documents.
    seed : seed of the a0 sample, an integer >= 0 checked at construction
        for every n (`ParameterError` otherwise); only a sampled a0 reads
        it.
    """

    def __init__(self, dist, weight, a0=None, label="", points=None, seed=0):
        seed = integer_arg("seed", seed, low=0)
        d = _as_float_matrix(dist)
        n = d.shape[0]
        w = _as_float_array(weight, "weights")
        if w.shape != (n,):
            raise FormatError("weight vector length does not match point count")
        if not np.all(np.isfinite(w)):
            raise FormatError("weights must be finite")
        if np.any(w <= 0):
            bad = int(np.argmax(w <= 0))
            raise FormatError(f"weight of point {bad} is not positive")

        a0 = _declared_a0(a0)
        if a0 is None and n > max(A0_EXHAUSTIVE_CAP, 2):
            # the sample is drawn on the first read of `a0`
            _check_distance_table(d)
            a0_fields = dict(a0_method="sampled", _a0_seed=seed)
        else:
            # certify_a0 also checks the rest of the distance table
            measured, method, worst = certify_a0(d, cap=A0_EXHAUSTIVE_CAP,
                                                 seed=seed)
            if a0 is None:
                a0 = measured
            else:
                method = "declared"
                if measured > a0 * (1 + 1e-12):
                    raise CertificationError(
                        f"declared a0={a0} violated: triple {worst} attains "
                        f"ratio {measured:.12g}", triple=worst)
            a0_fields = dict(a0=float(max(a0, 1.0)), a0_method=method)

        if points is not None:
            points = np.array(_as_float_array(points, "points"))
            points.setflags(write=False)
        d.setflags(write=False)
        w.setflags(write=False)
        # the only writes: after this, attributes cannot be rebound, and the
        # cached tables go straight into the instance dict
        vars(self).update(dist=d, weight=w, label=label, points=points,
                          **a0_fields)

    @cached_property
    def a0(self):
        """The sampled a0 of an undeclared space above the cap, drawn on
        first read from the seed given at construction; every other space
        sets a0 when it is built.  ``cap=0`` keeps the sampled method chosen
        then, whatever ``A0_EXHAUSTIVE_CAP`` reads now."""
        return certify_a0(self.dist, cap=0, seed=self._a0_seed)[0]

    @property
    def n(self):
        return self.dist.shape[0]

    @property
    def total_mass(self):
        return float(self.weight.sum())

    @cached_property
    def diam(self):
        return float(self.dist.max())

    @cached_property
    def min_gap(self):
        """Smallest positive pairwise distance (inf for one point)."""
        if self.n == 1:
            return math.inf
        off = np.eye(self.n, dtype=bool)
        np.logical_not(off, out=off)
        return float(self.dist.min(where=off, initial=np.inf))

    # -- ball machinery -----------------------------------------------------

    @cached_property
    def ball_index(self):
        """The sorted ball index every ball query reads; built on first use."""
        return BallIndex.build(self.dist, self.weight)

    @cached_property
    def group_ends(self):
        """(flat, measure, starts, by_rank): the maximal operator's index,
        built on its first call.  ``by_rank`` is the ball index's own
        rank-major order, not a copy, ``by_rank[j, x]`` the j-th nearest
        point to x; ``flat`` holds the group ends row by row as positions
        ``j * n + x`` in an n x n table of that layout, ``measure`` the
        measure of the ball each one closes, and ``starts`` where each row's
        run starts in them."""
        idx = self.ball_index
        n = self.n
        row_major = np.flatnonzero(idx.group_end)
        x, rank = np.divmod(row_major, n)
        small = idx.group_end.size <= np.iinfo(np.int32).max
        flat = (rank * n + x).astype(np.int32 if small else np.intp)
        starts = np.zeros(n, dtype=np.intp)
        np.cumsum(idx.group_end.sum(axis=1)[:-1], out=starts[1:])
        ends = (flat, idx.weight_prefix.ravel()[row_major], starts)
        for a in ends:
            a.setflags(write=False)
        return (*ends, idx.by_rank)

    def ball_measure(self, r):
        """Vector of mu(B(x, r)) over all centers x."""
        idx = self.ball_index
        return idx.read(idx.weight_prefix, idx.ends(self.dist, [r])[0])

    def v_table(self):
        """V(x, y) = mu(B(x, d(x, y))) as an (n, n) table; V(x, x) = 0."""
        return self._v_table

    @cached_property
    def _v_table(self):
        idx = self.ball_index
        # B(x, d(x, y)) is the prefix that ends before y's tie group; the
        # prefixes grow along a row, so a running max, taken in place over
        # the measures at group ends, carries the last group end forward.
        # The table is that one buffer scattered back through `order`.
        before = np.zeros_like(idx.weight_prefix)
        np.copyto(before[:, 1:], idx.weight_prefix[:, :-1],
                  where=idx.group_end[:, :-1])
        np.maximum.accumulate(before, axis=1, out=before)
        v = np.empty_like(self.dist)
        np.put_along_axis(v, idx.order, before, axis=1)
        v.setflags(write=False)
        return v

    def v_symmetry_ratio(self):
        """max over pairs of V(x,y)/V(y,x); finite because balls own centers.
        Taken over blocks of rows, with the 0/0 of the diagonal left out."""
        if self.n == 1:
            return 1.0
        v = self.v_table()
        best = -np.inf
        for blk in _row_blocks(self.n):
            with np.errstate(invalid="ignore"):
                ratio = v[blk] / v.T[blk]
            np.fill_diagonal(ratio[:, blk], -np.inf)
            best = max(best, float(ratio.max()))
        return best


@dataclass(frozen=True)
class GeometryReport:
    """Measured doubling/dimension constants of a space."""

    c_mu: float
    omega: float
    diam: float
    q_global: float | None = None
    c_global: float | None = None
    q_local: float | None = None
    c_local: float | None = None
    kappa: float | None = None
    v_ratio: float | None = None
    radius_grid: tuple = field(default_factory=tuple)


def default_radius_grid(space):
    """At most seven dyadic radii from diam/2 down, stopping above 1.6x the
    minimum gap.

    Radii at or below the nearest-neighbor gap make the smaller ball a
    singleton and inflate the measured doubling ratio; the cutoff keeps the
    grid in the regime the dimension fits are meant for.
    """
    hi = space.diam / 2.0
    lo = 1.6 * space.min_gap
    if not math.isfinite(lo) or hi <= 0:
        return [1.0]
    out = []
    r = hi
    while r >= lo and len(out) < 7:
        out.append(r)
        r /= 2.0
    return sorted(out) or [hi]


def radius_grid_arg(radius_grid):
    """`radius_grid` as a list of floats: a nonempty, sorted sequence (not a
    string or a mapping) of real numbers, each finite and > 0 (`real_arg`)."""
    if isinstance(radius_grid, (str, Mapping)) or not isinstance(
            radius_grid, Iterable):
        raise ParameterError(f"radius_grid must be a list of numbers, "
                             f"got {radius_grid!r}")
    radii = [float(real_arg("radius_grid entry", r, lambda v: 0 < v < math.inf,
                            "finite and > 0")) for r in radius_grid]
    if not radii or radii != sorted(radii):
        raise ParameterError(f"radius_grid must be nonempty and sorted, got "
                             f"{radius_grid!r}")
    return radii


def geometry_report(space, radius_grid, fit_reverse=False):
    """Measure doubling constant, upper dimension and lower-bound fits.

    ``c_mu`` is the exact max of mu(B(x,2r))/mu(B(x,r)) over all centers and
    grid radii; lower-bound exponents are least-squares slopes of
    log mu(B(x,r)) against log r with worst-case (minimum intercept)
    constants, global over all radii and local over r <= 1.
    """
    radii = radius_grid_arg(radius_grid)
    c_mu = 1.0
    logs_r, logs_v = [], []
    vols = {}
    for r in radii:
        v1 = space.ball_measure(r)
        v2 = space.ball_measure(2 * r)
        vols[r] = v1
        c_mu = max(c_mu, float(np.max(v2 / v1)))
        logs_r.append(np.full(space.n, math.log(r)))
        logs_v.append(np.log(v1))
    lr = np.concatenate(logs_r)
    lv = np.concatenate(logs_v)

    def _fit(mask):
        if mask.sum() < 2 or np.ptp(lr[mask]) == 0:
            return None, None
        slope, intercept = np.polyfit(lr[mask], lv[mask], 1)
        # worst-case constant: infimum over samples of mu(B)/r^Q
        c = float(np.exp(np.min(lv[mask] - slope * lr[mask])))
        return float(slope), c

    q_global, c_global = _fit(np.ones_like(lr, dtype=bool))
    q_local, c_local = _fit(lr <= 0.0)

    kappa = None
    if fit_reverse:
        pts_l, pts_g = [], []
        for r in radii:
            for lam in (2.0, 4.0):
                if lam * r >= space.diam or space.diam == 0:
                    continue
                ratio = space.ball_measure(lam * r) / vols[r]
                pts_l.append(np.full(space.n, math.log(lam)))
                pts_g.append(np.log(ratio))
        if pts_l:
            ll = np.concatenate(pts_l)
            gg = np.concatenate(pts_g)
            if np.ptp(ll) > 0:
                kappa = float(np.polyfit(ll, gg, 1)[0])
            else:
                kappa = float(np.min(gg) / ll[0])
            kappa = max(kappa, 0.0)

    return GeometryReport(
        c_mu=c_mu, omega=math.log2(c_mu) if c_mu > 0 else 0.0,
        diam=space.diam, q_global=q_global, c_global=c_global,
        q_local=q_local, c_local=c_local, kappa=kappa,
        v_ratio=space.v_symmetry_ratio(), radius_grid=tuple(radii))


# -- generators -------------------------------------------------------------

def _euclidean(points):
    """Distance table of the rows of `points`, summed one coordinate at a
    time with no (n, n, dim) temporary: below 8 coordinates (numpy sums
    pairwise from 8 terms on) bit for bit the summed squared differences."""
    n = len(points)
    out, diff = np.zeros((n, n)), np.empty((n, n))
    for x in points.T:
        np.subtract(x[:, None], x, out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return np.sqrt(out, out=out)


def _grid1d_points(size):
    if size == 1:
        return np.zeros((1, 1))
    return np.linspace(0.0, 1.0, size)[:, None]


def _grid2d_points(size):
    axis = np.linspace(0.0, 1.0, size) if size > 1 else np.zeros(1)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _circle_dist(size):
    idx = np.arange(size)
    gap = np.abs(idx[:, None] - idx[None, :])
    gap = np.minimum(gap, size - gap)
    return gap / float(size)


def _binary_tree_dist(size):
    # complete binary tree on `size` nodes (parent of i is (i - 1) // 2), unit
    # edges, normalized to diam 1; the larger index of a pair is never the
    # shallower node, so stepping it to its parent walks both to their
    # lowest common ancestor, one edge per step
    i, j = np.indices((size, size))
    dist = np.zeros((size, size))
    while (apart := i != j).any():
        i, j = (np.where(apart & (i > j), (i - 1) // 2, i),
                np.where(apart & (j > i), (j - 1) // 2, j))
        dist += apart
    m = dist.max()
    return dist / m if m > 0 else dist


def _sierpinski_points(level):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    tris = [verts]
    for _ in range(level):
        nxt = []
        for t in tris:
            for v in t:
                nxt.append((t + v) / 2.0)
        tris = nxt
    pts = np.concatenate(tris, axis=0)
    # deduplicate shared vertices; coordinates are dyadic except the sqrt(3)/2
    # factor, which is common to every y, so rounding is collision-free
    return np.unique(np.round(pts, 12), axis=0)


# the leaves each stock kind reads, with their defaults (all read weights)
KIND_READS = {"grid1d": {"size": 65}, "grid2d": {"size": 65},
              "circle": {"size": 65}, "graph": {"size": 65},
              "sierpinski_level": {"level": None},
              "snowflake_power": {"size": 65, "exponent": None}}


@dataclass(frozen=True)
class SpaceSpec:
    """A stock space, or a space document when `file` is set.  Null leaves
    take their defaults: kind "grid1d" and, for the kinds that read it, size
    65.  Null `weights` are the uniform measure of mass 1, a list the atomic
    weights of the points: finite numbers > 0, one per point
    (`point_count`).  A leaf the kind or the file does not read stays null;
    `seed` is the a0 sample's."""

    kind: str | None = None
    size: int | None = None
    level: int | None = None
    exponent: float | None = None
    weights: list | None = None
    label: str | None = None
    seed: int = 0
    file: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "seed",
                           integer_arg("space.seed", self.seed, low=0))
        if self.file is not None:
            if not isinstance(self.file, str):
                raise ParameterError(f"space.file must be a string, got "
                                     f"{self.file!r}")
            resolve(self, "space", "space.file is set", {}, "kind", "size",
                    "level", "exponent", "weights", "label")
            return
        resolve(self, "space", "", {"kind": "grid1d"}, "kind")
        kind = choice_arg("space kind", self.kind, KIND_READS)
        resolve(self, "space", f"space.kind is {kind!r}", KIND_READS[kind],
                "size", "level", "exponent")
        if self.size is not None:
            object.__setattr__(self, "size",
                               integer_arg("space.size", self.size, low=1))
        if kind == "sierpinski_level":
            object.__setattr__(self, "level",
                               integer_arg("space.level", self.level, low=0))
        if kind == "snowflake_power":
            real_arg("space.exponent", self.exponent, lambda v: v > 0, "> 0")
        if self.weights is not None:
            w = _as_float_array(self.weights, "space.weights")
            n = point_count(kind, self.size, self.level)
            if w.shape != (n,):
                raise ParameterError(f"space.weights must hold {n} numbers, "
                                     f"one per point, got shape {w.shape}")
            bad = ~((w > 0) & (w < math.inf))
            if bad.any():
                i = int(np.argmax(bad))
                raise ParameterError(f"space.weights[{i}] must be finite and "
                                     f"> 0, got {float(w[i])!r}")


def point_count(kind, size=None, level=None):
    """The point count of a stock space of `kind`, read off its size (per
    side for grid2d) or its level."""
    if kind == "grid2d":
        return size * size
    if kind == "sierpinski_level":
        return 3 * (3 ** level + 1) // 2
    return size


def generate_space(kind, size=None, level=None, exponent=None, weights=None,
                   label=None, seed=0):
    """Build one of the stock finite test spaces; the arguments are checked
    as a `SpaceSpec`.  Null `weights` give every point mass 1/n.

    Kinds: grid1d(size), grid2d(size per side), circle(size), graph(size,
    binary tree metric), sierpinski_level(level), snowflake_power(size,
    exponent a; d = |x - y|^a, a genuine quasi-metric for a > 1).
    """
    spec = SpaceSpec(kind=kind, size=size, level=level, exponent=exponent,
                     weights=weights, label=label, seed=seed)
    kind, size = spec.kind, spec.size
    points = None
    if kind == "grid1d":
        points = _grid1d_points(size)
        dist = _euclidean(points)
    elif kind == "grid2d":
        points = _grid2d_points(size)
        dist = _euclidean(points)
    elif kind == "circle":
        dist = _circle_dist(size)
    elif kind == "graph":
        dist = _binary_tree_dist(size)
    elif kind == "sierpinski_level":
        points = _sierpinski_points(spec.level)
        dist = _euclidean(points)
    else:  # snowflake_power
        points = _grid1d_points(size)
        dist = _euclidean(points) ** float(exponent)
    n = dist.shape[0]
    w = np.full(n, 1.0 / n) if weights is None else weights
    return MetricMeasureSpace(dist, w, label=label or kind, points=points,
                              seed=spec.seed)


# -- document I/O -----------------------------------------------------------

def _tri_to_full(tri, n):
    """Symmetric table from the row-major lower triangle (i > j)."""
    rows, cols = np.tril_indices(n, -1)
    if len(tri) != len(rows):
        raise FormatError("lower-triangle length does not match n")
    d = np.zeros((n, n))
    d[rows, cols] = d[cols, rows] = tri
    return d


def space_to_document(space):
    doc = {
        "n": space.n,
        "weights": space.weight.tolist(),
        "a0": space.a0,
        "label": space.label,
    }
    if space.points is not None:
        doc["points"] = space.points.tolist()
    doc["dist"] = space.dist[np.tril_indices(space.n, -1)].tolist()
    return doc


def save_space(space, path):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(space_to_document(space), fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def load_space_document(doc, seed=0):
    try:
        n = integer_arg("n", doc["n"], low=1)
        weights = _as_float_array(doc["weights"], "weights")
    except (KeyError, TypeError, ParameterError) as exc:
        raise FormatError(f"bad space document: {exc}") from None
    try:
        a0 = _declared_a0(doc.get("a0"))
    except ParameterError as exc:
        raise FormatError(str(exc)) from None
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise FormatError(f"label must be a string, got {label!r}")

    points = None
    if "points" in doc:
        points = _as_float_array(doc["points"], "points")
        if points.ndim not in (1, 2) or len(points) != n:
            raise FormatError(f"points must be {n} coordinates or rows of "
                              f"coordinates")
    if "dist" in doc:
        arr = _as_float_array(doc["dist"], "distances")
        if arr.ndim == 1:
            dist = _tri_to_full(arr, n)
        elif arr.shape == (n, n):
            dist = arr
        else:
            raise FormatError("dist must be a lower triangle or full matrix")
    elif points is not None:
        if points.ndim == 1:
            points = points[:, None]
        dist = _euclidean(points)
    else:
        raise FormatError("space document needs points or dist")

    return MetricMeasureSpace(
        dist, weights, a0=a0, label=label,
        points=points, seed=seed)


def load_space(path, seed=0):
    """Load a space document (JSON) as a `MetricMeasureSpace`, which checks
    it and certifies a declared a0 at once; an undeclared a0 above the cap
    is sampled on first read."""
    with open(path) as fh:
        doc = json.load(fh)
    return load_space_document(doc, seed=seed)
