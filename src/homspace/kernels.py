"""Surrogate kernel stacks with exponential decay and exact cancellation.

A symmetric Markov table ``P_t`` is built from the seed
``exp(-(d(x,y)/t)^a)`` by symmetric diagonal scaling until every row
integrates to one against mu.  Level kernels are consecutive differences
``Q_k = P_{delta^k} - P_{delta^(k-1)}``; the coarsest homogeneous level is
capped with the exact mean projection (the t -> infinity limit of ``P_t``,
the constant 1/mu(X)), so two-sided cancellation is exact and the stack
telescopes to ``P_{delta^kmax} - mean``; every ``Q_k`` table is read-only.
A stack is built in place, finest level first: each ``P_t`` is formed and
scaled in its own table and each difference is written into the finer one,
so a build holds no n x n table besides its levels, only a block of rows.
Validation fits the decay rate and smoothness exponent and measures every
condition constant in a counting loop and two passes that stream the
levels (no whole-stack array outlives its level) in blocks of rows of about
``BLOCK_BYTES``; both fits take np.polyfit's degree-1 steps on a design
matrix filled in place (``_slope``).  It maximizes exhaustively up to
``PAIR_BUDGET`` pairs and ``QUAD_BUDGET`` quadruples per level, flagged as
sampled beyond, and returns a report that leaves the stack unmodified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, ParameterError, RangeError,
                     choice_arg, integer_arg, real_arg, resolve)

SCALING_TOL = 1e-12
SCALING_CAP = 10_000
# kernel entries below this fraction of the level's peak are treated as
# numerically zero when fitting/validating (difference of two row-stochastic
# tables carries ~1e-13 absolute noise)
NOISE_FLOOR = 1e-10
# validation budgets per level (sampled beyond) and identity probe fields
PAIR_BUDGET = 4_000
QUAD_BUDGET = 2_000
PROBE_COUNT = 6
# the pooled nu fit is thinned by a common stride to at most this many points
FIT_POINTS = 2_000_000
# the semigroup's scaling and validate_ati's n x n passes run over blocks of
# rows of about this many bytes
BLOCK_BYTES = 2 ** 18
# the exponents Gamma of validate_ati's R_Gamma envelope constants
RGAMMA_GAMMAS = (1.0, 2.0)


# the leaves each flavor reads besides a, with defaults
FLAVOR_READS = {"homogeneous": {},
                "inhomogeneous": {"sigma": 1.0, "n_low": 1}}


@dataclass(frozen=True)
class KernelSpec:
    """A kernel stack: `a` is the decay exponent of the seed kernel, and
    inhomogeneous reads `sigma` (null: 1.0) and `n_low` (null: 1); a leaf
    the flavor does not read stays null."""

    flavor: str = "homogeneous"
    a: float = 1.0
    sigma: float | None = None
    n_low: int | None = None

    def __post_init__(self):
        flavor = choice_arg("flavor", self.flavor, FLAVOR_READS)
        real_arg("kernel.a", self.a, lambda v: 0 < v < math.inf, "> 0")
        resolve(self, "kernel", f"kernel.flavor is {flavor!r}",
                FLAVOR_READS[flavor], "sigma", "n_low")
        if flavor == "inhomogeneous":
            real_arg("kernel.sigma", self.sigma, lambda v: 0 < v < math.inf,
                     "> 0")
            object.__setattr__(self, "n_low", integer_arg(
                "kernel.n_low", self.n_low, low=0))

    def check_levels(self, k_min, k_max):
        """The range is not empty, and inhomogeneous levels run from 0 to at
        least 1; a null level is the default range's."""
        if None not in (k_min, k_max) and k_min > k_max:
            raise ParameterError(f"empty level range: k_min={k_min} > "
                                 f"k_max={k_max}")
        if self.flavor == "inhomogeneous" and (
                k_min not in (None, 0) or k_max is not None and k_max < 1):
            raise ParameterError(f"inhomogeneous levels run from 0 to at "
                                 f"least 1, got k_min={k_min!r}, "
                                 f"k_max={k_max!r}")


def _row_blocks(n):
    """Slices of consecutive rows of an n x n float table, each about
    `BLOCK_BYTES` long (at least one row)."""
    step = max(1, BLOCK_BYTES // (8 * n))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def build_semigroup(space, t, a=1.0):
    """Symmetric mu-stochastic Markov table at length scale t.

    Iterative proportional fitting with one diagonal on both sides, at most
    `SCALING_CAP` sweeps to row residual `SCALING_TOL`; the fixed point
    satisfies sum_y P(x,y) mu_y = 1 for every x and P is exactly symmetric.
    The seed is formed and scaled in place, so the call holds one n x n
    table and one block of rows besides.  t is a real number > 0 and a a
    finite one > 0, or ParameterError.
    """
    real_arg("semigroup scale t", t, lambda v: v > 0, "> 0")
    real_arg("semigroup exponent a", a, lambda v: 0 < v < math.inf,
             "finite and > 0")
    w = space.weight
    seed = space.dist / t
    seed **= a
    np.negative(seed, out=seed)
    with np.errstate(under="ignore"):
        np.exp(seed, out=seed)
    u = 1.0 / np.sqrt(seed @ w)
    err = math.inf
    for _ in range(SCALING_CAP):
        v = seed @ (u * w)
        err = float(np.max(np.abs(u * v - 1.0)))
        if err <= SCALING_TOL:
            break
        u = np.sqrt(u / v)
    else:
        raise ConvergenceError(
            f"diagonal scaling stalled at residual {err:.3e} (t={t})")
    for blk in _row_blocks(space.n):
        seed[blk] *= np.outer(u[blk], u)
    return seed


@dataclass(frozen=True)
class AtiValidationReport:
    nu: float
    eta_fit: float
    size_const: float
    size_const_no_h: float
    reg_const: float
    second_diff_const: float
    cancel_resid: float
    identity_resid: float
    unit_resid: float | None = None
    rgamma_const: dict = field(default_factory=dict)
    sampled: bool = False


@dataclass(frozen=True, eq=False)
class KernelStack:
    """Kernel tables Q_k, (Q_k f)(x) = sum Q_k(x,y) f(y) mu_y, and the refined
    `cubes` they were built on; construction, so every `replace` too, checks
    that the cubes share the stack's space and delta and cover its levels."""

    flavor: str
    space: object
    delta: float
    k_min: int
    k_max: int
    a: float
    q: dict[int, np.ndarray]
    cubes: object
    n_low: int = 1

    def __post_init__(self):
        _check_cubes(self.cubes, self.space, self.delta, self.k_min,
                     self.k_max)

    def levels(self):
        return range(self.k_min, self.k_max + 1)

    def cell_levels(self):
        """Levels read through cell averages: inhomogeneous k <= n_low."""
        top = self.n_low if self.flavor == "inhomogeneous" else self.k_min - 1
        return range(self.k_min, min(top, self.k_max) + 1)

    def interior_levels(self):
        """The middle third of the levels, both ends included: the band of the
        identity probes and of the band-limited probe fields."""
        levels = self.levels()
        return levels[len(levels) // 3: 2 * len(levels) // 3 + 1]

    def apply(self, k, values):
        if k not in self.q:
            raise RangeError(f"level {k} outside stack range "
                             f"[{self.k_min}, {self.k_max}]")
        return self.q[k] @ (values * self.space.weight)

    def apply_all(self, values):
        wx = values * self.space.weight
        out = np.zeros_like(values)
        for k in self.levels():
            out += self.q[k] @ wx
        return out


def _check_cubes(cubes, space, delta, k_min, k_max):
    """The one check that `cubes` live on `space` at `delta` and carry
    subcubes at the stack levels k_min..k_max; the builders run it before
    any table is made."""
    if cubes.space is not space or cubes.delta != delta:
        raise ParameterError("the cubes live on another space or at "
                             "another delta than the stack")
    if cubes.subcubes is None:
        raise RangeError("cubes carry no subcubes; call refine_subcubes")
    if k_max > cubes.k_max - cubes.j0:
        raise RangeError(f"stack levels reach {k_max} but subcubes "
                         f"stop at {cubes.k_max - cubes.j0}")
    if k_min < cubes.k_min:
        raise RangeError("stack starts coarser than the cube system")


def _difference_stack(space, delta, k_min, k_max, a, t_min, mean=0.0):
    """Q_k = P_{delta^k} - P_{delta^(k-1)} for k_min < k <= k_max and
    Q_{k_min} = P_{t_min} - mean, built finest-first: each P_{delta^(k-1)}
    is scaled while Q_k's level holds P_{delta^k}, and the difference is
    written into that table.  The coarsest P is read for the last time by
    Q_{k_min}: the mean is subtracted in place, and a t_min other than
    delta^k_min drops it before P_{t_min} is scaled.  So besides its levels
    a build holds no n x n table, only a block of rows.  The tables are
    returned read-only, in ascending level order."""
    q = {}
    p = build_semigroup(space, delta ** k_max, a=a)
    for k in range(k_max, k_min, -1):
        q[k] = p
        p = build_semigroup(space, delta ** (k - 1), a=a)
        np.subtract(q[k], p, out=q[k])
    if t_min != delta ** k_min:
        p = None  # freed before P_{t_min} is scaled
        p = build_semigroup(space, t_min, a=a)
    if mean:
        np.subtract(p, mean, out=p)
    q[k_min] = p
    for table in q.values():
        table.setflags(write=False)
    return dict(sorted(q.items()))


def build_exp_ati(cubes, k_range, a=1.0):
    """Homogeneous stack on the refined `cubes` at the integer levels
    k_range = (k_min, k_max): Q_k = P_{delta^k} - P_{delta^(k-1)}, the
    coarsest level capped by the mean projection, checked as a
    `KernelSpec`."""
    space, delta = cubes.space, cubes.delta
    k_min = integer_arg("k_range", k_range[0])
    k_max = integer_arg("k_range", k_range[-1])
    KernelSpec(a=a).check_levels(k_min, k_max)
    _check_cubes(cubes, space, delta, k_min, k_max)
    q = _difference_stack(space, delta, k_min, k_max, a, delta ** k_min,
                          mean=1.0 / space.total_mass)
    return KernelStack(flavor="homogeneous", space=space, delta=delta,
                       k_min=k_min, k_max=k_max, a=a, q=q, cubes=cubes)


def build_exp_iati(cubes, k_range, a=1.0, sigma=1.0, n_low=1):
    """Inhomogeneous stack on the refined `cubes` at the integer levels
    k_range = (0, k_max): Q_0 = P_sigma with unit integrals, then
    differences; the levels k <= n_low are read through cell averages
    downstream (`KernelStack.cell_levels`), checked as a `KernelSpec`.
    At sigma = delta^0 = 1 (the default), Q_0 is the table P_1 that the
    first difference reads, with no copy."""
    spec = KernelSpec(flavor="inhomogeneous", a=a, sigma=sigma, n_low=n_low)
    k_min = integer_arg("k_range", k_range[0])
    k_max = integer_arg("k_range", k_range[-1])
    spec.check_levels(k_min, k_max)
    space, delta = cubes.space, cubes.delta
    _check_cubes(cubes, space, delta, 0, k_max)
    q = _difference_stack(space, delta, 0, k_max, a, sigma)
    return KernelStack(flavor="inhomogeneous", space=space, delta=delta,
                       k_min=0, k_max=k_max, a=a, q=q, cubes=cubes,
                       n_low=spec.n_low)


# -- validation ---------------------------------------------------------------

def validate_ati(stack, seed=0):
    """Fit (nu, eta) and measure every condition constant of the stack.

    The levels are streamed, and every n x n pass runs over row blocks of
    about `BLOCK_BYTES` (`_row_blocks`).  A counting loop takes each level's
    noise floor and the total count of entries above the floors, which fixes
    the stride that thins the pooled nu fit to at most `FIT_POINTS` points.
    Every block is read whole, its entries at or below the floor set to 0.
    Pass 1 takes what does not depend on nu: the fit's strided samples of
    the masked log-kernel, and of the decay and refpoint terms, which it
    writes into column 0 of the fit's design matrix [t, 1]; the R_Gamma
    peaks for each Gamma of `RGAMMA_GAMMAS`; and the cancellation/unit
    residuals.  The fit (`_slope`) solves on that matrix in place,
    np.polyfit's steps without its copies.  After the fit, pass 2 finds
    each level's admissible pairs and forms its pair envelope once per
    block, with the same floating-point operations that both size constants
    read off it (the log of |Q_k|, with -inf written at or below the floor
    afterwards); the regularity chunks (one block's worth of pair rows each,
    in reused buffers) and the second-difference quadruples then read it.
    Maximizations are exhaustive up to `PAIR_BUDGET` admissible pairs and
    `QUAD_BUDGET` zipped quadruples per level and uniformly sampled (flagged)
    beyond; `PROBE_COUNT` random fields probe the identity, drawn from
    `seed`, an integer >= 0.  Returns the report; the stack is not modified.
    """
    space = stack.space
    n = space.n
    w = space.weight
    d = space.dist
    delta = stack.delta
    inhom = stack.flavor == "inhomogeneous"
    rng = np.random.default_rng(integer_arg("seed", seed, low=0))
    vtab = space.v_table()
    blocks = _row_blocks(n)

    # count: each level's floor and the above-floor total; the fit's stride
    # is then known before any log-kernel is formed
    floors, total = {}, 0
    for k in stack.levels():
        qk = stack.q[k]
        floors[k] = NOISE_FLOOR * max(qk.max(), -qk.min())  # the largest |Q_k|
        for blk in blocks:
            total += int(np.count_nonzero(np.abs(qk[blk]) > floors[k]))
    stride = total // FIT_POINTS + 1 if total > FIT_POINTS else 1
    zf = np.empty(-(-total // stride))
    # the fit's design matrix [t, 1]: pass 1 writes t into column 0
    lhs = np.ones((len(zf), 2))

    # pass 1: per-level pieces that do not depend on nu.  A block at global
    # offset o starts its fit samples at local index (-o) % stride, so the
    # fit sees every stride-th masked entry of the stacked levels
    rgamma = dict.fromkeys(RGAMMA_GAMMAS, 0.0)
    cancel, unit = 0.0, None
    per_level = []
    offset = filled = 0
    with np.errstate(invalid="ignore"):  # 0/0 ratios, skipped by fmax
        for k in stack.levels():
            scale = delta ** k
            vk = space.ball_measure(scale)
            logv = np.log(vk)
            dY = stack.cubes.refpoint_distance(k)
            if (inhom and k == 0) or not np.any(np.isfinite(dY)):
                h = np.zeros(space.n)
            else:
                h = (dY / scale) ** stack.a  # pair (x, y) takes max(h_x, h_y)
            for blk in blocks:
                q = np.abs(stack.q[k][blk])
                mask = q > floors[k]
                q *= mask
                # a 0 entry gives a ratio of 0 (or nan, which fmax skips),
                # below every above-floor ratio
                ratios = _r_gamma(d[blk], scale, vk[blk, None] + vtab[blk],
                                  RGAMMA_GAMMAS)
                for gamma, r in zip(RGAMMA_GAMMAS, ratios):
                    peak = np.fmax.reduce(np.divide(q, r, out=r), axis=None)
                    rgamma[gamma] = max(rgamma[gamma], float(peak))
                above = np.flatnonzero(mask)
                fit = above[(-offset) % stride::stride]
                offset += above.size
                rows, cols = _rows_cols(fit, n)
                rows += blk.start
                end = filled + fit.size
                z = np.log(q.ravel()[fit], out=zf[filled:end])
                z += 0.5 * (logv[rows] + logv[cols])
                t = lhs[filled:end, 0]
                t[:] = (d[blk].ravel()[fit] / scale) ** stack.a
                t += np.maximum(h[rows], h[cols])
                filled = end
            row = stack.q[k] @ w
            col = stack.q[k].T @ w
            if inhom and k == 0:
                unit = max(float(np.max(np.abs(row - 1.0))),
                           float(np.max(np.abs(col - 1.0))))
            else:
                cancel = max(cancel, float(np.max(np.abs(row))),
                             float(np.max(np.abs(col))))
            per_level.append((k, logv, h))

    # pooled envelope fit of nu on z vs (d/delta^k)^a + h-term
    if len(zf) >= 2 and np.ptp(lhs[:, 0]) > 0:
        nu = max(-_slope(lhs, zf), 1e-3)
    else:
        nu = 1.0
    zf = lhs = z = t = None  # pass 1's z and t are views of the fit arrays

    # pass 2: size constants, regularity peaks, second-difference quadruples
    size_const = size_const_no_h = 0.0
    sampled = False
    log_tau, log_peak, quads = [], [], []
    logenv = np.empty((n, n))
    chunk = blocks[0].stop
    num, other = np.empty((chunk, n)), np.empty((chunk, n))
    ok_buf = np.empty((chunk, n), dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k, logv, h in per_level:
            scale = delta ** k
            q_signed = stack.q[k]
            floor = floors[k]
            # the admissible pairs as flat positions, in row-major order
            pairs = np.concatenate([
                np.flatnonzero((d[blk] <= scale) & (d[blk] > 0))
                + blk.start * n for blk in blocks])
            # one block pass forms the pair envelope logenv = c + U, with
            # c = 0.5(log V_x + log V_y) and U = nu((d/delta^k)^a + h-term):
            # minus the log of each pair's decay bound (negation is exact
            # under round-to-nearest).  The size constants are the largest
            # z + U and z + nu (d/delta^k)^a over the above-floor entries,
            # z = log|Q_k| + c
            for blk in blocks:
                u = (d[blk] / scale) ** stack.a
                big_u = u + np.maximum(h[blk, None], h[None, :])
                big_u *= nu
                c = 0.5 * (logv[blk, None] + logv[None, :])
                if len(pairs):
                    np.add(c, big_u, out=logenv[blk])
                u *= nu
                q = np.abs(q_signed[blk])
                below = q <= floor
                z = np.log(q, out=q)
                np.copyto(z, -np.inf, where=below)
                z += c
                size_const = max(size_const, float(np.exp(
                    np.fmax.reduce(z + big_u, axis=None))))
                size_const_no_h = max(size_const_no_h, float(np.exp(
                    np.fmax.reduce(np.add(z, u, out=u), axis=None))))
            if len(pairs) == 0:
                continue
            if len(pairs) > PAIR_BUDGET:
                sampled = True
                pairs = pairs[rng.choice(len(pairs), size=PAIR_BUDGET,
                                         replace=False)]
            rows, cols = _rows_cols(pairs, n)
            # regularity: log tau is constant along a pair's row, so the
            # binned peaks and reg_const need only each pair's largest ratio.
            # They are maxima, so the pairs can go in row order, which keeps
            # the rows a chunk gathers in cache
            by_row = np.argsort(rows, kind="stable")
            # (mode="clip" lets take write straight into the buffer; every
            # index is in range)
            for lo in range(0, len(rows), chunk):
                r = rows[by_row[lo:lo + chunk]]
                c = cols[by_row[lo:lo + chunk]]
                m = len(r)
                diff = np.take(q_signed, r, axis=0, out=num[:m], mode="clip")
                diff -= np.take(q_signed, c, axis=0, out=other[:m],
                                mode="clip")
                np.abs(diff, out=diff)
                diff *= 2.0
                ok = np.greater(diff, 2.0 * floor, out=ok_buf[:m])
                # every entry's log (-inf at 0); the maximum reads the ok ones
                logratio = np.log(diff, out=diff)
                logratio += np.take(logenv, r, axis=0, out=other[:m],
                                    mode="clip")
                hit = ok.any(axis=1)
                log_tau.append(np.log(d[r, c] / scale)[hit])
                log_peak.append(np.max(logratio, axis=1, where=ok,
                                       initial=-np.inf)[hit])

            # second differences on zipped quadruples; eta enters after the fit
            budget = min(QUAD_BUDGET, len(rows))
            sampled = sampled or budget < len(rows)
            if budget >= 2:
                sel_a = rng.choice(len(rows), size=budget, replace=False)
                sel_b = rng.choice(len(rows), size=budget, replace=False)
                x, xp = rows[sel_a], cols[sel_a]
                y, yp = rows[sel_b], cols[sel_b]
                dd = np.abs(q_signed[x, y] - q_signed[xp, y]
                            - q_signed[x, yp] + q_signed[xp, yp])
                ok = dd > 4.0 * floor
                if ok.any():
                    logdd = np.log(dd, where=ok,
                                   out=np.full_like(dd, -np.inf))
                    logdd += logenv[x, y]
                    quads.append((logdd[ok], np.log(d[x, xp] / scale)[ok],
                                   np.log(d[y, yp] / scale)[ok]))

    lt = np.concatenate([[], *log_tau])
    lr = np.concatenate([[], *log_peak])
    if lt.size:
        bins = np.linspace(lt.min() - 1e-9, lt.max() + 1e-9, 13)
        which = np.digitize(lt, bins)
        centers, peaks = [], []
        for b in range(1, len(bins)):
            sel = which == b
            if sel.any():
                centers.append(0.5 * (bins[b - 1] + bins[b]))
                peaks.append(lr[sel].max())
        if len(centers) >= 3 and np.ptp(centers) > 0:
            fit = np.ones((len(centers), 2))
            fit[:, 0] = centers
            eta = _slope(fit, np.array(peaks))
        else:
            eta = 0.5
        eta = min(max(eta, 0.05), 0.999)
        reg_const = float(np.exp(np.max(lr - eta * lt)))
    else:
        eta, reg_const = 0.5, 0.0

    second = 0.0
    with np.errstate(over="ignore"):
        for logdd, ltx, lty in quads:
            second = max(second, float(np.exp(np.max(
                logdd - eta * ltx - eta * lty))))

    # identity residual on probe fields
    def l2(v):
        return math.sqrt(float(np.sum(v * v * w)))

    identity = 0.0
    if stack.flavor == "homogeneous":
        for i, j in enumerate(stack.interior_levels()):
            g = rng.standard_normal(space.n)
            f = stack.apply(j, g)
            nf = l2(f)
            if nf == 0:
                continue
            identity = max(identity, l2(stack.apply_all(f) - f) / nf)
            if i + 1 >= PROBE_COUNT:
                break
    else:
        for _ in range(PROBE_COUNT):
            g = rng.standard_normal(space.n) + rng.standard_normal()
            identity = max(identity, l2(stack.apply_all(g) - g) / l2(g))

    return AtiValidationReport(
        nu=float(nu), eta_fit=float(eta), size_const=size_const,
        size_const_no_h=size_const_no_h, reg_const=reg_const,
        second_diff_const=second, cancel_resid=cancel,
        identity_resid=identity, unit_resid=unit, rgamma_const=rgamma,
        sampled=sampled)


def _slope(lhs, z):
    """Slope of the least-squares line through the points (t, z), from the
    design matrix lhs = [t, 1]: the steps of np.polyfit(t, z, 1) on the
    caller's arrays, so the same bits without its copies of t and z and of
    the matrix.  lhs is scaled in place, column by column.  The column norms
    are polyfit's sums of squares without its N x 2 table of squares: t's is
    the last entry of a running sum, added in the same order, and the ones
    column's is exactly N."""
    t = lhs[:, 0]
    squares = t * t
    np.cumsum(squares, out=squares)
    scale = np.sqrt([squares[-1], len(lhs)])
    del squares
    t /= scale[0]
    lhs[:, 1] /= scale[1]
    c = np.linalg.lstsq(lhs, z, len(z) * np.finfo(float).eps)[0]
    return float(c[0] / scale[0])


def _rows_cols(flat, n):
    """Rows and columns of the flat positions `flat` of an n x n table."""
    rows = flat // n
    return rows, flat - rows * n


def _r_gamma(d, r, denom, gammas):
    """R_gamma(x, y; r) = (r/(r+d(x,y)))^gamma / (V_r(x) + V(x,y)) for each
    gamma in turn, from the distances `d` and the denominators `denom` of
    the same entries (a table or a block of its rows); the
    ratio is formed once, and the last table is made in its own buffer, so
    a single gamma holds two arrays of d's shape."""
    ratio = r / (r + d)
    for gamma in gammas[:-1]:
        out = ratio ** gamma
        out /= denom
        yield out
    ratio **= gammas[-1]
    ratio /= denom
    yield ratio


def r_gamma_integral_band(space, gamma, radii):
    """max over centers of sum_y R_gamma(x,y;r) mu_y, for each radius.

    The integrability lemma says these are bounded by a constant independent
    of r; the returned dict lets callers assert the band.
    """
    out = {}
    vtab = space.v_table()
    for r in radii:
        rmat = next(_r_gamma(space.dist, r,
                             space.ball_measure(r)[:, None] + vtab, (gamma,)))
        out[float(r)] = float(np.max(rmat @ space.weight))
    return out
