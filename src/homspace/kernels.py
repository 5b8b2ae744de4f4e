"""Surrogate kernel stacks with exponential decay and exact cancellation.

A symmetric Markov table ``P_t`` is built from the seed
``exp(-(d(x,y)/t)^a)`` by symmetric diagonal scaling until every row
integrates to one against mu.  Level kernels are consecutive differences
``Q_k = P_{delta^k} - P_{delta^(k-1)}``; the coarsest homogeneous level is
capped with the exact mean projection (the t -> infinity limit of ``P_t``),
so two-sided cancellation is exact and the stack telescopes to
``P_{delta^kmax} - mean``; every ``Q_k`` table is read-only.  Validation
fits the decay rate and smoothness exponent and measures every condition
constant in two passes over the levels, exhaustively up to ``PAIR_BUDGET``
pairs and ``QUAD_BUDGET`` quadruples per level and flagged as sampled
beyond; it returns a report and leaves the stack unmodified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError, RangeError

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


def mean_projection(space):
    """Kernel of the mu-mean projector: constant 1/mu(X)."""
    return np.full((space.n, space.n), 1.0 / space.total_mass)


def build_semigroup(space, t, a=1.0, tol=SCALING_TOL, max_sweeps=SCALING_CAP):
    """Symmetric mu-stochastic Markov table at length scale t.

    Iterative proportional fitting with one diagonal on both sides; the fixed
    point satisfies sum_y P(x,y) mu_y = 1 for every x and P is exactly
    symmetric.
    """
    if not t > 0:
        raise ParameterError("semigroup scale t must be positive")
    w = space.weight
    with np.errstate(under="ignore"):
        seed = np.exp(-((space.dist / t) ** a))
    u = 1.0 / np.sqrt(seed @ w)
    err = math.inf
    for _ in range(max_sweeps):
        v = seed @ (u * w)
        err = float(np.max(np.abs(u * v - 1.0)))
        if err <= tol:
            break
        u = np.sqrt(u / v)
    else:
        raise ConvergenceError(
            f"diagonal scaling stalled at residual {err:.3e} (t={t})")
    return np.outer(u, u) * seed


@dataclass
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


@dataclass
class KernelStack:
    """Dense per-level kernel tables Q_k with (Q_k f)(x) = sum Q_k(x,y) f(y) mu_y."""

    flavor: str
    space: object
    delta: float
    k_min: int
    k_max: int
    a: float
    q: dict[int, np.ndarray]
    sigma: float = 1.0
    n_low: int = 1
    coarse: str = "mean"

    def levels(self):
        return range(self.k_min, self.k_max + 1)

    def kernel(self, k):
        if k not in self.q:
            raise RangeError(f"level {k} outside stack range "
                             f"[{self.k_min}, {self.k_max}]")
        return self.q[k]

    def semigroup(self, t):
        """P_t of this stack's seed exponent, built on demand."""
        return build_semigroup(self.space, float(t), a=self.a)

    def apply(self, k, values):
        return self.kernel(k) @ (values * self.space.weight)

    def apply_all(self, values):
        wx = values * self.space.weight
        out = np.zeros_like(values)
        for k in self.levels():
            out += self.q[k] @ wx
        return out


def _difference_stack(space, delta, k_min, k_max, a, coarsest):
    """Q_k = P_{delta^k} - P_{delta^(k-1)} for k_min < k <= k_max and
    Q_{k_min} = coarsest(P_{delta^k_min}); at most two P_t tables are live.
    The tables are returned read-only."""
    prev = build_semigroup(space, delta ** k_min, a=a)
    q = {k_min: coarsest(prev)}
    for k in range(k_min + 1, k_max + 1):
        cur = build_semigroup(space, delta ** k, a=a)
        q[k] = cur - prev
        prev = cur
    for table in q.values():
        table.setflags(write=False)
    return q


def build_exp_ati(space, cubes, k_range=None, a=1.0, coarse="mean"):
    """Homogeneous stack: Q_k = P_{delta^k} - P_{delta^(k-1)} with the
    coarsest level capped by the mean projection (coarse="mean") or by
    P_{delta^(k_min-1)} (coarse="semigroup")."""
    delta = cubes.delta
    if k_range is None:
        k_range = (cubes.k_min, max(cubes.k_min, cubes.k_max - max(cubes.j0, 1)))
    k_min, k_max = int(k_range[0]), int(k_range[-1])
    if coarse == "mean":
        def cap(p):
            return p - mean_projection(space)
    elif coarse == "semigroup":
        def cap(p):
            return p - build_semigroup(space, delta ** (k_min - 1), a=a)
    else:
        raise ParameterError(f"unknown coarse cap {coarse!r}")
    q = _difference_stack(space, delta, k_min, k_max, a, cap)
    return KernelStack(flavor="homogeneous", space=space, delta=delta,
                       k_min=k_min, k_max=k_max, a=a, q=q, coarse=coarse)


def build_exp_iati(space, cubes, k_range=None, a=1.0, sigma=1.0, n_low=1):
    """Inhomogeneous stack: Q_0 = P_sigma with unit integrals, then
    differences; the first n_low levels are treated by cell averages
    downstream."""
    delta = cubes.delta
    if k_range is None:
        k_max = max(1, cubes.k_max - max(cubes.j0, 1))
    else:
        if int(k_range[0]) != 0:
            raise ParameterError("inhomogeneous stacks start at level 0")
        k_max = int(k_range[-1])
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    q = _difference_stack(space, delta, 0, k_max, a,
                          lambda p: build_semigroup(space, sigma, a=a))
    return KernelStack(flavor="inhomogeneous", space=space, delta=delta,
                       k_min=0, k_max=k_max, a=a, q=q, sigma=sigma,
                       n_low=int(n_low))


# -- validation ---------------------------------------------------------------

def validate_ati(stack, cubes, gamma_list=(1.0, 2.0), seed=0):
    """Fit (nu, eta) and measure every condition constant of the stack.

    Pass 1 takes what does not depend on nu (masked log-kernel, decay and
    refpoint terms, cancellation/unit residuals, the R_Gamma envelope); pass 2
    takes the size constants, regularity peaks and second differences after
    the pooled nu fit.  Maximizations are exhaustive up to `PAIR_BUDGET`
    admissible pairs and `QUAD_BUDGET` zipped quadruples per level and
    uniformly sampled (flagged) beyond; `PROBE_COUNT` random fields probe the
    identity.  Returns the report; the stack is not modified.
    """
    space = stack.space
    w = space.weight
    d = space.dist
    delta = stack.delta
    inhom = stack.flavor == "inhomogeneous"
    rng = np.random.default_rng(seed)
    vtab = space.v_table()

    # pass 1: per-level pieces that do not depend on nu
    rgamma = {float(g): 0.0 for g in gamma_list}
    cancel, unit = 0.0, None
    per_level = []
    for k in stack.levels():
        scale = delta ** k
        vk = space.ball_measure(scale)
        logv = np.log(vk)
        dY = cubes.refpoint_distance(k)
        if (inhom and k == 0) or not np.any(np.isfinite(dY)):
            h = np.zeros(space.n)
        else:
            h = (dY / scale) ** stack.a  # pair (x, y) takes max(h_x, h_y)
        q = np.abs(stack.q[k])
        floor = NOISE_FLOOR * q.max()
        mask = q > floor
        z = np.log(q, where=mask, out=np.full_like(q, -np.inf))
        z += 0.5 * (logv[:, None] + logv[None, :])
        uq = ((d / scale) ** stack.a)[mask]
        hq = np.maximum(h[:, None], h[None, :])[mask]
        per_level.append((k, floor, logv, h, z[mask], uq, uq + hq))
        if mask.any():
            for gamma in gamma_list:
                r = (scale / (scale + d)) ** gamma / (vk[:, None] + vtab)
                rgamma[float(gamma)] = max(rgamma[float(gamma)],
                                           float(np.max(q[mask] / r[mask])))
        row = stack.q[k] @ w
        col = stack.q[k].T @ w
        if inhom and k == 0:
            unit = max(float(np.max(np.abs(row - 1.0))),
                       float(np.max(np.abs(col - 1.0))))
        else:
            cancel = max(cancel, float(np.max(np.abs(row))),
                         float(np.max(np.abs(col))))

    # pooled envelope fit of nu on z vs (d/delta^k)^a + h-term
    zf = np.concatenate([z for *_, z, _, _ in per_level])
    tf = np.concatenate([tq for *_, tq in per_level])
    if len(zf) > 2_000_000:
        stride = len(zf) // 2_000_000 + 1
        zf, tf = zf[::stride], tf[::stride]
    if len(zf) >= 2 and np.ptp(tf) > 0:
        nu = max(-float(np.polyfit(tf, zf, 1)[0]), 1e-3)
    else:
        nu = 1.0

    # pass 2: size constants, regularity peaks, second-difference quadruples
    size_const = size_const_no_h = 0.0
    sampled = False
    log_tau, log_peak, quads = [], [], []
    with np.errstate(over="ignore"):
        for k, floor, logv, h, z, uq, tq in per_level:
            if z.size:
                size_const = max(size_const,
                                 float(np.exp(np.max(z + nu * tq))))
                size_const_no_h = max(size_const_no_h,
                                      float(np.exp(np.max(z + nu * uq))))
            scale = delta ** k
            q_signed = stack.q[k]
            rows, cols = np.nonzero((d <= scale) & (d > 0))
            if len(rows) == 0:
                continue
            if len(rows) > PAIR_BUDGET:
                sampled = True
                sel = rng.choice(len(rows), size=PAIR_BUDGET, replace=False)
                rows, cols = rows[sel], cols[sel]
            # regularity: log tau is constant along a pair's row, so the
            # binned peaks and reg_const need only each pair's largest ratio
            for lo in range(0, len(rows), 512):
                r = rows[lo:lo + 512]
                c = cols[lo:lo + 512]
                num = 2.0 * np.abs(q_signed[r] - q_signed[c])
                logb = (-0.5 * (logv[r][:, None] + logv[None, :])
                        - nu * ((d[r] / scale) ** stack.a
                                + np.maximum(h[r, None], h[None, :])))
                ok = num > 2.0 * floor
                logratio = np.log(
                    num, where=ok, out=np.full_like(num, -np.inf)) - logb
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
                    logbase = (0.5 * (logv[x] + logv[y])
                               + nu * ((d[x, y] / scale) ** stack.a
                                       + np.maximum(h[x], h[y])))
                    logdd = np.log(dd, where=ok,
                                   out=np.full_like(dd, -np.inf)) + logbase
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
            eta = float(np.polyfit(centers, peaks, 1)[0])
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

    levels = list(stack.levels())
    identity = 0.0
    if stack.flavor == "homogeneous":
        lo = levels[len(levels) // 3] if len(levels) >= 3 else levels[0]
        hi = levels[2 * len(levels) // 3] if len(levels) >= 3 else levels[-1]
        for i, j in enumerate(range(lo, hi + 1)):
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


def r_gamma_integral_band(space, gamma, radii):
    """max over centers of sum_y R_gamma(x,y;r) mu_y, for each radius.

    The integrability lemma says these are bounded by a constant independent
    of r; the returned dict lets callers assert the band.
    """
    out = {}
    vtab = space.v_table()
    for r in radii:
        vr = space.ball_measure(r)
        rmat = (r / (r + space.dist)) ** gamma / (vr[:, None] + vtab)
        out[float(r)] = float(np.max(rmat @ space.weight))
    return out
