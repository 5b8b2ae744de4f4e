"""Surrogate kernel stacks with exponential decay and exact cancellation.

A symmetric Markov table ``P_t`` is built from the seed
``exp(-(d(x,y)/t)^a)`` by symmetric diagonal scaling until every row
integrates to one against mu.  Level kernels are consecutive differences
``Q_k = P_{delta^k} - P_{delta^(k-1)}``; the coarsest homogeneous level is
capped with the exact mean projection (the t -> infinity limit of ``P_t``),
so two-sided cancellation is exact and the stack telescopes to
``P_{delta^kmax} - mean``.  Validation fits the decay rate and smoothness
exponent and measures every condition constant, flagging sampled
maximizations.
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
    noise_floor: float = NOISE_FLOOR


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
    nu: float | None = None
    eta: float | None = None
    report: AtiValidationReport | None = None

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
    Q_{k_min} = coarsest(P_{delta^k_min}); at most two P_t tables are live."""
    prev = build_semigroup(space, delta ** k_min, a=a)
    q = {k_min: coarsest(prev)}
    for k in range(k_min + 1, k_max + 1):
        cur = build_semigroup(space, delta ** k, a=a)
        q[k] = cur - prev
        prev = cur
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

def _refpoint_wterm(stack, cubes, k):
    """((max(d(x,Y^k), d(y,Y^k))/delta^k)^a; zero where Y^k is empty."""
    dY = cubes.refpoint_distance(k)
    if not np.any(np.isfinite(dY)):
        return np.zeros((stack.space.n, stack.space.n))
    scaled = (dY / stack.delta ** k) ** stack.a
    return np.maximum(scaled[:, None], scaled[None, :])


def _admissible_pairs(space, radius):
    d = space.dist
    rows, cols = np.nonzero((d <= radius) & (d > 0))
    return rows, cols


def validate_ati(stack, cubes, gamma_list=(1.0, 2.0), pair_budget=4_000,
                 quad_budget=2_000, probe_count=6, seed=0):
    """Fit (nu, eta) and measure every condition constant of the stack.

    Maximizations over pairs/quadruples are exhaustive up to `pair_budget`
    admissible pairs per level and uniformly sampled (flagged) beyond.
    Attaches the report to the stack and returns it.
    """
    space = stack.space
    w = space.weight
    d = space.dist
    delta = stack.delta
    rng = np.random.default_rng(seed)
    sampled = False

    vk = {k: space.ball_measure(delta ** k) for k in stack.levels()}
    vtab = space.v_table()

    def level_arrays(k):
        q = np.abs(stack.q[k])
        floor = NOISE_FLOOR * q.max()
        mask = q > floor
        uq = (d / delta ** k) ** stack.a
        wq = _refpoint_wterm(stack, cubes, k)
        if stack.flavor == "inhomogeneous" and k == 0:
            wq = np.zeros_like(wq)
        logv = np.log(vk[k])
        z = np.log(q, where=mask, out=np.full_like(q, -np.inf))
        z += 0.5 * (logv[:, None] + logv[None, :])
        return q, mask, uq, wq, z, floor

    # pass 1: pooled envelope fit of nu on z vs (d/delta^k)^a + h-term
    zs, ts = [], []
    for k in stack.levels():
        _, mask, uq, wq, z, _ = level_arrays(k)
        if mask.any():
            zs.append(z[mask])
            ts.append((uq + wq)[mask])
    if zs:
        zf = np.concatenate(zs)
        tf = np.concatenate(ts)
        if len(zf) > 2_000_000:
            stride = len(zf) // 2_000_000 + 1
            zf, tf = zf[::stride], tf[::stride]
        if len(zf) >= 2 and np.ptp(tf) > 0:
            nu = max(-float(np.polyfit(tf, zf, 1)[0]), 1e-3)
        else:
            nu = 1.0
    else:
        nu = 1.0

    # pass 2: per-level constants
    size_const = size_const_no_h = second = 0.0
    log_tau_all, log_ratio_all = [], []
    second_stash = []
    with np.errstate(over="ignore"):
        for k in stack.levels():
            q_signed = stack.q[k]
            q, mask, uq, wq, z, floor = level_arrays(k)
            if mask.any():
                size_const = max(size_const, float(
                    np.exp(np.max(z[mask] + nu * (uq + wq)[mask]))))
                size_const_no_h = max(size_const_no_h, float(
                    np.exp(np.max(z[mask] + nu * uq[mask]))))

            rows, cols = _admissible_pairs(space, delta ** k)
            if len(rows) == 0:
                continue
            if len(rows) > pair_budget:
                sampled = True
                sel = rng.choice(len(rows), size=pair_budget, replace=False)
                rows, cols = rows[sel], cols[sel]
            logv = np.log(vk[k])
            # regularity ratios, chunked over pairs to bound memory
            for lo in range(0, len(rows), 512):
                r = rows[lo:lo + 512]
                c = cols[lo:lo + 512]
                tau = d[r, c] / delta ** k
                num = 2.0 * np.abs(q_signed[r] - q_signed[c])
                logb = (-0.5 * (logv[r][:, None] + logv[None, :])
                        - nu * (uq[r] + wq[r]))
                ok = num > 2.0 * floor
                if not ok.any():
                    continue
                logratio = np.log(
                    num, where=ok, out=np.full_like(num, -np.inf)) - logb
                lt = np.broadcast_to(np.log(tau)[:, None], num.shape)[ok]
                log_tau_all.append(lt)
                log_ratio_all.append(logratio[ok])

            # second differences on zipped quadruples
            budget = min(quad_budget, len(rows))
            if budget < len(rows):
                sampled = True
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
                               + nu * (uq[x, y] + wq[x, y]))
                    tau_x = d[x, xp] / delta ** k
                    tau_y = d[y, yp] / delta ** k
                    # eta enters below after the fit; stash raw pieces
                    second_stash.append(
                        (np.log(dd, where=ok,
                                out=np.full_like(dd, -np.inf)) + logbase,
                         np.log(tau_x), np.log(tau_y), ok))

    if log_tau_all:
        lt = np.concatenate(log_tau_all)
        lr = np.concatenate(log_ratio_all)
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

    with np.errstate(over="ignore"):
        for logdd, ltx, lty, ok in second_stash:
            val = logdd - eta * ltx - eta * lty
            if ok.any():
                second = max(second, float(np.exp(np.max(val[ok]))))

    # cancellation / unit integrals
    cancel = 0.0
    unit = None
    for k in stack.levels():
        row = stack.q[k] @ w
        col = stack.q[k].T @ w
        resid = max(float(np.max(np.abs(row))), float(np.max(np.abs(col))))
        if stack.flavor == "inhomogeneous" and k == 0:
            unit = max(float(np.max(np.abs(row - 1.0))),
                       float(np.max(np.abs(col - 1.0))))
        else:
            cancel = max(cancel, resid)

    # identity residual on probe fields
    def l2(v):
        return math.sqrt(float(np.sum(v * v * w)))

    levels = list(stack.levels())
    identity = 0.0
    if stack.flavor == "homogeneous":
        lo = levels[len(levels) // 3] if len(levels) >= 3 else levels[0]
        hi = levels[2 * len(levels) // 3] if len(levels) >= 3 else levels[-1]
        js = range(lo, hi + 1)
        for i, j in enumerate(js):
            g = rng.standard_normal(space.n)
            f = stack.apply(j, g)
            nf = l2(f)
            if nf == 0:
                continue
            identity = max(identity, l2(stack.apply_all(f) - f) / nf)
            if i + 1 >= probe_count:
                break
    else:
        for _ in range(probe_count):
            g = rng.standard_normal(space.n) + rng.standard_normal()
            identity = max(identity, l2(stack.apply_all(g) - g) / l2(g))

    # comparison against the polynomial envelope R_Gamma
    rgamma = {float(g): 0.0 for g in gamma_list}
    for k in stack.levels():
        q = np.abs(stack.q[k])
        mask = q > NOISE_FLOOR * q.max()
        if not mask.any():
            continue
        scale = delta ** k
        for gamma in gamma_list:
            r = (scale / (scale + d)) ** gamma / (vk[k][:, None] + vtab)
            rgamma[float(gamma)] = max(rgamma[float(gamma)],
                                       float(np.max(q[mask] / r[mask])))

    report = AtiValidationReport(
        nu=float(nu), eta_fit=float(eta), size_const=size_const,
        size_const_no_h=size_const_no_h, reg_const=reg_const,
        second_diff_const=second, cancel_resid=cancel,
        identity_resid=identity, unit_resid=unit, rgamma_const=rgamma,
        sampled=sampled)
    stack.nu = report.nu
    stack.eta = report.eta_fit
    stack.report = report
    return report


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
