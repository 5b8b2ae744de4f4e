"""Lebesgue, Besov, Triebel-Lizorkin and test-function norms.

All norms are exact finite sums over the built level range of the kernel
stack; the usual modifications apply at p = inf or q = inf.  The p = inf
Triebel-Lizorkin scale takes a Carleson-type supremum over dyadic cubes and
therefore needs a cube system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FlavorMismatchError, ParameterError
from .operators import Field, _cell_average

INF = math.inf


@dataclass
class NormSpec:
    """Parameter bundle selecting a norm.

    s: smoothness; p, q in (0, inf]; u: inner exponent of the u-variant
    difference norms; beta, gamma: test-class exponents; c_tilde: ball
    multiplier of the difference norms; n_low: coarse-level count N of the
    inhomogeneous theory (None = take it from the stack).
    """

    s: float
    p: float
    q: float
    u: float = 1.0
    beta: float = 0.75
    gamma: float = 0.75
    delta: float = 0.5
    c_tilde: float = 1.0
    flavor: str = "homogeneous"
    n_low: int | None = None

    def __post_init__(self):
        if not self.p > 0 or not self.q > 0:
            raise ParameterError("p and q must be positive (inf allowed)")
        if not self.u > 0 or self.u == INF:
            raise ParameterError("u must be finite and positive")
        if not 0 < self.delta < 1:
            raise ParameterError("delta must lie in (0,1)")
        if not self.c_tilde > 0:
            raise ParameterError("c_tilde must be positive")
        if self.flavor not in ("homogeneous", "inhomogeneous"):
            raise ParameterError(f"unknown flavor {self.flavor!r}")


def lebesgue_norm(f, p):
    """(sum |f|^p dmu)^(1/p); max |f| at p = inf."""
    if not p > 0:
        raise ParameterError("p must be positive")
    v = np.abs(f.values)
    if p == INF:
        return float(v.max())
    return float(np.sum(v ** p * f.space.weight) ** (1.0 / p))


def lq_scale_combine(terms, q):
    """(sum t^q)^(1/q) over scale terms, sup at q = inf; empty sums are 0."""
    t = np.asarray(list(terms), dtype=float)
    if t.size == 0:
        return 0.0
    if q == INF:
        return float(t.max())
    return float(np.sum(t ** q) ** (1.0 / q))


def _check_flavor(spec, stack):
    if spec.flavor != stack.flavor:
        raise FlavorMismatchError(
            f"spec flavor {spec.flavor!r} vs stack flavor {stack.flavor!r}")


def _cell_block(f, spec, stack, cubes, n_low):
    """{sum_{k<=N} sum_{alpha,m} mu(Q^{k,m}) [m_Q(|Q_k f|)]^p}^(1/p)."""
    ww, aa = [], []
    for k in range(0, n_low + 1):
        _, _, _, wgt, sub_assign = cubes.sample_arrays(k)
        ww.append(wgt)
        aa.append(_cell_average(stack.space, sub_assign, len(wgt),
                                np.abs(stack.apply(k, f.values))))
    ww, aa = np.concatenate(ww), np.concatenate(aa)
    if spec.p == INF:
        return float(aa.max())
    return float(np.sum(ww * aa ** spec.p) ** (1.0 / spec.p))


def besov_norm(f, spec, stack, cubes=None):
    """Homogeneous: [sum_k delta^(-ksq) ||Q_k f||_p^q]^(1/q).

    Inhomogeneous adds the cell-average block over levels k <= N and starts
    the weighted sum at N+1.
    """
    _check_flavor(spec, stack)
    delta = stack.delta
    if spec.flavor == "homogeneous":
        terms = [delta ** (-k * spec.s)
                 * lebesgue_norm(Field(f.space, stack.apply(k, f.values)), spec.p)
                 for k in stack.levels()]
        return lq_scale_combine(terms, spec.q)
    n_low = spec.n_low if spec.n_low is not None else stack.n_low
    if cubes is None:
        raise ParameterError("inhomogeneous Besov norm needs a cube system")
    block = _cell_block(f, spec, stack, cubes, n_low)
    terms = [delta ** (-k * spec.s)
             * lebesgue_norm(Field(f.space, stack.apply(k, f.values)), spec.p)
             for k in stack.levels() if k > n_low]
    return block + lq_scale_combine(terms, spec.q)


def _pointwise_scale_aggregate(f, spec, stack, ks):
    """[sum_k delta^(-ksq) |Q_k f(x)|^q]^(1/q) as a vector over x."""
    delta = stack.delta
    n = stack.space.n
    if spec.q == INF:
        agg = np.zeros(n)
        for k in ks:
            agg = np.maximum(agg, delta ** (-k * spec.s)
                             * np.abs(stack.apply(k, f.values)))
        return agg
    acc = np.zeros(n)
    for k in ks:
        acc += (delta ** (-k * spec.s) * np.abs(stack.apply(k, f.values))) ** spec.q
    return acc ** (1.0 / spec.q)


def _carleson_sup(f, spec, stack, cubes, level_floor):
    """sup over cubes at levels l >= level_floor of the in-cube q-average of
    the truncated scale aggregate sum_{k>=l}."""
    delta = stack.delta
    space = stack.space
    w = space.weight
    best = 0.0
    # per-point contributions per level, reused across the l-suffixes
    contrib = {k: np.abs(stack.apply(k, f.values)) for k in stack.levels()}
    levels = sorted(set(cubes.levels) & set(stack.levels()))
    levels = [l for l in levels if l >= level_floor]
    for l in levels:
        ks = [k for k in stack.levels() if k >= l]
        if spec.q == INF:
            agg = np.zeros(space.n)
            for k in ks:
                agg = np.maximum(agg, delta ** (-k * spec.s) * contrib[k])
            for mem in cubes.levels[l].members:
                best = max(best, float(agg[mem].max()))
        else:
            acc = np.zeros(space.n)
            for k in ks:
                acc += (delta ** (-k * spec.s) * contrib[k]) ** spec.q
            for mem in cubes.levels[l].members:
                avg = float((acc[mem] * w[mem]).sum() / w[mem].sum())
                best = max(best, avg ** (1.0 / spec.q))
    return best


def triebel_lizorkin_norm(f, spec, stack, cubes=None):
    """L^p of the pointwise l^q scale aggregate; at p = inf a Carleson-type
    supremum over dyadic cubes (inhomogeneous: plus the coarse cell block)."""
    _check_flavor(spec, stack)
    if spec.flavor == "homogeneous":
        if spec.p == INF:
            if cubes is None:
                raise ParameterError("p = inf Triebel-Lizorkin needs cubes")
            return _carleson_sup(f, spec, stack, cubes, -10 ** 9)
        agg = _pointwise_scale_aggregate(f, spec, stack, list(stack.levels()))
        return lebesgue_norm(Field(f.space, agg), spec.p)
    n_low = spec.n_low if spec.n_low is not None else stack.n_low
    if cubes is None:
        raise ParameterError("inhomogeneous Triebel-Lizorkin norm needs cubes")
    block = _cell_block(f, spec, stack, cubes, n_low)
    fine = [k for k in stack.levels() if k > n_low]
    if spec.p == INF:
        return max(block, _carleson_sup(f, spec, stack, cubes, n_low + 1))
    agg = _pointwise_scale_aggregate(f, spec, stack, fine)
    return block + lebesgue_norm(Field(f.space, agg), spec.p)


def truncation_risk(f, spec, stack):
    """Fraction of the homogeneous scale sum's q-mass on the two extreme
    levels.

    With the default level policy (coarse cap = mean projection, fine cap
    past net saturation) the built range is effectively all of Z and this is
    tiny; a user-restricted range that cuts live scales shows up here.
    """
    delta = stack.delta
    terms = np.array([
        (delta ** (-k * spec.s)
         * lebesgue_norm(Field(f.space, stack.apply(k, f.values)), spec.p))
        for k in stack.levels()])
    q = spec.q if spec.q != INF else 1.0
    total = float(np.sum(terms ** q))
    if total == 0 or len(terms) < 3:
        return 0.0
    return float((terms[0] ** q + terms[-1] ** q) / total)


def test_function_norm(f, x1, r, beta, gamma):
    """Smallest constant C for the size and regularity conditions of the
    test class centered at x1 with width r; exact by exhaustive maximization.

    Size: |f(x)| <= C [V_r(x1) + V(x1,x)]^-1 (r/(r+d(x1,x)))^gamma.
    Regularity, for d(x,y) <= (2 A0)^-1 [r + d(x1,x)]:
    |f(x)-f(y)| <= C (d(x,y)/(r+d(x1,x)))^beta * size-RHS(x).
    """
    if not r > 0:
        raise ParameterError("r must be positive")
    if not 0 < beta <= 1:
        raise ParameterError("beta must lie in (0, 1]")
    space = f.space
    d = space.dist
    v = f.values
    vr = float(space.ball_measure(r)[x1])
    vx = space.v_table()[x1]
    size_rhs = (r / (r + d[x1])) ** gamma / (vr + vx)
    best = float(np.max(np.abs(v) / size_rhs))
    adm = d <= (r + d[x1])[:, None] / (2 * space.a0)
    np.fill_diagonal(adm, False)
    if adm.any():
        num = np.abs(v[:, None] - v[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = ((d / (r + d[x1])[:, None]) ** beta) * size_rhs[:, None]
            ratio = np.where(adm & (rhs > 0), num / rhs, 0.0)
        best = max(best, float(ratio.max()))
    return best


@dataclass
class AdmissibilityReport:
    p_threshold: float
    violations: dict[str, list[str]]

    def ok(self, family):
        return not self.violations.get(family)

    @property
    def admissible(self):
        return all(not v for v in self.violations.values())


def p_threshold(s, bg, omega):
    """max(omega/(omega+bg), omega/(omega+bg+s))."""
    return max(omega / (omega + bg), omega / (omega + bg + s))


def admissible_range(spec, omega, eta):
    """Check (s, p, q, beta, gamma) against each space family's window."""
    bg = min(spec.beta, spec.gamma)
    pth = p_threshold(spec.s, bg, omega) if omega + bg + spec.s > 0 else INF
    out = {"common": [], "besov": [], "triebel": []}

    if not (0 < spec.beta < eta):
        out["common"].append(f"beta={spec.beta} outside (0, eta={eta})")
    if not (0 < spec.gamma < eta):
        out["common"].append(f"gamma={spec.gamma} outside (0, eta={eta})")
    if not (-bg < spec.s < bg):
        out["common"].append(
            f"s={spec.s} outside (-(beta^gamma), beta^gamma)=(-{bg},{bg})")

    excess = omega * max(1.0 / spec.p - 1.0, 0.0) if spec.p != INF else 0.0
    lo_beta = max(0.0, -spec.s + excess)
    if not (lo_beta < spec.beta):
        out["common"].append(
            f"beta={spec.beta} fails beta > max(0, -s+omega(1/p-1)_+)={lo_beta}")
    lo_gamma = max(spec.s, excess) if spec.flavor == "homogeneous" else excess
    if not (lo_gamma < spec.gamma):
        out["common"].append(
            f"gamma={spec.gamma} fails gamma > {lo_gamma}")

    if not spec.p > pth:
        out["besov"].append(f"p={spec.p} not above p(s,beta^gamma)={pth}")
    if not spec.p > pth:
        out["triebel"].append(f"p={spec.p} not above p(s,beta^gamma)={pth}")
    if not spec.q > pth:
        out["triebel"].append(f"q={spec.q} not above p(s,beta^gamma)={pth}")
    return AdmissibilityReport(p_threshold=pth, violations=out)
