"""Lebesgue, Besov, Triebel-Lizorkin and test-function norms.

Both scales read one field's `LevelTable` of Q_k f: a Field is tabled on
entry, and the lab's experiments pass the tables `LevelTable.many` built
for their whole ensemble.  Each norm here and in `difference` takes two
reductions, `_lp` over points and `_lq` over levels (maxima at exponent
inf): B^s_{p,q} is the `_lq` of delta^(-ks) times the `_lp` of each Q_k f,
F^s_{p,q} the `_lp` of the pointwise `_lq`.  The inhomogeneous flavor puts
one block of subcube averages in place of the levels `stack.cell_levels()`
(k <= N).  The p = inf Triebel-Lizorkin scale takes a Carleson-type
supremum over the dyadic cubes the stack was built on (`stack.cubes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicSpec
from .errors import FlavorMismatchError, ParameterError, real_arg
from .kernels import KernelSpec
from .operators import LevelTable, _cell_average

INF = math.inf


def positive_exponent(name, v):
    """`v` when it is a real number > 0; inf is allowed."""
    return real_arg(name, v, lambda e: e > 0, "> 0 (inf allowed)")


def check_scales(c_tilde, delta):
    """The ball multiplier c_tilde > 0 and the scale ratio delta in (0, 1)
    of the difference norms."""
    real_arg("c_tilde", c_tilde, lambda v: 0 < v < INF, "> 0")
    DyadicSpec(delta=delta)


@dataclass(frozen=True)
class NormSpec:
    """Parameter bundle selecting a norm.

    s: smoothness; p, q in (0, inf]; u: inner exponent of the u-variant
    difference norms; beta, gamma: test-class exponents; c_tilde: ball
    multiplier of the difference norms; delta and flavor: those of the
    kernel stack the Besov and Triebel-Lizorkin norms read (delta is also
    the scale ratio of the difference norms).
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

    def __post_init__(self):
        for name in ("s", "beta", "gamma"):
            real_arg(name, getattr(self, name))
        positive_exponent("p", self.p)
        positive_exponent("q", self.q)
        real_arg("u", self.u, lambda v: 0 < v < INF, "finite and > 0")
        check_scales(self.c_tilde, self.delta)
        KernelSpec(flavor=self.flavor)


def _lp(values, p, measure):
    """(sum v^p mu)^(1/p) of nonnegative values; their max at p = inf."""
    if p == INF:
        return float(np.max(values))
    return float(np.sum(values ** p * measure) ** (1.0 / p))


def _lq(values, q, weight=1.0, axis=None):
    """(sum w t^q)^(1/q) of nonnegative terms t along `axis`, max w t at
    q = inf (the weight rules of `difference.scale_weights`); empty sums
    are 0."""
    if q == INF:
        return np.max(weight * values, axis=axis, initial=0.0)
    return np.sum(weight * values ** q, axis=axis) ** (1.0 / q)


def lebesgue_norm(f, p):
    """(sum |f|^p dmu)^(1/p); max |f| at p = inf."""
    positive_exponent("p", p)
    return _lp(np.abs(f.values), p, f.space.weight)


def _besov_terms(mags, levels, spec, stack):
    """delta^(-ks) ||Q_k f||_p for each level k and its row |Q_k f|."""
    return np.array([stack.delta ** (-k * spec.s)
                     * _lp(row, spec.p, stack.space.weight)
                     for k, row in zip(levels, mags)])


def _check_stack(spec, stack):
    """The spec must have the stack's flavor and delta."""
    if spec.flavor != stack.flavor:
        raise FlavorMismatchError(
            f"spec flavor {spec.flavor!r} vs stack flavor {stack.flavor!r}")
    if spec.delta != stack.delta:
        raise ParameterError(
            f"spec delta {spec.delta!r} vs stack delta {stack.delta!r}")


def _block_and_rows(f, spec, stack):
    """The table's cell block over `stack.cell_levels()` (None when there
    are none) and the remaining levels with their rows |Q_k f|; the spec
    must have the stack's flavor and delta."""
    _check_stack(spec, stack)
    mags = np.abs(LevelTable.of(f, stack).rows)
    cells = stack.cell_levels()
    block = _cell_block(mags[:len(cells)], spec, stack) if cells else None
    return block, stack.levels()[len(cells):], mags[len(cells):]


def _cell_block(mags, spec, stack):
    """{sum_{k<=N} sum_{alpha,m} mu(Q^{k,m}) [m_Q(|Q_k f|)]^p}^(1/p)."""
    tables = [stack.cubes.sample_arrays(k) for k in stack.cell_levels()]
    aa = np.concatenate([_cell_average(stack.space, t.sub_assign,
                                       len(t.weight), row)
                         for t, row in zip(tables, mags)])
    return _lp(aa, spec.p, np.concatenate([t.weight for t in tables]))


def besov_norm(f, spec, stack):
    """Homogeneous: [sum_k delta^(-ksq) ||Q_k f||_p^q]^(1/q).

    Inhomogeneous adds the cell-average block over levels k <= N and starts
    the weighted sum at N+1.
    """
    block, levels, mags = _block_and_rows(f, spec, stack)
    value = float(_lq(_besov_terms(mags, levels, spec, stack), spec.q))
    return value if block is None else block + value


def _carleson_sup(terms, levels, spec, cubes):
    """sup over the cubes of levels l of the in-cube q-average of the
    pointwise l^q sum of the terms at the levels k >= l."""
    rows = [i for i, l in enumerate(levels) if l in cubes.levels]
    if spec.q == INF:
        # the cubes of a level partition the space
        return float(terms[rows[0]:].max()) if rows else 0.0
    powers = terms ** spec.q
    best = 0.0
    for i in rows:
        lv = cubes.levels[levels[i]]
        avg = _cell_average(cubes.space, lv.assign, len(lv.centers),
                            powers[i:].sum(axis=0))
        best = max(best, float(avg.max()) ** (1.0 / spec.q))
    return best


def triebel_lizorkin_norm(f, spec, stack):
    """L^p of the pointwise l^q scale aggregate; at p = inf a Carleson-type
    supremum over dyadic cubes (inhomogeneous: plus the coarse cell block)."""
    block, levels, mags = _block_and_rows(f, spec, stack)
    weight = np.array([stack.delta ** (-k * spec.s) for k in levels])
    terms = weight[:, None] * mags
    if spec.p != INF:
        value = _lp(_lq(terms, spec.q, axis=0), spec.p, stack.space.weight)
        return value if block is None else block + value
    value = _carleson_sup(terms, levels, spec, stack.cubes)
    return value if block is None else max(block, value)


def truncation_risk(f, spec, stack):
    """Fraction of the homogeneous scale sum's q-mass on the two extreme
    levels.

    With the default level policy (coarse cap = mean projection, fine cap
    past net saturation) the built range is effectively all of Z and this is
    tiny; a user-restricted range that cuts live scales shows up here.
    """
    mags = np.abs(LevelTable.of(f, stack).rows)
    _check_stack(spec, stack)
    terms = _besov_terms(mags, stack.levels(), spec, stack)
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


@dataclass(frozen=True)
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
