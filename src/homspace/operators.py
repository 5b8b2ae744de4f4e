"""Kernel application, the maximal operator, and frame reconstruction.

The sampled reproducing identity is realized as a self-dual frame operator

    S f = sum_{k, alpha, m} mu(Q_alpha^{k,m}) Q_k(., y_alpha^{k,m}) Q_k f(y_alpha^{k,m})

which is symmetric positive semidefinite in the mu-inner product; the dual
family is applied implicitly by solving S g = f with conjugate gradients and
returning S g together with residual and Ritz (frame-bound) estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedFrameError, ParameterError, RangeError


@dataclass(frozen=True)
class Field:
    """A real function on the points of a space; holds a read-only copy."""

    space: object
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.space.n,):
            raise ParameterError("field length does not match point count")
        if not np.all(np.isfinite(v)):
            raise ParameterError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def mu_mean(self):
        return float(self.values @ self.space.weight) / self.space.total_mass

    def mean_zero(self):
        return Field(self.space, self.values - self.mu_mean())

    def l2(self):
        return math.sqrt(float(self.values ** 2 @ self.space.weight))


def mu_dot(space, u, v):
    return float((u * v) @ space.weight)


def apply_level(stack, k, f):
    """(Q_k f)(x) = sum_y Q_k(x, y) f(y) mu_y."""
    return Field(f.space, stack.apply(k, f.values))


# -- Hardy-Littlewood maximal operator ---------------------------------------

def hl_maximal(space, f):
    """Central maximal function M f(x) = sup_r avg_{B(x,r)} |f| d mu.

    The sup runs over the open balls, the prefixes of the distance-sorted
    row that end on a tie-group end of the space's ball index.
    """
    idx = space.ball_index
    g = np.abs(f.values) * space.weight
    gpre = np.cumsum(g[idx.order], axis=1)
    with np.errstate(invalid="ignore"):
        ratio = gpre / idx.weight_prefix
    ratio = np.where(idx.group_end, ratio, -np.inf)
    return Field(space, np.max(ratio, axis=1))


# -- sampled coefficients ------------------------------------------------------

@dataclass
class LevelCoefficients:
    k: int
    alpha: np.ndarray
    m: np.ndarray
    y_index: np.ndarray
    weight: np.ndarray
    value: np.ndarray
    average: np.ndarray | None = None


@dataclass
class CoefficientGrid:
    flavor: str
    levels: dict[int, LevelCoefficients] = field(default_factory=dict)

    def rows(self):
        """Flat (k, alpha, m, y_index, value, weight) tuples."""
        out = []
        for k in sorted(self.levels):
            lc = self.levels[k]
            for i in range(len(lc.alpha)):
                out.append((k, int(lc.alpha[i]), int(lc.m[i]),
                            int(lc.y_index[i]), float(lc.value[i]),
                            float(lc.weight[i])))
        return out


def _require_subcubes(stack, cubes):
    if cubes.subcubes is None:
        raise RangeError("cube system has no subcube refinement; call "
                         "refine_subcubes first")
    if stack.k_max > cubes.k_max - cubes.j0:
        raise RangeError(
            f"stack levels reach {stack.k_max} but subcubes stop at "
            f"{cubes.k_max - cubes.j0}; rebuild cubes j0 levels deeper")
    if stack.k_min < cubes.k_min:
        raise RangeError("stack starts coarser than the cube system")


def _cell_average(space, sub_assign, nsub, g):
    """mu-average of g over each of the nsub cells that sub_assign names."""
    w = space.weight
    sums = np.bincount(sub_assign, weights=g * w, minlength=nsub)
    wsum = np.bincount(sub_assign, weights=w, minlength=nsub)
    return sums / wsum


def analyze(stack, cubes, f, sampler=None, n_low=None):
    """Sample Q_k f on the subcube points; cell averages on coarse levels.

    For the inhomogeneous flavor, levels k <= N also carry the cell averages
    mu(Q)^-1 int_Q Q_k f dmu used by the reproducing formula and norms.
    ``sampler`` asserts which sample-point rule the cube system was refined
    with; a mismatch is an error.
    """
    _require_subcubes(stack, cubes)
    if sampler is not None and sampler != cubes.sampler:
        raise RangeError(f"cube system was refined with sampler "
                         f"{cubes.sampler!r}, not {sampler!r}")
    if n_low is None:
        n_low = stack.n_low
    grid = CoefficientGrid(flavor=stack.flavor)
    for k in stack.levels():
        g = stack.apply(k, f.values)
        alpha, m, y, wgt, sub_assign = cubes.sample_arrays(k)
        avg = None
        if stack.flavor == "inhomogeneous" and k <= n_low:
            avg = _cell_average(stack.space, sub_assign, len(y), g)
        grid.levels[k] = LevelCoefficients(
            k=k, alpha=alpha, m=m, y_index=y, weight=wgt, value=g[y],
            average=avg)
    return grid


def frame_operator(stack, cubes, f):
    """Apply the self-dual sampled frame operator S.

    Homogeneous levels use point samples at the y_alpha^{k,m}; inhomogeneous
    levels k <= N use cell averages on both the analysis and synthesis side
    (the pattern of the k = 0 block of the reproducing formula), which keeps
    S symmetric.
    """
    _require_subcubes(stack, cubes)
    space = stack.space
    w = space.weight
    out = np.zeros(space.n)
    for k in stack.levels():
        g = stack.apply(k, f.values)
        _, _, y, wgt, sub_assign = cubes.sample_arrays(k)
        if stack.flavor == "inhomogeneous" and k <= stack.n_low:
            avg = _cell_average(space, sub_assign, len(y), g)
            out += stack.q[k] @ (w * avg[sub_assign])
        else:
            out += stack.q[k][:, y] @ (wgt * g[y])
    return Field(space, out)


@dataclass
class ReconstructionReport:
    iterations: int
    relative_residual: float
    converged: bool
    frame_lower: float | None
    frame_upper: float | None


def reconstruct(stack, cubes, f, tol=1e-8, maxiter=1000):
    """Solve S g = f by conjugate gradients in the mu-inner product and
    return (S g, report); the dual frame is applied implicitly.

    Homogeneous flavor works modulo constants: the mean is removed first and
    the reconstruction targets f minus its mean.
    """
    space = stack.space
    b = f.values.copy()
    if stack.flavor == "homogeneous":
        b = b - float(b @ space.weight) / space.total_mass

    def apply_s(v):
        return frame_operator(stack, cubes, Field(space, v)).values

    bnorm = math.sqrt(mu_dot(space, b, b))
    if bnorm == 0:
        report = ReconstructionReport(0, 0.0, True, None, None)
        return Field(space, np.zeros(space.n)), report

    x = np.zeros(space.n)
    r = b.copy()
    p = r.copy()
    rs = mu_dot(space, r, r)
    alphas, betas = [], []
    it = 0
    for it in range(1, maxiter + 1):
        sp = apply_s(p)
        ps = mu_dot(space, p, sp)
        if ps <= 0:
            break
        alpha = rs / ps
        x += alpha * p
        r -= alpha * sp
        rs_new = mu_dot(space, r, r)
        alphas.append(alpha)
        betas.append(rs_new / rs)
        rs = rs_new
        if math.sqrt(rs) <= tol * bnorm:
            break
        p = r + betas[-1] * p

    # Lanczos tridiagonal from the CG coefficients -> Ritz (frame bound) estimates
    lower = upper = None
    if alphas:
        m = len(alphas)
        T = np.zeros((m, m))
        T[0, 0] = 1.0 / alphas[0]
        for i in range(1, m):
            T[i, i] = 1.0 / alphas[i] + betas[i - 1] / alphas[i - 1]
            off = math.sqrt(max(betas[i - 1], 0.0)) / alphas[i - 1]
            T[i, i - 1] = T[i - 1, i] = off
        ev = np.linalg.eigvalsh(T)
        lower, upper = float(ev[0]), float(ev[-1])

    resid = math.sqrt(rs) / bnorm
    converged = resid <= tol
    if not converged:
        raise IllConditionedFrameError(
            f"frame solve stalled at relative residual {resid:.3e} after "
            f"{it} iterations (lower frame bound ~ {lower})",
            lower_bound=lower)
    report = ReconstructionReport(it, resid, converged, lower, upper)
    return Field(space, apply_s(x)), report
