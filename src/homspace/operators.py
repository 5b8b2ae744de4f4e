"""Level tables, the maximal operator, and frame reconstruction.

A field's `LevelTable` holds Q_k f at every level of a kernel stack; the
coefficient grid, the frame operator and the Besov and Triebel-Lizorkin
norms read its rows, cell-averaged at the levels of `stack.cell_levels()`.
`LevelTable.many` tables a whole ensemble level by level, so that each
n x n table Q_k is read from memory once for all the fields rather than
once per field; every row is still one `stack.apply`, so the numbers are
those of the tables made one at a time.

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

from .dyadic import _read_only
from .errors import (Frozen, IllConditionedFrameError, ParameterError,
                     integer_arg, real_arg)
from .space import _accumulate_ranks, _as_float_array


@dataclass(frozen=True)
class Field:
    """A real function on the points of a space; holds a read-only copy."""

    space: object
    values: np.ndarray

    def __post_init__(self):
        v = np.array(_as_float_array(self.values, "field values",
                                     ParameterError))
        if v.shape != (self.space.n,):
            raise ParameterError("field length does not match point count")
        if not np.all(np.isfinite(v)):
            raise ParameterError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def mu_dot(space, u, v):
    return float((u * v) @ space.weight)


class LevelTable(Frozen):
    """(Q_k f)(x) = sum_y Q_k(x, y) f(y) mu_y of one field at every level of
    one stack, one `stack.apply` each: ``rows[i]``, read-only, is level
    ``stack.k_min + i``.  A table made alone is `many` with one field."""

    def __init__(self, f, stack):
        (table,) = self.many([f], stack)
        vars(self).update(vars(table))

    @classmethod
    def many(cls, fields, stack):
        """One table per field, built level by level: every field's
        ``stack.apply(k, ...)`` runs while Q_k is the table in cache.  The
        tables are views of one read-only (fields, levels, n) array."""
        fields = list(fields)
        if any(f.space is not stack.space for f in fields):
            raise ParameterError("field and stack live on different spaces")
        rows = np.empty((len(fields), len(stack.levels()), stack.space.n))
        for i, k in enumerate(stack.levels()):
            for f, row in zip(fields, rows[:, i]):
                row[:] = stack.apply(k, f.values)
        rows.setflags(write=False)
        tables = [object.__new__(cls) for _ in fields]
        for table, r in zip(tables, rows):
            vars(table).update(stack=stack, rows=r)
        return tables

    @classmethod
    def of(cls, f, stack):
        """`f` itself when it is a table of `stack`, else a new table."""
        if not isinstance(f, cls):
            return cls(f, stack)
        if f.stack is not stack:
            raise ParameterError("level table was made on another stack")
        return f


# -- Hardy-Littlewood maximal operator ---------------------------------------

def hl_maximal(f):
    """Central maximal function M f(x) = sup_r avg_{B(x,r)} |f| d mu.

    The sup runs over the open balls, the prefixes of the distance-sorted
    row that end on a tie-group end of the space's ball index; only those
    entries of the running sums are divided and compared.  The sums run
    rank by rank over the ball index's rank-major order (`_accumulate_ranks`),
    one add across all centres per rank; each is formed in the order of a
    row's cumulative sum, P[x, j] = P[x, j - 1] + |f| mu at the j-th nearest
    point to x.
    """
    space = f.space
    flat, measure, starts, by_rank = space.group_ends
    run = _accumulate_ranks((np.abs(f.values) * space.weight)[by_rank])
    ratio = run.ravel()[flat]
    ratio /= measure
    return Field(space, np.maximum.reduceat(ratio, starts))


# -- sampled coefficients ------------------------------------------------------

@dataclass(frozen=True)
class LevelCoefficients:
    k: int
    alpha: np.ndarray
    m: np.ndarray
    y_index: np.ndarray
    weight: np.ndarray
    value: np.ndarray
    average: np.ndarray | None = None


# one sample of `CoefficientGrid.csv`: k, alpha, m, y_index, value, weight
CSV_LINE = "%d,%d,%d,%d,%.17g,%.17g\n"


@dataclass(frozen=True)
class CoefficientGrid:
    flavor: str
    levels: dict[int, LevelCoefficients] = field(default_factory=dict)

    def csv(self):
        """CSV text: the header k,alpha,m,y_index,value,weight, then one line
        per sample, the levels in ascending order; each level's lines are
        formatted from its arrays and joined before the next is formed.
        "%.17g" renders each value as `report.fmt` does, nan and inf
        included."""
        parts = ["k,alpha,m,y_index,value,weight\n"]
        for k in sorted(self.levels):
            lc = self.levels[k]
            parts.append("".join([CSV_LINE % (k, *row) for row in zip(
                lc.alpha.tolist(), lc.m.tolist(), lc.y_index.tolist(),
                lc.value.tolist(), lc.weight.tolist())]))
        return "".join(parts)


def _cell_average(space, sub_assign, nsub, g):
    """mu-average of g over each of the nsub cells that sub_assign names."""
    w = space.weight
    sums = np.bincount(sub_assign, weights=g * w, minlength=nsub)
    wsum = np.bincount(sub_assign, weights=w, minlength=nsub)
    return sums / wsum


def analyze(stack, f):
    """Sample Q_k f on the subcube points; cell averages on coarse levels.

    The levels of ``stack.cell_levels()`` (inhomogeneous k <= N) also carry
    the cell averages mu(Q)^-1 int_Q Q_k f dmu used by the reproducing
    formula and norms.  ``f`` is a Field or its level table.
    """
    levels = {}
    for k, g in zip(stack.levels(), LevelTable.of(f, stack).rows):
        alpha, m, y, wgt, sub_assign = stack.cubes.sample_arrays(k)
        avg = None
        if k in stack.cell_levels():
            avg = _read_only(_cell_average(stack.space, sub_assign, len(y),
                                           g))
        levels[k] = LevelCoefficients(
            k=k, alpha=alpha, m=m, y_index=y, weight=wgt,
            value=_read_only(g[y]), average=avg)
    return CoefficientGrid(flavor=stack.flavor, levels=levels)


def frame_operator(stack, f):
    """Apply the self-dual sampled frame operator S.

    The synthesis of the coefficients of `analyze`: point samples at the
    y_alpha^{k,m}, and the cell averages of the levels of
    ``stack.cell_levels()`` (inhomogeneous k <= N) on both the analysis and
    synthesis side (the pattern of the k = 0 block of the reproducing
    formula), which keeps S symmetric.  Every Q_k is exactly symmetric, so
    the point-sample synthesis reads the contiguous rows Q_k(y, .) in place
    of the columns Q_k(., y): the same numbers, gathered without striding.
    """
    space = stack.space
    out = np.zeros(space.n)
    for k, lc in analyze(stack, f).levels.items():
        if lc.average is None:
            out += (lc.weight * lc.value) @ stack.q[k][lc.y_index]
        else:
            sub_assign = stack.cubes.sample_arrays(k).sub_assign
            out += stack.q[k] @ (space.weight * lc.average[sub_assign])
    return Field(space, out)


@dataclass(frozen=True)
class ReconstructionReport:
    iterations: int
    relative_residual: float
    converged: bool
    frame_lower: float | None
    frame_upper: float | None


@dataclass(frozen=True)
class FrameSpec:
    """Frame reconstruction: conjugate gradients to the relative residual
    `tol`, in at most `maxiter` iterations."""

    tol: float
    maxiter: int

    def __post_init__(self):
        real_arg("frame.tol", self.tol, lambda v: 0 < v < math.inf, "> 0")
        object.__setattr__(self, "maxiter", integer_arg(
            "frame.maxiter", self.maxiter, low=1))


def reconstruct(stack, f, tol=1e-8, maxiter=1000):
    """Solve S g = f by conjugate gradients in the mu-inner product and
    return (S g, report); the dual frame is applied implicitly.  The
    arguments are checked as a `FrameSpec`.

    Homogeneous flavor works modulo constants: the mean is removed first and
    the reconstruction targets f minus its mean.
    """
    maxiter = FrameSpec(tol=tol, maxiter=maxiter).maxiter
    space = stack.space
    if f.space is not space:
        raise ParameterError("field and stack live on different spaces")
    b = f.values.copy()
    if stack.flavor == "homogeneous":
        b = b - float(b @ space.weight) / space.total_mass

    def apply_s(v):
        return frame_operator(stack, Field(space, v)).values

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
