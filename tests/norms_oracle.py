"""Frozen reference copy of the Besov and Triebel-Lizorkin norms and the
coefficient operators as they formed Q_k f one call site at a time, kept
only as a test oracle.

Every function applies the kernel stack itself, level by level; the
inhomogeneous coarse levels k <= N are re-decided at each site, and the
p = inf Carleson supremum averages over each cube in a Python loop.
`equivalence_loop` is the field-by-field loop of the equivalence
experiment, each field's right-hand norm tabling its own Q_k f.
"""

import math
from dataclasses import replace

import numpy as np
from dyadic_oracle import members

from homspace import norms
from homspace.difference import (DifferenceTable, difference_scales,
                                 lipschitz_norm)
from homspace.errors import FlavorMismatchError, ParameterError, RangeError
from homspace.lab import DEGENERATE_TOL, PAIRING_VARIANTS
from homspace.operators import CoefficientGrid, Field, LevelCoefficients

INF = math.inf


def lebesgue_norm(f, p):
    v = np.abs(f.values)
    if p == INF:
        return float(v.max())
    return float(np.sum(v ** p * f.space.weight) ** (1.0 / p))


def lq_scale_combine(terms, q):
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


def _cell_average(space, sub_assign, nsub, g):
    w = space.weight
    sums = np.bincount(sub_assign, weights=g * w, minlength=nsub)
    wsum = np.bincount(sub_assign, weights=w, minlength=nsub)
    return sums / wsum


def _cell_block(f, spec, stack, cubes, n_low):
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


def _scale_terms(f, spec, stack, ks):
    return [stack.delta ** (-k * spec.s)
            * lebesgue_norm(Field(f.space, stack.apply(k, f.values)), spec.p)
            for k in ks]


def besov_norm(f, spec, stack, cubes=None):
    _check_flavor(spec, stack)
    homogeneous = spec.flavor == "homogeneous"
    n_low = stack.n_low
    if not homogeneous and cubes is None:
        raise ParameterError("inhomogeneous Besov norm needs a cube system")
    terms = _scale_terms(f, spec, stack, [k for k in stack.levels()
                                          if homogeneous or k > n_low])
    if homogeneous:
        return lq_scale_combine(terms, spec.q)
    return (_cell_block(f, spec, stack, cubes, n_low)
            + lq_scale_combine(terms, spec.q))


def _scale_aggregate(spec, stack, contrib, ks):
    out = np.zeros(stack.space.n)
    for k in ks:
        term = stack.delta ** (-k * spec.s) * contrib(k)
        if spec.q == INF:
            out = np.maximum(out, term)
        else:
            out += term ** spec.q
    return out


def _pointwise_scale_aggregate(f, spec, stack, ks):
    out = _scale_aggregate(spec, stack,
                           lambda k: np.abs(stack.apply(k, f.values)), ks)
    return out if spec.q == INF else out ** (1.0 / spec.q)


def _carleson_sup(f, spec, stack, cubes, level_floor):
    w = stack.space.weight
    best = 0.0
    contrib = {k: np.abs(stack.apply(k, f.values)) for k in stack.levels()}
    levels = sorted(set(cubes.levels) & set(stack.levels()))
    levels = [l for l in levels if l >= level_floor]
    for l in levels:
        agg = _scale_aggregate(spec, stack, contrib.__getitem__,
                               [k for k in stack.levels() if k >= l])
        for mem in members(cubes.levels[l]):
            if spec.q == INF:
                best = max(best, float(agg[mem].max()))
            else:
                avg = float((agg[mem] * w[mem]).sum() / w[mem].sum())
                best = max(best, avg ** (1.0 / spec.q))
    return best


def triebel_lizorkin_norm(f, spec, stack, cubes=None):
    _check_flavor(spec, stack)
    if spec.flavor == "homogeneous":
        if spec.p == INF:
            if cubes is None:
                raise ParameterError("p = inf Triebel-Lizorkin needs cubes")
            return _carleson_sup(f, spec, stack, cubes, -10 ** 9)
        agg = _pointwise_scale_aggregate(f, spec, stack, list(stack.levels()))
        return lebesgue_norm(Field(f.space, agg), spec.p)
    n_low = stack.n_low
    if cubes is None:
        raise ParameterError("inhomogeneous Triebel-Lizorkin norm needs cubes")
    block = _cell_block(f, spec, stack, cubes, n_low)
    fine = [k for k in stack.levels() if k > n_low]
    if spec.p == INF:
        return max(block, _carleson_sup(f, spec, stack, cubes, n_low + 1))
    agg = _pointwise_scale_aggregate(f, spec, stack, fine)
    return block + lebesgue_norm(Field(f.space, agg), spec.p)


def truncation_risk(f, spec, stack):
    terms = np.array(_scale_terms(f, spec, stack, stack.levels()))
    q = spec.q if spec.q != INF else 1.0
    total = float(np.sum(terms ** q))
    if total == 0 or len(terms) < 3:
        return 0.0
    return float((terms[0] ** q + terms[-1] ** q) / total)


def sampled_besov_norm(f, spec, stack, cubes):
    delta = stack.delta
    terms = []
    for k in stack.levels():
        g = stack.apply(k, f.values)
        _, _, y, wgt, _ = cubes.sample_arrays(k)
        if spec.p == INF:
            val = float(np.max(np.abs(g[y])))
        else:
            val = float(np.sum(wgt * np.abs(g[y]) ** spec.p) ** (1.0 / spec.p))
        terms.append(delta ** (-k * spec.s) * val)
    if spec.q == INF:
        return max(terms)
    return float(np.sum(np.asarray(terms) ** spec.q) ** (1.0 / spec.q))


def _require_subcubes(stack, cubes):
    if cubes.subcubes is None:
        raise RangeError("cube system has no subcube refinement")
    if stack.k_max > cubes.k_max - cubes.j0:
        raise RangeError("stack levels reach past the subcubes")
    if stack.k_min < cubes.k_min:
        raise RangeError("stack starts coarser than the cube system")


def analyze(stack, cubes, f):
    _require_subcubes(stack, cubes)
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



def equivalence_loop(stack, spec, pairing, ensemble):
    """(left, right, ratios, excluded, geometric_mean) of the pairing over
    the ensemble, one field at a time; no hypothesis is checked."""
    left_spec = replace(spec, u=1.0) if pairing == "F_vs_Lt" else spec
    right_fn = (norms.besov_norm if "B_vs" in pairing
                else norms.triebel_lizorkin_norm)
    scales = difference_scales(stack.space, spec.c_tilde, spec.delta)
    left, right, ratios = [], [], []
    excluded = 0
    for f in ensemble:
        l = lipschitz_norm(DifferenceTable(f, scales), left_spec,
                           PAIRING_VARIANTS[pairing])
        r = right_fn(f, spec, stack)
        scale = max(abs(l), abs(r))
        if scale <= DEGENERATE_TOL or min(l, r) <= DEGENERATE_TOL * scale:
            excluded += 1
            continue
        left.append(l)
        right.append(r)
        ratios.append(l / r)
    gm = float(np.exp(np.mean(np.log(ratios))))
    return left, right, ratios, excluded, gm
