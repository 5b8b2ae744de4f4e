"""Frozen reference copy of the difference norms as they were computed one
call at a time, kept only as a test oracle.

Every call gathers the n x n table of |f(x) - f(y)| in ball-index order,
forms its running sum of mu-weighted e-powers (running max at e = inf) and
finds each radius's ball ends with its own ``count_nonzero(dist < r)`` pass.
`embedding_suite` is the five-pass suite that called the norms once per row.
"""

import math
from dataclasses import replace

import numpy as np

from homspace.errors import ParameterError
from homspace.lab import DEGENERATE_TOL, merge_caps
from homspace.norms import (INF, besov_norm, lebesgue_norm,
                            triebel_lizorkin_norm)
from homspace.report import SuiteReport

VARIANTS = ("Ldot", "L", "Lb_dot", "Lb", "Lt_dot", "Lt")
TRUNCATED_VARIANTS = ("L_tilde", "Lb_tilde")


def natural_k_window(space, c_tilde, delta):
    """(k_const, k_fine): coarsest computed level (radius just above diam,
    all coarser terms equal it) and finest level with a nonempty ball
    (radius just above the minimum gap).  Returns None for a single point."""
    diam = space.diam
    gap = space.min_gap
    if not math.isfinite(gap) or diam <= 0:
        return None
    # largest k with c_tilde * delta^k > diam
    k_const = int(math.floor(math.log(diam / c_tilde) / math.log(delta)))
    while c_tilde * delta ** k_const <= diam:
        k_const -= 1
    while c_tilde * delta ** (k_const + 1) > diam:
        k_const += 1
    k_fine = int(math.ceil(math.log(gap / c_tilde) / math.log(delta)))
    while c_tilde * delta ** k_fine <= gap:
        k_fine -= 1
    while c_tilde * delta ** (k_fine + 1) > gap:
        k_fine += 1
    return k_const, k_fine


def scale_weights(k_const, k_fine, s, q, delta, nonneg=False):
    """Level list and q-power weights for the exact two-sided scale sum.

    The term at k_const absorbs the constant coarse tail: for q < inf its
    weight is sum_{k <= k_const} delta^(-ksq) in closed form (geometric,
    needs s > 0); at q = inf the sup over the tail sits at k_const.  With
    nonneg=True the sum is restricted to k >= 0.
    """
    if not s > 0:
        raise ParameterError("difference norms need s > 0")
    if nonneg and k_fine < 0:
        return [], []
    start = max(k_const, 0) if nonneg else k_const
    ks = list(range(start, k_fine + 1))
    if not ks:
        return [], []
    if q == INF:
        wts = [delta ** (-k * s) for k in ks]
        return ks, wts
    x = delta ** (-s * q)  # > 1
    wts = [delta ** (-k * s * q) for k in ks]
    if not nonneg:
        # sum_{k <= k_const} x^k = x^k_const * 1/(1 - 1/x)
        wts[0] = x ** k_const / (1.0 - 1.0 / x)
    elif k_const >= 0:
        # sum_{k=0}^{k_const} x^k
        wts[0] = (x ** (k_const + 1) - 1.0) / (x - 1.0)
    return ks, wts


def _averages_over_radii(space, values, radii, exponent):
    idx = space.ball_index
    diff = np.abs(values[:, None] - values[idx.order])
    if exponent == INF:
        running = np.maximum.accumulate(diff, axis=1)
    else:
        running = np.cumsum(diff ** exponent * space.weight[idx.order],
                            axis=1)
    rows = []
    for r in radii:
        end = np.count_nonzero(space.dist < r, axis=1) - 1
        row = idx.read(running, end)
        if exponent != INF:
            row = (row / idx.read(idx.weight_prefix, end)) ** (1.0 / exponent)
        rows.append(row)
    return np.asarray(rows)


def _combine_besov_style(space, f, spec, inner_exponent, nonneg):
    window = natural_k_window(space, spec.c_tilde, spec.delta)
    if window is None:
        return 0.0
    ks, wts = scale_weights(window[0], window[1], spec.s, spec.q, spec.delta,
                            nonneg=nonneg)
    if not ks:
        return 0.0
    radii = [spec.c_tilde * spec.delta ** k for k in ks]
    avgs = _averages_over_radii(space, f.values, radii, inner_exponent)
    if spec.p == INF:
        norms = avgs.max(axis=1)
    else:
        norms = (avgs ** spec.p @ space.weight) ** (1.0 / spec.p)
    if spec.q == INF:
        return float(np.max(np.asarray(wts) * norms))
    return float(np.sum(np.asarray(wts) * norms ** spec.q) ** (1.0 / spec.q))


def _combine_pointwise_style(space, f, spec, nonneg):
    window = natural_k_window(space, spec.c_tilde, spec.delta)
    if window is None:
        return 0.0
    ks, wts = scale_weights(window[0], window[1], spec.s, spec.q, spec.delta,
                            nonneg=nonneg)
    if not ks:
        return 0.0
    radii = [spec.c_tilde * spec.delta ** k for k in ks]
    avgs = _averages_over_radii(space, f.values, radii, spec.u)
    wcol = np.asarray(wts)[:, None]
    if spec.q == INF:
        agg = np.max(wcol * avgs, axis=0)
    else:
        agg = np.sum(wcol * avgs ** spec.q, axis=0) ** (1.0 / spec.q)
    if spec.p == INF:
        return float(agg.max())
    return float(np.sum(agg ** spec.p * space.weight) ** (1.0 / spec.p))


def lipschitz_norm(f, spec, variant):
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}")
    space = f.space
    if variant == "Ldot":
        return _combine_besov_style(space, f, spec, spec.p, nonneg=False)
    if variant == "L":
        return lebesgue_norm(f, spec.p) + _combine_besov_style(
            space, f, spec, spec.p, nonneg=False)
    if variant == "Lb_dot":
        return _combine_besov_style(space, f, spec, 1.0, nonneg=False)
    if variant == "Lb":
        return lebesgue_norm(f, spec.p) + _combine_besov_style(
            space, f, spec, 1.0, nonneg=False)
    if variant == "Lt_dot":
        return _combine_pointwise_style(space, f, spec, nonneg=False)
    return lebesgue_norm(f, spec.p) + _combine_pointwise_style(
        space, f, spec, nonneg=True)


def truncated_norm(f, spec, variant):
    if variant not in TRUNCATED_VARIANTS:
        raise ParameterError(f"unknown truncated variant {variant!r}")
    inner = spec.p if variant == "L_tilde" else 1.0
    return _combine_besov_style(f.space, f, spec, inner, nonneg=True)


def embedding_suite(space, stack, cubes, ensemble, spec, omega,
                    geometry=None, caps=None):
    caps = merge_caps(caps)
    rep = SuiteReport("embedding suite")
    slack = 1 + 1e-12

    q0, q1 = (spec.q, 2 * spec.q) if spec.q != INF else (2.0, INF)
    variants = ("Ldot", "Lb_dot", "Lt_dot", "L", "Lb", "Lt")
    bad = 0
    for f in ensemble:
        for variant in variants:
            v0 = lipschitz_norm(f, replace(spec, q=q0), variant)
            v1 = lipschitz_norm(f, replace(spec, q=q1), variant)
            if v1 > v0 * slack:
                bad += 1
    rep.add("q-monotonicity (all variants)", "exact", passed=bad == 0,
            value=bad, q0=q0, q1=q1)

    bad = 0
    if spec.p >= 1:
        for f in ensemble:
            lb = lipschitz_norm(f, spec, "Lb_dot")
            ld = lipschitz_norm(f, spec, "Ldot")
            if lb > ld * slack:
                bad += 1
        rep.add("Jensen: Lb_dot <= Ldot (p >= 1)", "exact", passed=bad == 0,
                value=bad)

    eps = 0.2
    bad = 0
    for f in ensemble:
        lo = truncated_norm(f, spec, "L_tilde")
        hi = truncated_norm(f, replace(spec, s=spec.s + eps), "L_tilde")
        if lo > hi * slack:
            bad += 1
    rep.add("smoothness shift: truncated s <= s+eps", "exact",
            passed=bad == 0, value=bad, eps=eps)

    bad = 0
    for f in ensemble:
        full = lipschitz_norm(f, spec, "Ldot")
        trunc = truncated_norm(f, spec, "L_tilde")
        if trunc > full * slack:
            bad += 1
    rep.add("truncated <= full scale sum", "exact", passed=bad == 0,
            value=bad)

    ratios = []
    for f in ensemble:
        full = lipschitz_norm(f, spec, "L")
        trunc = lebesgue_norm(f, spec.p) + truncated_norm(f, spec, "L_tilde")
        if min(full, trunc) > DEGENERATE_TOL:
            ratios.append(full / trunc)
    if ratios:
        band = max(ratios) / min(ratios)
        rep.add("truncation equivalence band (L vs Lp + truncated)", "band",
                passed=band <= caps["truncation_band"], value=band,
                lo=min(ratios), hi=max(ratios), cap=caps["truncation_band"])

    p_emb = max(omega / (omega + spec.s) + 0.05, 0.75)
    if p_emb <= 1.0:
        s_target = spec.s - omega * (1.0 / p_emb - 1.0)
        fit = None
        if geometry is not None:
            fit = (geometry.q_global if spec.flavor == "homogeneous"
                   else geometry.q_local)
        ok_geom = fit is not None and abs(fit - omega) <= 0.15 * omega
        tag = ("local lower bound" if spec.flavor == "inhomogeneous"
               else "lower bound")
        if ok_geom and s_target > 0:
            src = replace(spec, p=p_emb)
            tgt = replace(spec, p=1.0, s=s_target)
            for name, norm_fn in (("Besov", besov_norm),
                                  ("Triebel-Lizorkin",
                                   triebel_lizorkin_norm)):
                ratios = []
                for f in ensemble:
                    a = norm_fn(f, src, stack)
                    b = norm_fn(f, tgt, stack)
                    if min(a, b) > DEGENERATE_TOL:
                        ratios.append(b / a)
                if ratios:
                    band = max(ratios)
                    rep.add(f"{name} embedding band p<=1 -> p=1", "band",
                            passed=math.isfinite(band), value=band,
                            p=p_emb, s_target=s_target, lo=min(ratios))
        else:
            rep.add("embedding bands p<=1 -> p=1", "band", passed=None,
                    value=None, skipped=f"{tag} hypothesis unmet")
    return rep
