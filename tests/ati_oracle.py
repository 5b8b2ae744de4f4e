"""Frozen reference for ``kernels.validate_ati``.

This is the earlier four-loop implementation (each level's arrays built
twice, a full (pair, y) regularity ratio array, an n x n refpoint table),
kept verbatim except that it returns the report fields as a dict, does
not touch the stack and takes the fit's point cap as ``fit_points`` (the
constant it hard-coded is the default).  ``test_kernels.py`` asserts that
the current ``validate_ati`` reproduces every field exactly.
"""

import math

import numpy as np

NOISE_FLOOR = 1e-10


def _refpoint_wterm(stack, cubes, k):
    dY = cubes.refpoint_distance(k)
    if not np.any(np.isfinite(dY)):
        return np.zeros((stack.space.n, stack.space.n))
    scaled = (dY / stack.delta ** k) ** stack.a
    return np.maximum(scaled[:, None], scaled[None, :])


def _admissible_pairs(space, radius):
    d = space.dist
    rows, cols = np.nonzero((d <= radius) & (d > 0))
    return rows, cols


def reference_validate_ati(stack, cubes, gamma_list=(1.0, 2.0),
                           pair_budget=4_000, quad_budget=2_000,
                           probe_count=6, seed=0, fit_points=2_000_000):
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

    zs, ts = [], []
    for k in stack.levels():
        _, mask, uq, wq, z, _ = level_arrays(k)
        if mask.any():
            zs.append(z[mask])
            ts.append((uq + wq)[mask])
    if zs:
        zf = np.concatenate(zs)
        tf = np.concatenate(ts)
        if len(zf) > fit_points:
            stride = len(zf) // fit_points + 1
            zf, tf = zf[::stride], tf[::stride]
        if len(zf) >= 2 and np.ptp(tf) > 0:
            nu = max(-float(np.polyfit(tf, zf, 1)[0]), 1e-3)
        else:
            nu = 1.0
    else:
        nu = 1.0

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

    return dict(nu=float(nu), eta_fit=float(eta), size_const=size_const,
                size_const_no_h=size_const_no_h, reg_const=reg_const,
                second_diff_const=second, cancel_resid=cancel,
                identity_resid=identity, unit_resid=unit,
                rgamma_const=rgamma, sampled=sampled)
