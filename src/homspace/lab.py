"""Probe ensembles and the experiment suites.

The equivalence experiments put empirical bands around the norm-equivalence
theorems (the theorems promise finite constants, never values, so the bands
are configuration); the embedding and lemma suites split into rows that are
exact inequalities (zero violations allowed) and rows that are measured
constants compared against configured caps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .difference import (DifferenceTable, difference_scales, lipschitz_norm,
                         truncated_norm)
from .errors import (ExperimentError, FlavorMismatchError, ParameterError,
                     choice_arg, integer_arg, real_arg)
from .kernels import _r_gamma, build_semigroup, r_gamma_integral_band
from .norms import (INF, _check_stack, _lp, _lq, admissible_range,
                    besov_norm, lebesgue_norm, triebel_lizorkin_norm)
from .operators import Field, LevelTable, hl_maximal
from .report import SuiteReport
from .space import default_radius_grid, radius_grid_arg

STANDARD_KINDS = ("bandlimited", "holder", "smoothed_indicator",
                  "gaussian_field")
STANDARD_COUNTS = {"bandlimited": 15, "holder": 10,
                   "smoothed_indicator": 10, "gaussian_field": 15}
DEGENERATE_TOL = 1e-13
THETA_SEQUENCES = 10_000

DEFAULT_CAPS = {
    "ratio_max_over_min": 100.0,
    "integral_band": 4.0,
    "two_sided_band": 50.0,
    "truncation_band": 4.0,
}


def merge_caps(caps=None):
    """DEFAULT_CAPS overridden by `caps`; every cap a known name holding a
    finite positive number."""
    caps = {} if caps is None else caps
    if not isinstance(caps, dict):
        raise ParameterError(f"caps must be a mapping, got {caps!r}")
    merged = {**DEFAULT_CAPS, **caps}
    for name, val in merged.items():
        if name not in DEFAULT_CAPS:
            raise ParameterError(f"unknown cap {name!r}")
        real_arg(f"cap {name}", val, lambda v: 0 < v < math.inf,
                 "a finite positive number")
    return merged


@dataclass(frozen=True)
class EnsembleSpec:
    """`counts` probe fields of each of `STANDARD_KINDS`, drawn from `seed`
    in that order; a missing kind counts 0, and a count of 0 leaves it out."""

    counts: dict = field(default_factory=lambda: dict(STANDARD_COUNTS))
    seed: int = 0
    mean_zero: bool = False

    def __post_init__(self):
        if not isinstance(self.counts, dict):
            raise ParameterError(
                f"ensemble counts must be a mapping, got {self.counts!r}")
        for kind in self.counts:
            choice_arg("ensemble kind", kind, STANDARD_KINDS)
        object.__setattr__(self, "counts", {
            kind: integer_arg(f"ensemble count {kind}",
                              self.counts.get(kind, 0), low=0)
            for kind in STANDARD_KINDS})
        if not self.total():
            raise ParameterError("ensemble must be non-empty; all counts 0")
        object.__setattr__(self, "seed",
                           integer_arg("ensemble seed", self.seed, low=0))
        if not isinstance(self.mean_zero, bool):
            raise ParameterError(f"ensemble mean_zero must be true or false, "
                                 f"got {self.mean_zero!r}")

    def total(self):
        return sum(self.counts.values())


def generate_ensemble(stack, spec):
    """Deterministic probe fields; mean removed when the flag is set.  The
    smoothed indicators and Gaussian fields read a mollifier, the semigroup
    at the middle interior scale, built on first use; it draws nothing from
    the seed's stream."""
    space = stack.space
    rng = np.random.default_rng(spec.seed)
    interior = stack.interior_levels()
    mid_scale = stack.delta ** interior[len(interior) // 2]

    @functools.cache
    def mollifier():
        return build_semigroup(space, mid_scale, a=stack.a)

    fields = []
    for kind, count in spec.counts.items():
        for i in range(count):
            if kind == "bandlimited":
                j = interior[i % len(interior)]
                v = stack.apply(j, rng.standard_normal(space.n))
            elif kind == "holder":
                theta = float(rng.uniform(0.3, 1.0))
                x0 = int(rng.integers(space.n))
                v = space.dist[x0] ** theta
            elif kind == "smoothed_indicator":
                x0 = int(rng.integers(space.n))
                qt = float(rng.uniform(0.15, 0.5))
                r = float(np.quantile(space.dist[x0], qt))
                ind = (space.dist[x0] < max(r, space.min_gap * 1.5)).astype(float)
                v = mollifier() @ (space.weight * ind)
            else:  # gaussian_field
                v = mollifier() @ (space.weight * rng.standard_normal(space.n))
            if spec.mean_zero:
                v = v - float(v @ space.weight) / space.total_mass
            if float(np.max(np.abs(v))) <= DEGENERATE_TOL:
                raise ExperimentError(
                    f"degenerate {kind} field at index {i}")
            fields.append(Field(space, v))
    return fields


# -- equivalence experiments ---------------------------------------------------

# pairing: the difference variant on its left; B_vs pairings have the Besov
# norm on the right, the others the Triebel-Lizorkin norm
PAIRING_VARIANTS = {"B_vs_L": "Ldot", "B_vs_Lb": "Lb_dot", "F_vs_Lt": "Lt_dot",
                    "F_vs_Lt_u": "Lt_dot", "inhomog_B_vs_L": "L",
                    "inhomog_F_vs_Lt": "Lt"}
# the Besov pairing of each kernel flavor: a null `lab.pairing` is its flavor's
FLAVOR_PAIRING = {"homogeneous": "B_vs_L", "inhomogeneous": "inhomog_B_vs_L"}


@dataclass(frozen=True)
class LabSpec:
    """The experiment suites: the equivalence `pairing`, the band `caps`
    laid over DEFAULT_CAPS, the geometry's `radius_grid` (null:
    `default_radius_grid`) and the probe `ensemble`."""

    pairing: str = "B_vs_L"
    caps: dict | None = None
    radius_grid: list | None = None
    ensemble: EnsembleSpec = field(default_factory=EnsembleSpec)

    def __post_init__(self):
        choice_arg("pairing", self.pairing, PAIRING_VARIANTS)
        object.__setattr__(self, "caps", merge_caps(self.caps))
        if self.radius_grid is not None:
            object.__setattr__(self, "radius_grid",
                               radius_grid_arg(self.radius_grid))

    def check_flavor(self, flavor):
        """The `inhomog_` pairings read an inhomogeneous kernel stack, the
        others a homogeneous one."""
        need = ("inhomogeneous" if self.pairing.startswith("inhomog_")
                else "homogeneous")
        if flavor != need:
            raise FlavorMismatchError(f"pairing {self.pairing!r} needs "
                                      f"kernel flavor {need!r}, got "
                                      f"{flavor!r}")


@dataclass(frozen=True)
class EquivalenceReport:
    pairing: str
    left: list
    right: list
    ratios: list
    excluded: int
    caps: dict
    geometric_mean: float | None

    @property
    def ratio_min(self):
        return min(self.ratios) if self.ratios else math.nan

    @property
    def ratio_max(self):
        return max(self.ratios) if self.ratios else math.nan

    @property
    def ratio_median(self):
        return float(np.median(self.ratios)) if self.ratios else math.nan

    @property
    def passed(self):
        if not self.ratios:
            return False
        return (self.ratio_max / self.ratio_min
                <= self.caps["ratio_max_over_min"])

    def to_suite(self):
        rep = SuiteReport(f"equivalence {self.pairing}")
        rep.add("ratio band", "band", passed=self.passed,
                value=self.ratio_max / self.ratio_min if self.ratios else None,
                ratio_min=self.ratio_min, ratio_max=self.ratio_max,
                ratio_median=self.ratio_median,
                geometric_mean=self.geometric_mean, excluded=self.excluded,
                cap=self.caps["ratio_max_over_min"])
        for i, (l, r, t) in enumerate(zip(self.left, self.right, self.ratios)):
            rep.add(f"field {i}", "value", passed=None, value=t,
                    left=l, right=r)
        return rep


def check_hypotheses(pairing, spec, omega, eta, geometry=None):
    """Raise ExperimentError naming the violated theorem hypothesis."""
    if not 0 < spec.s < min(spec.beta, spec.gamma):
        raise ExperimentError(
            f"hypothesis violated: s={spec.s} outside (0, beta^gamma)")
    adm = admissible_range(spec, omega, eta)
    family = "besov" if "B_vs" in pairing else "triebel"
    for msg in adm.violations["common"] + adm.violations[family]:
        raise ExperimentError(f"hypothesis violated: {msg}")
    if pairing in ("B_vs_L", "inhomog_B_vs_L") and spec.p < 1:
        # the p < 1 direction needs the lower-bound geometry
        _require_lower_bound(geometry, omega)
    if pairing in ("F_vs_Lt", "inhomog_F_vs_Lt"):
        if not (spec.p > 1 and spec.q > 1):
            raise ExperimentError(
                "hypothesis violated: F = L_t needs p, q in (1, inf]")
    if pairing == "F_vs_Lt_u":
        if not spec.p <= 1:
            raise ExperimentError(
                "hypothesis violated: the u-variant inclusion targets p <= 1")
        if not spec.u < min(spec.p, spec.q):
            raise ExperimentError(
                f"hypothesis violated: u={spec.u} not below min(p,q)")
        _require_lower_bound(geometry, omega)


def _require_lower_bound(geometry, omega):
    if geometry is None or geometry.q_global is None:
        raise ExperimentError(
            "hypothesis violated: p <= 1 pairing needs a lower-bound "
            "exponent fit (geometry report)")
    if abs(geometry.q_global - omega) > 0.15 * omega:
        raise ExperimentError(
            f"hypothesis violated: fitted lower bound {geometry.q_global:.3g}"
            f" not within 15% of omega={omega:.3g}")


def equivalence_experiment(stack, spec, pairing, ensemble, omega, eta,
                           geometry=None, caps=None):
    """Check the pairing's hypotheses at the measured omega and eta and the
    spec against the stack, then compute both norms of the pairing over the
    ensemble; band the ratios.  The right-hand norms read the level tables
    of the whole ensemble, built together by `LevelTable.many`."""
    lab = LabSpec(pairing=pairing, caps=caps)
    lab.check_flavor(stack.flavor)
    check_hypotheses(pairing, spec, omega, eta, geometry)
    _check_stack(spec, stack)
    left_spec = replace(spec, u=1.0) if pairing == "F_vs_Lt" else spec
    right_fn = besov_norm if "B_vs" in pairing else triebel_lizorkin_norm
    scales = difference_scales(stack.space, spec.c_tilde, spec.delta)
    fields = list(ensemble)
    left, right, ratios = [], [], []
    excluded = 0
    for f, table in zip(fields, LevelTable.many(fields, stack)):
        l = lipschitz_norm(DifferenceTable(f, scales), left_spec,
                           PAIRING_VARIANTS[pairing])
        r = right_fn(table, spec, stack)
        scale = max(abs(l), abs(r))
        if scale <= DEGENERATE_TOL or min(l, r) <= DEGENERATE_TOL * scale:
            excluded += 1
            continue
        left.append(l)
        right.append(r)
        ratios.append(l / r)
    if not ratios:
        raise ExperimentError("all ensemble fields degenerate for "
                              f"pairing {pairing}")
    gm = float(np.exp(np.mean(np.log(ratios))))
    return EquivalenceReport(pairing=pairing, left=left,
                             right=right, ratios=ratios, excluded=excluded,
                             caps=lab.caps, geometric_mean=gm)


# -- embedding suite -----------------------------------------------------------

def embedding_suite(stack, ensemble, spec, omega, geometry=None,
                    caps=None):
    """Exact inclusion inequalities plus constant-bearing embedding bands."""
    ensemble = list(ensemble)
    caps = merge_caps(caps)
    rep = SuiteReport("embedding suite")
    slack = 1 + 1e-12

    q0, q1 = (spec.q, 2 * spec.q) if spec.q != INF else (2.0, INF)
    spec0, spec1 = replace(spec, q=q0), replace(spec, q=q1)
    eps = 0.2
    shifted = replace(spec, s=spec.s + eps)
    scales = difference_scales(stack.space, spec.c_tilde, spec.delta)
    # violations of each exact row, counted in one pass over the fields
    bad_q = bad_jensen = bad_shift = bad_trunc = 0
    ratios = []
    for f in ensemble:
        table = DifferenceTable(f, scales)
        for variant in ("Ldot", "Lb_dot", "Lt_dot", "L", "Lb", "Lt"):
            v0 = lipschitz_norm(table, spec0, variant)
            bad_q += lipschitz_norm(table, spec1, variant) > v0 * slack
        ldot = lipschitz_norm(table, spec, "Ldot")
        trunc = truncated_norm(table, spec, "L_tilde")
        if spec.p >= 1:
            bad_jensen += lipschitz_norm(table, spec, "Lb_dot") > ldot * slack
        bad_shift += trunc > truncated_norm(table, shifted, "L_tilde") * slack
        bad_trunc += trunc > ldot * slack
        full = lipschitz_norm(table, spec, "L")
        inhom = lebesgue_norm(f, spec.p) + trunc
        if min(full, inhom) > DEGENERATE_TOL:
            ratios.append(full / inhom)
    rep.add("q-monotonicity (all variants)", "exact", passed=bad_q == 0,
            value=bad_q, q0=q0, q1=q1)
    if spec.p >= 1:
        rep.add("Jensen: Lb_dot <= Ldot (p >= 1)", "exact",
                passed=bad_jensen == 0, value=bad_jensen)
    rep.add("smoothness shift: truncated s <= s+eps", "exact",
            passed=bad_shift == 0, value=bad_shift, eps=eps)
    rep.add("truncated <= full scale sum", "exact", passed=bad_trunc == 0,
            value=bad_trunc)
    if ratios:
        band = max(ratios) / min(ratios)
        rep.add("truncation equivalence band (L vs Lp + truncated)", "band",
                passed=band <= caps["truncation_band"], value=band,
                lo=min(ratios), hi=max(ratios), cap=caps["truncation_band"])

    # Sobolev-type embeddings for p <= 1 under the (local) lower-bound
    # hypothesis: the homogeneous rows gate on the global exponent fit, the
    # inhomogeneous ones on the local fit
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
            # one level table per field serves all four norms
            by_name = {"Besov": [], "Triebel-Lizorkin": []}
            for table in LevelTable.many(ensemble, stack):
                for ratios, norm_fn in zip(by_name.values(), (
                        besov_norm, triebel_lizorkin_norm)):
                    a = norm_fn(table, src, stack)
                    b = norm_fn(table, tgt, stack)
                    if min(a, b) > DEGENERATE_TOL:
                        ratios.append(b / a)
            for name, ratios in by_name.items():
                if ratios:
                    band = max(ratios)
                    rep.add(f"{name} embedding band p<=1 -> p=1", "band",
                            passed=math.isfinite(band), value=band,
                            p=p_emb, s_target=s_target, lo=min(ratios))
        else:
            rep.add("embedding bands p<=1 -> p=1", "band", passed=None,
                    value=None, skipped=f"{tag} hypothesis unmet")
    return rep


# -- lemma suite ----------------------------------------------------------------

def theta_power_check(seed=0):
    """(sum a)^theta <= sum a^theta for theta in (0,1] on `THETA_SEQUENCES`
    random sequences of length 40, drawn from `seed`, an integer >= 0;
    returns the violations."""
    rng = np.random.default_rng(integer_arg("seed", seed, low=0))
    a = rng.exponential(size=(THETA_SEQUENCES, 40))
    theta = rng.uniform(0.0, 1.0, size=THETA_SEQUENCES) + 1e-12
    theta = np.minimum(theta, 1.0)
    lhs = a.sum(axis=1) ** theta
    rhs = (a ** theta[:, None]).sum(axis=1)
    return int(np.sum(lhs > rhs * (1 + 1e-12)))


def _lemma_geometric_rows(rep, space, caps):
    d = space.dist
    w = space.weight
    v = space.v_table()
    radii = default_radius_grid(space)

    band = r_gamma_integral_band(space, 2.0, radii)
    vals = list(band.values())
    ratio = max(vals) / min(vals)
    rep.add("R_gamma integral stable across radii", "band",
            passed=ratio <= caps["integral_band"], value=ratio,
            cap=caps["integral_band"], gamma=2.0)

    offdiag = ~np.eye(space.n, dtype=bool)
    beta = 0.5
    ins, outs = [], []
    for R in radii:
        near = offdiag & (d <= R)
        far = offdiag & (d >= R)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_in = np.where(near, (d / R) ** beta / v, 0.0)
            t_out = np.where(far, (R / d) ** beta / v, 0.0)
        ins.append(float((t_in * w[None, :]).sum(axis=1).max()))
        outs.append(float((t_out * w[None, :]).sum(axis=1).max()))
    rep.add("near-ball singular integral bounded", "band",
            passed=max(ins) / min(ins) <= caps["integral_band"],
            value=max(ins) / min(ins), cap=caps["integral_band"], beta=beta)
    rep.add("far-ball singular integral bounded", "band",
            passed=max(outs) / min(outs) <= caps["integral_band"],
            value=max(outs) / min(outs), cap=caps["integral_band"], beta=beta)

    gamma = 2.0
    consts = []
    for r in radii[:3]:
        rg = next(_r_gamma(d, r, space.ball_measure(r)[:, None] + v,
                            (gamma,)))
        for R in radii[:3]:
            lhs = (np.where(d >= R, rg, 0.0) * w[None, :]).sum(axis=1).max()
            consts.append(float(lhs / (r / (r + R)) ** gamma))
    ratio = max(consts) / max(min(consts), 1e-300)
    rep.add("tail integral vs (r/(r+R))^gamma stable", "band",
            passed=ratio <= caps["two_sided_band"], value=ratio,
            cap=caps["two_sided_band"], gamma=gamma)


def _lemma_discrete_rows(rep, space, cubes, levels, omega, caps, seed):
    rng = np.random.default_rng(seed)
    d = space.dist
    v = space.v_table()
    delta = cubes.delta
    levels = [k for k in levels if k in (cubes.subcubes or {})]
    if len(levels) < 3:
        rep.add("discrete Riesz-sum rows", "band", passed=None,
                value=None, skipped="not enough refined levels")
        return
    mids = levels[1:-1][:4]
    gamma = 2.0 * max(omega, 1.0)
    p_small = 0.8

    uppers, lowers = [], []
    dom_consts = []
    for k in mids:
        for kp in (k - 1, k + 1):
            scale = delta ** min(k, kp)
            vk = space.ball_measure(scale)
            _, _, y, wgt, sub_assign = cubes.sample_arrays(k)
            base = 1.0 / (vk[:, None] + v[:, y])
            decay = (scale / (scale + d[:, y])) ** gamma
            s = ((base ** p_small) * (decay ** p_small) * wgt[None, :]).sum(axis=1)
            ref = vk ** (1.0 - p_small)
            uppers.append(float((s / ref).max()))
            lowers.append(float((s / ref).min()))

            a = rng.exponential(size=len(y))
            lhs = (base * decay * (wgt * a)[None, :]).sum(axis=1)
            r_exp = 0.8
            inside = (a ** r_exp)[sub_assign]
            m_of = hl_maximal(Field(space, inside)).values ** (1.0 / r_exp)
            factor = delta ** ((k - min(k, kp)) * omega * (1 - 1.0 / r_exp))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(m_of > 0, lhs / (factor * m_of), 0.0)
            dom_consts.append(float(ratio.max()))

    band = max(uppers) / min(lowers)
    rep.add("two-sided subcube Riesz sum vs V^(1-p)", "band",
            passed=band <= caps["two_sided_band"], value=band,
            upper=max(uppers), lower=min(lowers),
            cap=caps["two_sided_band"], gamma=gamma, p=p_small)
    band = max(dom_consts) / max(min(dom_consts), 1e-300)
    rep.add("maximal domination constant stable", "band",
            passed=band <= caps["two_sided_band"], value=band,
            cap=caps["two_sided_band"])


def fefferman_stein_constants(space, pairs, seed=0):
    """Empirical constants of the vector-valued maximal inequality, one per
    (p, q) in `pairs`, read off the same 12 random families of 6 fields
    drawn from `seed`, an integer >= 0."""
    rng = np.random.default_rng(integer_arg("seed", seed, low=0))
    best = dict.fromkeys(pairs, 0.0)
    for _ in range(12):
        fam = rng.standard_normal((6, space.n))
        mf = np.stack([hl_maximal(Field(space, g)).values
                       for g in fam])
        for p, q in best:
            lhs = _lp(_lq(mf, q, axis=0), p, space.weight)
            rhs = _lp(_lq(np.abs(fam), q, axis=0), p, space.weight)
            best[p, q] = max(best[p, q], lhs / rhs)
    return best


def lemma_suite(cubes, levels, omega=1.0, caps=None, seed=0):
    """Numerical instantiation of the auxiliary inequalities on the space of
    the refined `cubes`; the discrete rows read the stack's level range (a
    stack's ``levels()``, or a `Pipeline`'s ``levels``).  Every random draw
    comes from `seed`, an integer >= 0."""
    seed = integer_arg("seed", seed, low=0)
    space = cubes.space
    caps = merge_caps(caps)
    rep = SuiteReport("lemma suite")
    bad = theta_power_check(seed=seed)
    rep.add("theta-power inequality", "exact", passed=bad == 0, value=bad,
            sequences=THETA_SEQUENCES)
    _lemma_geometric_rows(rep, space, caps)
    _lemma_discrete_rows(rep, space, cubes, levels, omega, caps, seed)
    fs = fefferman_stein_constants(
        space, ((1.5, 2.0), (2.0, 2.0), (4.0, 4.0)), seed=seed)
    for (p, q), c in fs.items():
        rep.add(f"Fefferman-Stein constant p={p} q={q}", "value",
                passed=math.isfinite(c), value=c)
    return rep

