import norms_oracle
import numpy as np
import pytest

from homspace import (ExperimentError, Field, FlavorMismatchError, KernelSpec,
                      KernelStack, NormSpec, ParameterError, Pipeline,
                      equivalence_experiment, generate_ensemble,
                      generate_space, lemma_suite, validate_ati)
from homspace import lab as labmod
from homspace.lab import (EnsembleSpec, check_hypotheses, embedding_suite,
                          fefferman_stein_constants, theta_power_check)
from homspace.space import default_radius_grid, geometry_report


def test_ensemble_deterministic(pipe65):
    spec = EnsembleSpec(counts={"bandlimited": 3, "holder": 2,
                                "smoothed_indicator": 2, "gaussian_field": 3},
                        seed=4, mean_zero=True)
    a = generate_ensemble(pipe65.stack, spec)
    b = generate_ensemble(pipe65.stack, spec)
    assert len(a) == spec.total() == 10
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)


def test_ensemble_mean_zero_flag(grid65, pipe65):
    spec = EnsembleSpec(counts={"bandlimited": 2, "holder": 2,
                                "smoothed_indicator": 2, "gaussian_field": 2},
                        seed=1, mean_zero=True)
    for f in generate_ensemble(pipe65.stack, spec):
        assert abs(f.values @ grid65.weight) <= 1e-12


def test_ensemble_holder_matches_distance_powers(grid65, pipe65):
    spec = EnsembleSpec(counts={"holder": 5}, seed=2)
    fields = generate_ensemble(pipe65.stack, spec)
    # every holder probe is d(., x0)^theta for the drawn (theta, x0)
    rng = np.random.default_rng(2)
    for f in fields:
        theta = float(rng.uniform(0.3, 1.0))
        x0 = int(rng.integers(grid65.n))
        assert np.allclose(f.values, grid65.dist[x0] ** theta)


def test_holder_count_alone_draws_the_holder_fields(grid65, pipe65):
    """A count of one kind fills the others with 0: the fields are the
    ones the holder kind alone drew, value for value."""
    spec = EnsembleSpec(counts={"holder": 5}, seed=2)
    assert spec.counts == {"bandlimited": 0, "holder": 5,
                           "smoothed_indicator": 0, "gaussian_field": 0}
    assert list(spec.counts) == list(labmod.STANDARD_KINDS)
    fields = generate_ensemble(pipe65.stack, spec)
    rng = np.random.default_rng(2)
    assert len(fields) == 5
    for f in fields:
        theta = float(rng.uniform(0.3, 1.0))
        x0 = int(rng.integers(grid65.n))
        assert np.array_equal(f.values, grid65.dist[x0] ** theta)


@pytest.mark.parametrize("counts,builds", [
    ({"bandlimited": 4, "holder": 2}, 0),
    ({"holder": 1, "smoothed_indicator": 2, "gaussian_field": 2}, 1)])
def test_ensemble_builds_its_mollifier_on_first_use(pipe65, monkeypatch,
                                                    counts, builds):
    """Band-limited and Holder fields read no mollifier, so an ensemble of
    them builds no semigroup; the smoothed kinds share one."""
    scales = []
    real = labmod.build_semigroup
    monkeypatch.setattr(labmod, "build_semigroup", lambda space, t, a=1.0: (
        scales.append(t) or real(space, t, a=a)))
    spec = EnsembleSpec(counts=counts, seed=3)
    assert len(generate_ensemble(pipe65.stack, spec)) == spec.total()
    assert len(scales) == builds


def test_ensemble_rejects_unknown_count_key():
    with pytest.raises(ParameterError, match="'bogus'"):
        EnsembleSpec(counts={"holder": 1, "bogus": 2})


def test_ensemble_rejects_empty_kinds(pipe65):
    with pytest.raises(ParameterError, match="non-empty"):
        generate_ensemble(pipe65.stack,
                          EnsembleSpec(counts={}))


def test_standard_ensemble_is_fifty(grid65, pipe65):
    spec = EnsembleSpec(mean_zero=True)
    assert spec.total() == 50


def test_equivalence_bands(pipe65, geom65, validated65, ensemble65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    for pairing in ("B_vs_L", "B_vs_Lb", "F_vs_Lt"):
        rep = equivalence_experiment(pipe65.stack, spec, pairing, ensemble65,
            omega=geom65.omega, eta=validated65.eta_fit, geometry=geom65)
        assert rep.passed
        assert rep.ratio_max / rep.ratio_min <= 100.0
        assert rep.excluded == 0
        assert rep.geometric_mean > 0
        suite = rep.to_suite()
        assert suite.rows[0].passed


def test_equivalence_rejects_bad_hypotheses(pipe65, geom65, validated65,
                                            ensemble65):
    bad = NormSpec(s=0.9, p=2.0, q=2.0)  # s >= beta^gamma
    with pytest.raises(ExperimentError, match="hypothesis"):
        equivalence_experiment(pipe65.stack, bad, "B_vs_L", ensemble65,
                               omega=geom65.omega, eta=validated65.eta_fit,
                               geometry=geom65)
    bad_f = NormSpec(s=0.5, p=1.0, q=2.0)  # F = L_t needs p > 1
    with pytest.raises(ExperimentError, match="p, q"):
        equivalence_experiment(pipe65.stack, bad_f, "F_vs_Lt", ensemble65,
                               omega=geom65.omega, eta=validated65.eta_fit,
                               geometry=geom65)


def test_equivalence_rejects_a_pairing_of_the_other_flavor(
        pipe65, pipe65_inhom, geom65, validated65, ensemble65, monkeypatch):
    """The inhomog_ pairings need an inhomogeneous stack and the others a
    homogeneous one; a mismatch is refused before any norm is computed."""
    cases = ((pipe65.stack, NormSpec(s=0.5, p=2.0, q=2.0), "inhomog_B_vs_L"),
             (pipe65_inhom.stack, NormSpec(s=0.5, p=2.0, q=2.0,
                                           flavor="inhomogeneous"), "B_vs_L"))

    def no_work(*args, **kwargs):
        raise AssertionError("norm work before the flavor check")

    monkeypatch.setattr(labmod, "difference_scales", no_work)
    for stack, spec, pairing in cases:
        with pytest.raises(FlavorMismatchError, match=pairing):
            equivalence_experiment(stack, spec, pairing, ensemble65,
                                   omega=geom65.omega,
                                   eta=validated65.eta_fit, geometry=geom65)


def test_equivalence_refuses_a_spec_of_another_stack_before_any_product(
        pipe65, geom65, monkeypatch):
    """A spec whose delta or flavor is not the stack's is refused before
    any norm work: no difference scales, no level table."""
    def no_work(*args, **kwargs):
        raise AssertionError("norm work before the spec check")

    monkeypatch.setattr(KernelStack, "apply", no_work)
    monkeypatch.setattr(labmod, "difference_scales", no_work)
    for spec, error in ((NormSpec(s=0.5, p=2.0, q=2.0, delta=0.25),
                         ParameterError),
                        (NormSpec(s=0.5, p=2.0, q=2.0,
                                  flavor="inhomogeneous"),
                         FlavorMismatchError)):
        with pytest.raises(error, match="vs stack"):
            equivalence_experiment(pipe65.stack, spec, "B_vs_L",
                                   [Field(pipe65.space,
                                          np.ones(pipe65.space.n))],
                                   omega=geom65.omega, eta=0.95,
                                   geometry=geom65)


def test_p_le_one_gate_requires_lower_bound(geom65):
    spec = NormSpec(s=0.5, p=0.8, q=2.0, u=0.5, beta=0.7, gamma=0.7)
    # grid1d: max-ratio omega ~ 1.22 vs fitted lower bound ~ 1.0 -> gated out
    with pytest.raises(ExperimentError, match="lower"):
        check_hypotheses("F_vs_Lt_u", spec, geom65.omega, 0.95, geom65)


def test_p_le_one_gate_passes_on_circle():
    sp = generate_space("circle", size=256)
    # coarse half-offset radii keep the doubling ratio near 2 so the
    # max-ratio dimension matches the fitted lower bound
    radii = sorted((m + 0.5) / 256 for m in (16, 32, 64))
    geom = geometry_report(sp, radii)
    assert abs(geom.q_global - geom.omega) <= 0.15 * geom.omega
    spec = NormSpec(s=0.45, p=0.9, q=2.0, u=0.5, beta=0.7, gamma=0.7)
    check_hypotheses("F_vs_Lt_u", spec, geom.omega, 0.95, geom)


def test_u_variant_pairing_runs_on_circle():
    sp = generate_space("circle", size=128)
    pipe = Pipeline(sp)
    radii = sorted((m + 0.5) / 128 for m in (8, 16, 32))
    geom = geometry_report(sp, radii)
    rep = validate_ati(pipe.stack)
    ens = generate_ensemble(pipe.stack, EnsembleSpec(
        counts={"bandlimited": 4, "holder": 3, "smoothed_indicator": 3,
                "gaussian_field": 4}, seed=3, mean_zero=True))
    spec = NormSpec(s=0.45, p=0.9, q=2.0, u=0.5, beta=0.7, gamma=0.7)
    eq = equivalence_experiment(pipe.stack, spec,
                                "F_vs_Lt_u", ens, omega=geom.omega,
                                eta=rep.eta_fit, geometry=geom)
    assert eq.ratios and np.isfinite(eq.ratio_max)


def test_degenerate_fields_excluded(grid65, pipe65, geom65, validated65):
    from homspace import Field
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    const = Field(grid65, np.zeros(grid65.n) + 0.0)
    with pytest.raises(ExperimentError, match="degenerate"):
        equivalence_experiment(pipe65.stack, spec,
                               "B_vs_L", [const], omega=geom65.omega,
                               eta=validated65.eta_fit, geometry=geom65)


def test_embedding_suite_rows(pipe65, geom65, ensemble65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    suite = embedding_suite(pipe65.stack, ensemble65[:8], spec, geom65.omega,
                            geometry=geom65)
    names = [r.name for r in suite.rows]
    assert any("q-monotonicity" in n for n in names)
    exact_rows = [r for r in suite.rows if r.kind == "exact"]
    assert exact_rows and all(r.passed for r in exact_rows)


def test_theta_power_zero_violations():
    assert theta_power_check(seed=0) == 0


@pytest.mark.parametrize("seed", [-1, 1.5, "a", True])
def test_lemma_suite_seed_must_be_an_integer(pipe65, seed):
    with pytest.raises(ParameterError, match="seed"):
        lemma_suite(pipe65.cubes, pipe65.stack.levels(), seed=seed)


@pytest.mark.parametrize("seed", [-1, 1.5, "a", True])
def test_theta_power_check_seed_must_be_an_integer(seed):
    with pytest.raises(ParameterError, match="seed"):
        theta_power_check(seed=seed)


@pytest.mark.parametrize("seed", [-1, 1.5, "a", True])
def test_fefferman_stein_seed_must_be_an_integer(seed):
    sp = generate_space("grid1d", size=9)
    with pytest.raises(ParameterError, match="seed"):
        fefferman_stein_constants(sp, ((2.0, 2.0),), seed=seed)


def test_lemma_suite_passes(pipe65, geom65):
    suite = lemma_suite(pipe65.cubes, pipe65.stack.levels(),
                        omega=geom65.omega, seed=0)
    assert suite.passed
    assert any("theta-power" in r.name for r in suite.rows)
    assert any("Fefferman" in r.name for r in suite.rows)


def test_fefferman_stein_stability_under_refinement():
    pairs = ((1.5, 2.0), (2.0, 2.0), (4.0, 4.0))
    cs1 = fefferman_stein_constants(generate_space("grid1d", size=65),
                                    pairs, seed=0)
    cs2 = fefferman_stein_constants(generate_space("grid1d", size=129),
                                    pairs, seed=0)
    for p, q in pairs:
        c1, c2 = cs1[p, q], cs2[p, q]
        assert max(c1 / c2, c2 / c1) <= 2.0
        # one draw serves every pair: each constant is the single-pair one
        alone = fefferman_stein_constants(generate_space("grid1d", size=65),
                                          [(p, q)], seed=0)
        assert alone[p, q] == c1


def test_suite_report_rendering(pipe65, geom65):
    suite = lemma_suite(pipe65.cubes, pipe65.stack.levels(),
                        omega=geom65.omega, seed=0)
    text = suite.to_text()
    assert text.startswith("# lemma suite")
    csv = suite.to_csv()
    assert csv.splitlines()[0].startswith("name,kind,passed,value")
    # deterministic rendering
    assert suite.to_text() == text


def test_mixed_ensemble_counts_degenerate(grid65, pipe65, geom65,
                                          validated65, ensemble65):
    from homspace import Field
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    fields = list(ensemble65[:4]) + [Field(grid65, np.zeros(grid65.n))]
    rep = equivalence_experiment(pipe65.stack, spec,
                                 "B_vs_L", fields, omega=geom65.omega,
                                 eta=validated65.eta_fit, geometry=geom65)
    assert rep.excluded == 1
    assert len(rep.ratios) == 4


def test_embedding_bands_run_on_circle():
    sp = generate_space("circle", size=128)
    pipe = Pipeline(sp)
    radii = sorted((m + 0.5) / 128 for m in (8, 16, 32))
    geom = geometry_report(sp, radii)
    ens = generate_ensemble(pipe.stack, EnsembleSpec(
        counts={"bandlimited": 3, "holder": 2, "smoothed_indicator": 2,
                "gaussian_field": 3}, seed=5, mean_zero=True))
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    suite = embedding_suite(pipe.stack, ens, spec, geom.omega, geometry=geom)
    names = [r.name for r in suite.rows]
    assert any("Besov embedding band" in n for n in names)
    assert any("Triebel-Lizorkin embedding band" in n for n in names)
    assert suite.passed


def test_embedding_skips_without_lower_bound(pipe65, geom65, ensemble65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    # grid1d's max-ratio dimension exceeds its fitted lower bound, so the
    # p <= 1 rows must report skipped rather than asserting
    suite = embedding_suite(pipe65.stack, ensemble65[:6], spec, geom65.omega,
                            geometry=geom65)
    skipped = [r for r in suite.rows if r.details.get("skipped")]
    assert skipped


@pytest.mark.parametrize("size", [65, 257])
def test_equivalence_matches_the_field_by_field_loop(size, monkeypatch):
    """The ensemble's level tables, built level by level, give reports ==
    to the loop that tabled one field at a time, for the four theorem-band
    pairings, with exactly fields x levels `stack.apply` calls; an iterator
    ensemble works like a list."""
    sp = generate_space("grid1d", size=size)
    geom = geometry_report(sp, default_radius_grid(sp))
    calls = []
    apply = KernelStack.apply

    def counted(stack, k, values):
        calls.append(k)
        return apply(stack, k, values)

    for flavor, pairings in (("homogeneous", ("B_vs_L", "F_vs_Lt")),
                             ("inhomogeneous", ("inhomog_B_vs_L",
                                                "inhomog_F_vs_Lt"))):
        st = Pipeline(sp, kernel=KernelSpec(flavor=flavor)).stack
        fields = generate_ensemble(st, EnsembleSpec(seed=1, mean_zero=True))
        fields.append(Field(sp, np.zeros(sp.n)))  # excluded
        for p, q in ((2.0, 2.0), (np.inf, np.inf)):
            spec = NormSpec(s=0.5, p=p, q=q, flavor=flavor)
            for pairing in pairings:
                want = norms_oracle.equivalence_loop(st, spec, pairing,
                                                     fields)
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(KernelStack, "apply", counted)
                    rep = equivalence_experiment(
                        st, spec, pairing, iter(fields), omega=geom.omega,
                        eta=0.95, geometry=geom)
                key = (size, pairing, p)
                assert (rep.left, rep.right, rep.ratios, rep.excluded,
                        rep.geometric_mean) == want, key
                assert rep.excluded == 1, key
                assert len(calls) == len(fields) * len(st.levels()), key
