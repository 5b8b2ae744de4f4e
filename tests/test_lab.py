import numpy as np
import pytest

from homspace import (ExperimentError, NormSpec, build_pipeline,
                      equivalence_experiment, generate_ensemble,
                      generate_space, lemma_suite, validate_ati)
from homspace.lab import (EnsembleSpec, band_drift, check_hypotheses,
                          embedding_suite, fefferman_stein_constants,
                          standard_ensemble_spec, theta_power_check)
from homspace.space import geometry_report


def test_ensemble_deterministic(grid65, pipe65):
    spec = EnsembleSpec(counts={"bandlimited": 3, "holder": 2,
                                "smoothed_indicator": 2, "gaussian_field": 3},
                        seed=4, mean_zero=True)
    a = generate_ensemble(grid65, pipe65.stack, spec)
    b = generate_ensemble(grid65, pipe65.stack, spec)
    assert len(a) == spec.total() == 10
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)


def test_ensemble_mean_zero_flag(grid65, pipe65):
    spec = EnsembleSpec(counts={"bandlimited": 2, "holder": 2,
                                "smoothed_indicator": 2, "gaussian_field": 2},
                        seed=1, mean_zero=True)
    for f in generate_ensemble(grid65, pipe65.stack, spec):
        assert abs(f.values @ grid65.weight) <= 1e-12


def test_ensemble_holder_matches_distance_powers(grid65, pipe65):
    spec = EnsembleSpec(kinds=("holder",), counts={"holder": 5}, seed=2)
    fields = generate_ensemble(grid65, pipe65.stack, spec)
    # every holder probe is d(., x0)^theta for the drawn (theta, x0)
    rng = np.random.default_rng(2)
    for f in fields:
        theta = float(rng.uniform(0.3, 1.0))
        x0 = int(rng.integers(grid65.n))
        assert np.allclose(f.values, grid65.dist[x0] ** theta)


def test_ensemble_rejects_empty_kinds(grid65, pipe65):
    with pytest.raises(ExperimentError):
        generate_ensemble(grid65, pipe65.stack,
                          EnsembleSpec(kinds=(), counts={}))


def test_standard_ensemble_is_fifty(grid65, pipe65):
    spec = standard_ensemble_spec(mean_zero=True)
    assert spec.total() == 50


def test_equivalence_bands(grid65, pipe65, geom65, validated65, ensemble65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    for pairing in ("B_vs_L", "B_vs_Lb", "F_vs_Lt"):
        rep = equivalence_experiment(
            grid65, pipe65.stack, pipe65.cubes, spec, pairing, ensemble65,
            omega=geom65.omega, eta=validated65.eta_fit, geometry=geom65)
        assert rep.passed
        assert rep.ratio_max / rep.ratio_min <= 100.0
        assert rep.excluded == 0
        assert rep.geometric_mean > 0
        suite = rep.to_suite()
        assert suite.rows[0].passed


def test_equivalence_rejects_bad_hypotheses(grid65, pipe65, geom65,
                                            validated65, ensemble65):
    bad = NormSpec(s=0.9, p=2.0, q=2.0)  # s >= beta^gamma
    with pytest.raises(ExperimentError, match="hypothesis"):
        equivalence_experiment(grid65, pipe65.stack, pipe65.cubes, bad,
                               "B_vs_L", ensemble65, omega=geom65.omega,
                               eta=validated65.eta_fit, geometry=geom65)
    bad_f = NormSpec(s=0.5, p=1.0, q=2.0)  # F = L_t needs p > 1
    with pytest.raises(ExperimentError, match="p, q"):
        equivalence_experiment(grid65, pipe65.stack, pipe65.cubes, bad_f,
                               "F_vs_Lt", ensemble65, omega=geom65.omega,
                               eta=validated65.eta_fit, geometry=geom65)


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
    pipe = build_pipeline(sp)
    radii = sorted((m + 0.5) / 128 for m in (8, 16, 32))
    geom = geometry_report(sp, radii)
    rep = validate_ati(pipe.stack, pipe.cubes)
    ens = generate_ensemble(sp, pipe.stack, EnsembleSpec(
        counts={"bandlimited": 4, "holder": 3, "smoothed_indicator": 3,
                "gaussian_field": 4}, seed=3, mean_zero=True))
    spec = NormSpec(s=0.45, p=0.9, q=2.0, u=0.5, beta=0.7, gamma=0.7)
    eq = equivalence_experiment(sp, pipe.stack, pipe.cubes, spec,
                                "F_vs_Lt_u", ens, omega=geom.omega,
                                eta=rep.eta_fit, geometry=geom)
    assert eq.ratios and np.isfinite(eq.ratio_max)


def test_degenerate_fields_excluded(grid65, pipe65, geom65, validated65):
    from homspace import Field
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    const = Field(grid65, np.zeros(grid65.n) + 0.0)
    with pytest.raises(ExperimentError, match="degenerate"):
        equivalence_experiment(grid65, pipe65.stack, pipe65.cubes, spec,
                               "B_vs_L", [const], omega=geom65.omega,
                               eta=validated65.eta_fit, geometry=geom65)


def test_band_drift_helper(grid65, pipe65, geom65, validated65, ensemble65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    rep = equivalence_experiment(grid65, pipe65.stack, pipe65.cubes, spec,
                                 "B_vs_L", ensemble65, omega=geom65.omega,
                                 eta=validated65.eta_fit, geometry=geom65)
    assert band_drift(rep, rep) == 1.0


def test_embedding_suite_rows(grid65, pipe65, geom65, ensemble65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    suite = embedding_suite(grid65, pipe65.stack, pipe65.cubes,
                            ensemble65[:8], spec, geom65.omega,
                            geometry=geom65)
    names = [r.name for r in suite.rows]
    assert any("q-monotonicity" in n for n in names)
    exact_rows = [r for r in suite.rows if r.kind == "exact"]
    assert exact_rows and all(r.passed for r in exact_rows)


def test_theta_power_zero_violations():
    assert theta_power_check(n_sequences=10_000, seed=0) == 0


def test_lemma_suite_passes(grid65, pipe65, geom65):
    suite = lemma_suite(grid65, pipe65.cubes, pipe65.stack,
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


def test_suite_report_rendering(grid65, pipe65, geom65):
    suite = lemma_suite(grid65, pipe65.cubes, pipe65.stack,
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
    rep = equivalence_experiment(grid65, pipe65.stack, pipe65.cubes, spec,
                                 "B_vs_L", fields, omega=geom65.omega,
                                 eta=validated65.eta_fit, geometry=geom65)
    assert rep.excluded == 1
    assert len(rep.ratios) == 4


def test_embedding_bands_run_on_circle():
    sp = generate_space("circle", size=128)
    pipe = build_pipeline(sp)
    radii = sorted((m + 0.5) / 128 for m in (8, 16, 32))
    geom = geometry_report(sp, radii)
    ens = generate_ensemble(sp, pipe.stack, EnsembleSpec(
        counts={"bandlimited": 3, "holder": 2, "smoothed_indicator": 2,
                "gaussian_field": 3}, seed=5, mean_zero=True))
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    suite = embedding_suite(sp, pipe.stack, pipe.cubes, ens, spec,
                            geom.omega, geometry=geom)
    names = [r.name for r in suite.rows]
    assert any("Besov embedding band" in n for n in names)
    assert any("Triebel-Lizorkin embedding band" in n for n in names)
    assert suite.passed


def test_embedding_skips_without_lower_bound(grid65, pipe65, geom65,
                                             ensemble65):
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    # grid1d's max-ratio dimension exceeds its fitted lower bound, so the
    # p <= 1 rows must report skipped rather than asserting
    suite = embedding_suite(grid65, pipe65.stack, pipe65.cubes,
                            ensemble65[:6], spec, geom65.omega,
                            geometry=geom65)
    skipped = [r for r in suite.rows if r.details.get("skipped")]
    assert skipped
