import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homspace.cli import main
from homspace.lab import DEFAULT_CAPS, STANDARD_KINDS

BASE = {
    "space": {"kind": "grid1d", "size": 33},
    "norm": {"s": 0.5, "p": 2.0, "q": 2.0, "variant": "besov",
             "field": {"kind": "constant", "value": 3.0}},
}


def write_config(tmp_path, extra=None, name="c.json"):
    cfg = json.loads(json.dumps(BASE))
    for key, val in (extra or {}).items():
        cfg.setdefault(key, {}).update(val)
    cfg.setdefault("output", {})["dir"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return main(args)


def test_norm_constant_homogeneous_prints_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "norm", "compute"]) == 0
    out = capsys.readouterr().out.strip().splitlines()[0]
    assert abs(float(out)) <= 1e-10


def test_norm_variants(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for variant in ("lebesgue", "Ldot", "Lb", "Lt_dot", "L_tilde", "triebel"):
        code = run(["--config", cfg, "--set", f"norm.variant={variant}",
                    "--set", 'norm.field.kind="holder"', "norm", "compute"])
        assert code == 0
        val = float(capsys.readouterr().out.strip().splitlines()[0])
        assert val >= 0


# typos inside lab.caps and lab.ensemble.counts, as --set and as file keys
NESTED_TYPOS = {
    "lab.caps.ratio_max_over_mn=1.0001":
        {"lab": {"caps": {"ratio_max_over_mn": 1.0001}}},
    "lab.ensemble.counts.holdr=3":
        {"lab": {"ensemble": {"counts": {"holdr": 3}}}},
}


def test_unknown_config_key_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "--set", "nope.x=1", "norm", "compute"]) == 1
    assert run(["--config", cfg, "--set", "norm.bogus=1",
                "norm", "compute"]) == 1
    for assignment, section in NESTED_TYPOS.items():
        assert run(["--config", cfg, "--set", assignment,
                    "lab", "lemmas"]) == 1, assignment
        assert "unknown config key" in capsys.readouterr().err
        bad = write_config(tmp_path, section, name="typo.json")
        assert run(["--config", bad, "lab", "lemmas"]) == 1, assignment
        assert "unknown config key" in capsys.readouterr().err


def test_bad_space_document_exit_1(tmp_path, capsys):
    doc = {"n": 2, "dist": [[0.0, 1.0], [2.0, 0.0]], "weights": [1.0, 1.0]}
    p = tmp_path / "bad_space.json"
    p.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, {"space": {"file": str(p)}})
    assert run(["--config", cfg, "space", "build"]) == 1
    assert "asymmetric" in capsys.readouterr().err


def test_cubes_build_and_verify_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "cubes", "build"]) == 0
    capsys.readouterr()
    dump = os.path.join(str(tmp_path / "out"), "cubes.json")
    assert run(["--config", cfg, "cubes", "verify", "--dump", dump]) == 0
    capsys.readouterr()


def test_cubes_verify_tampered_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "cubes", "build"]) == 0
    capsys.readouterr()
    dump = os.path.join(str(tmp_path / "out"), "cubes.json")
    with open(dump) as fh:
        doc = json.load(fh)
    rec = doc["levels"]["2"]
    donor = next(i for i, m in enumerate(rec["members"]) if len(m) > 1)
    receiver = (donor + 1) % len(rec["members"])
    pt = [p for p in rec["members"][donor] if p != rec["centers"][donor]][0]
    rec["members"][donor] = [p for p in rec["members"][donor] if p != pt]
    rec["members"][receiver] = rec["members"][receiver] + [pt]
    with open(dump, "w") as fh:
        json.dump(doc, fh)
    assert run(["--config", cfg, "cubes", "verify", "--dump", dump]) == 2
    out = capsys.readouterr().out
    assert str(pt) in out


def test_space_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "space", "report"]) == 0
    out = tmp_path / "out"
    assert (out / "geometry.txt").exists()
    assert (out / "geometry.csv").exists()
    capsys.readouterr()


def test_ati_validate(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "ati", "validate"]) == 0
    text = (tmp_path / "out" / "ati_validate.txt").read_text()
    assert "cancellation residual" in text
    capsys.readouterr()


def test_frame_reconstruct_with_coefficients(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "norm": {"field": {"kind": "bandlimited", "seed": 1}},
        "frame": {"tol": 1e-6, "maxiter": 300, "dump_coefficients": True}})
    assert run(["--config", cfg, "frame", "reconstruct"]) == 0
    coeff = (tmp_path / "out" / "coefficients.csv").read_text()
    assert coeff.splitlines()[0] == "k,alpha,m,y_index,value,weight"
    capsys.readouterr()


def test_lab_equivalence_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, {"lab": {"pairing": "B_vs_L"}})
    assert run(["--config", cfg, "lab", "equivalence"]) == 0
    text = (tmp_path / "out" / "equivalence.txt").read_text()
    assert "ratio band" in text and "PASS" in text
    capsys.readouterr()


def test_effective_config_roundtrip_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, {"lab": {"pairing": "B_vs_L"}})
    assert run(["--config", cfg, "lab", "lemmas"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    first = (out / "lemmas.txt").read_bytes()
    first_csv = (out / "lemmas.csv").read_bytes()
    eff = out / "effective_config.json"
    assert run(["--config", str(eff), "lab", "lemmas"]) == 0
    capsys.readouterr()
    assert (out / "lemmas.txt").read_bytes() == first
    assert (out / "lemmas.csv").read_bytes() == first_csv


def test_usage_error_exit_1(capsys):
    assert run(["norm", "jiggle"]) == 1


def test_norm_variant_flag(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "--set", 'norm.field.kind="holder"',
                "norm", "compute", "--variant", "Lb_dot"]) == 0
    val = float(capsys.readouterr().out.strip().splitlines()[0])
    assert val > 0


def test_malformed_dump_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"delta": 0.5, "k_min": 0, "k_max": 2,
                               "levels": {}}))
    assert run(["--config", cfg, "cubes", "verify", "--dump", str(bad)]) == 1
    assert "malformed" in capsys.readouterr().err


def test_field_file_kind(tmp_path, capsys):
    vals = tmp_path / "field.json"
    vals.write_text(json.dumps([float(i) for i in range(33)]))
    cfg = write_config(tmp_path, {"norm": {
        "field": {"kind": "file", "file": str(vals)}, "variant": "lebesgue"}})
    assert run(["--config", cfg, "norm", "compute"]) == 0
    assert float(capsys.readouterr().out.strip().splitlines()[0]) > 0
    cfg2 = write_config(tmp_path, {"norm": {"field": {"kind": "file"}}},
                        name="c2.json")
    assert run(["--config", cfg2, "norm", "compute"]) == 1


def test_lab_band_cap_violation_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"lab": {"pairing": "B_vs_L",
                                          "caps": {"ratio_max_over_min": 1.0001}}})
    assert run(["--config", cfg, "lab", "equivalence"]) == 2
    assert "FAIL" in capsys.readouterr().out


# values that are not integers >= 0 (counts, seed) or finite positive
# numbers (caps)
BAD_INTEGER = st.one_of(st.integers(max_value=-1),
                        st.floats().filter(lambda v: not v.is_integer()),
                        st.booleans(), st.text(max_size=4))
BAD_CAP = st.one_of(st.floats(max_value=0.0), st.integers(max_value=0),
                    st.sampled_from([float("nan"), float("inf")]),
                    st.booleans(), st.text(max_size=4))
BAD_ASSIGNMENT = st.one_of(
    st.tuples(st.sampled_from([f"lab.ensemble.counts.{k}"
                               for k in STANDARD_KINDS]), BAD_INTEGER),
    st.tuples(st.just("lab.ensemble.seed"), BAD_INTEGER),
    st.tuples(st.sampled_from([f"lab.caps.{c}" for c in DEFAULT_CAPS]),
              BAD_CAP))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(assignment=BAD_ASSIGNMENT)
def test_bad_counts_seed_and_caps_exit_1(tmp_path, capsys, assignment):
    path, value = assignment
    cfg = write_config(tmp_path)
    code = run(["--config", cfg, "--set", f"{path}={json.dumps(value)}",
                "lab", "lemmas"])
    assert code == 1, (path, value)
    assert "error:" in capsys.readouterr().err


# ensemble settings that are not a non-empty list of known kinds, each with
# a count, and a bool mean_zero; then --set paths that name no config leaf
BAD_SETS = (
    'lab.ensemble.kinds=["bogus"]',
    "lab.ensemble.kinds=5",
    "lab.ensemble.kinds=[]",
    'lab.ensemble.kinds="holder"',
    'lab.ensemble.counts={"holder": 2}',
    'lab.ensemble.mean_zero="no"',
    "lab.ensemble.mean_zero=1",
    "space.size",
    "space.size.x=1",
    "space..size=1",
)
# norm parameters and field leaves that are not numbers or lie out of range
BAD_NORM_SETS = (
    'norm.p="abc"',
    'norm.u="x"',
    'norm.s="x"',
    'norm.c_tilde="x"',
    "norm.field.center=100000",
    'norm.field.theta="x"',
)


def test_bad_ensemble_settings_set_paths_and_fields_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path)
    for assignment in BAD_SETS:
        assert run(["--config", cfg, "--set", assignment,
                    "lab", "lemmas"]) == 1, assignment
        assert "error:" in capsys.readouterr().err, assignment
    for assignment in BAD_NORM_SETS:
        assert run(["--config", cfg, "--set", assignment,
                    "norm", "compute"]) == 1, assignment
        assert "error:" in capsys.readouterr().err, assignment
    vals = tmp_path / "nan_field.json"
    vals.write_text(json.dumps([float("nan")] + [1.0] * 32))
    bad = write_config(tmp_path, {"norm": {
        "field": {"kind": "file", "file": str(vals)}, "variant": "lebesgue"}},
        name="nan.json")
    assert run(["--config", bad, "norm", "compute"]) == 1
    assert "error:" in capsys.readouterr().err
