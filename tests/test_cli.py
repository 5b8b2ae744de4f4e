import importlib.util
import inspect
import json
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import click
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homspace import (Pipeline, cli, generate_space, kernels, pipeline,
                      space)
from homspace import lab as labmod
from homspace.cli import (DEFAULT_CONFIG, NULL_DEFAULT_TYPES, config_specs,
                          load_config, main)
from homspace.errors import ParameterError
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
    # a space file reads no kind or size, so BASE's are nulled
    cfg = write_config(tmp_path, {"space": {"file": str(p), "kind": None,
                                            "size": None}})
    assert run(["--config", cfg, "space", "build"]) == 1
    assert "asymmetric" in capsys.readouterr().err


def test_space_document_with_nan_a0_exit_1(tmp_path, capsys):
    doc = space.space_to_document(generate_space("grid1d", size=9))
    doc["a0"] = float("nan")
    p = tmp_path / "nan_a0.json"
    p.write_text(json.dumps(doc))
    assert run(["--out", str(tmp_path / "out"), "--set",
                f"space.file={json.dumps(str(p))}", "space", "build"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a0 must be") and "Traceback" not in err


def test_cubes_build_and_verify_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "cubes", "build"]) == 0
    capsys.readouterr()
    dump = os.path.join(str(tmp_path / "out"), "cubes.json")
    assert run(["--config", cfg, "cubes", "verify", "--dump", dump]) == 0
    capsys.readouterr()


def test_stack_free_commands_build_no_kernel(tmp_path, capsys, monkeypatch):
    """`cubes build` and `lab lemmas` read no kernel table Q_k, so they run
    with every semigroup build failing."""
    def no_semigroup(*args, **kwargs):
        raise AssertionError("a stack-free command built a semigroup")

    monkeypatch.setattr(kernels, "build_semigroup", no_semigroup)
    monkeypatch.setattr(labmod, "build_semigroup", no_semigroup)
    cfg = write_config(tmp_path, {"space": {"size": 65}})
    for command in (["cubes", "build"], ["lab", "lemmas"]):
        assert run(["--config", cfg, *command]) == 0, command
    capsys.readouterr()
    with pytest.raises(AssertionError, match="semigroup"):
        run(["--config", cfg, "ati", "build"])


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


@pytest.mark.parametrize("edit", [lambda c: [-33] + c[1:], lambda c: c[:-1]],
                         ids=["negative center", "one center short"])
def test_dump_with_bad_centers_exit_1(tmp_path, capsys, edit):
    # a center of -n used to wrap to point 0 and verify, and a level with
    # fewer centers than member lists used to escape as a ValueError
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "cubes", "build"]) == 0
    capsys.readouterr()
    dump = tmp_path / "out" / "cubes.json"
    doc = json.loads(dump.read_text())
    rec = doc["levels"]["2"]
    rec["centers"] = edit(rec["centers"])
    dump.write_text(json.dumps(doc))
    assert run(["--config", cfg, "cubes", "verify", "--dump",
                str(dump)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: level 2: ") and "Traceback" not in err


def test_dump_with_levels_past_k_max_exit_1(tmp_path, capsys):
    # a dump whose k_max stops short of its levels used to load the levels
    # up to k_max and verify PASS
    cfg = write_config(tmp_path)
    assert run(["--config", cfg, "cubes", "build"]) == 0
    capsys.readouterr()
    dump = tmp_path / "out" / "cubes.json"
    doc = json.loads(dump.read_text())
    doc["k_max"] -= 1
    dump.write_text(json.dumps(doc))
    assert run(["--config", cfg, "cubes", "verify", "--dump",
                str(dump)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed cube dump: levels ")
    assert "Traceback" not in err


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
    vals.write_text(json.dumps(["x", 1]))
    capsys.readouterr()
    assert run(["--config", cfg, "norm", "compute"]) == 1
    assert "error: norm.field.file values must be numbers" in \
        capsys.readouterr().err


@pytest.mark.parametrize("values", [["1"] * 33, [True] * 33, [None] * 33],
                         ids=["strings", "booleans", "nulls"])
def test_field_file_refuses_values_that_are_not_numbers(tmp_path, capsys,
                                                         values):
    # strings and booleans were parsed as numbers, and nulls read as NaN
    vals = tmp_path / "field.json"
    vals.write_text(json.dumps(values))
    cfg = write_config(tmp_path, {"norm": {
        "field": {"kind": "file", "file": str(vals)}, "variant": "lebesgue"}})
    assert run(["--config", cfg, "norm", "compute"]) == 1
    assert "error: norm.field.file values must be numbers" in \
        capsys.readouterr().err
    vals.write_text(json.dumps(list(range(33))))
    assert run(["--config", cfg, "norm", "compute"]) == 0


def test_set_mapping_merges_into_section(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run(["--out", out, "--set", 'space={"kind": "grid1d"}',
                "space", "build"]) == 0
    assert "space n=65 " in capsys.readouterr().out
    cfg = load_config(None, ['space={"kind": "circle", "size": 8}'])
    assert cfg["space"] == {**DEFAULT_CONFIG["space"], "kind": "circle",
                            "size": 8}
    cfg = load_config(None, ['lab.caps={"integral_band": 5}'])
    assert cfg["lab"]["caps"] == {**DEFAULT_CAPS, "integral_band": 5}
    # a mapping laid over a non-mapping leaf still replaces it, and fails
    # that leaf's type check
    with pytest.raises(ParameterError, match="space.weights must be a list"):
        load_config(None, ['space.weights={"a": 1}'])
    for bad in ('space={"kind": "grid1d", "bogus": 1}',
                'lab.caps={"integral_band": 5, "bogus": 1}'):
        with pytest.raises(ParameterError, match="unknown config key"):
            load_config(None, [bad])
        assert run(["--out", out, "--set", bad, "space", "build"]) == 1
        assert "error: unknown config key" in capsys.readouterr().err


def test_space_leaves_the_space_would_ignore_exit_1(tmp_path, capsys):
    out = str(tmp_path / "out")
    weights = "space.weights=[5, 5, 5]"
    for leaf in ("space.level=2", "space.exponent=2.0"):
        assert run(["--out", out, "--set", leaf, "space", "build"]) == 1
        assert "space.kind is 'grid1d', so" in capsys.readouterr().err
    assert run(["--out", out, "--set", "space.size=3", "--set", weights,
                "space", "build"]) == 0
    capsys.readouterr()
    doc = tmp_path / "out" / "space.json"
    for leaf in (weights, "space.level=2", "space.exponent=2.0",
                 'space.label="x"'):
        assert run(["--out", out, "--set", f'space.file="{doc}"',
                    "--set", leaf, "space", "build"]) == 1, leaf
        err = capsys.readouterr().err
        assert "error: space.file is set" in err, leaf
        assert leaf.split("=")[0] in err, leaf
    assert run(["--out", out, "--set", f'space.file="{doc}"',
                "space", "build"]) == 0


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


# the removed lab.ensemble.kinds, counts that are not integers >= 0 of known
# kinds, and a mean_zero that is not a bool; then --set paths that name no
# config leaf
BAD_SETS = (
    'lab.ensemble.kinds=["bogus"]',
    "lab.ensemble.kinds=5",
    "lab.ensemble.kinds=[]",
    'lab.ensemble.kinds="holder"',
    'lab.ensemble.counts={"holder": -2}',
    'lab.ensemble.counts={"bogus": 2}',
    'lab.ensemble.mean_zero="no"',
    "lab.ensemble.mean_zero=1",
    "space.size",
    "space.size.x=1",
    "space..size=1",
)
# pipeline leaves of the wrong type, a fractional integer leaf, boolean
# leaves that are not JSON booleans, and a negative coarse-level count
BAD_PIPELINE_SETS = (
    ('dyadic.delta="x"',),
    ('kernel.a="x"',),
    ('space.size="x"',),
    ("dyadic.j0=1.5",),
    ('dyadic.strict="no"',),
    ('frame.dump_coefficients="no"',),
    ("frame.dump_coefficients=1",),
    ('kernel.flavor="inhomogeneous"', "kernel.n_low=-1"),
    ('kernel.flavor="inhomogeneous"', "dyadic.k_min=3"),
    ("kernel.a=-1",),
    ("kernel.a=0",),
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


# leaves of the wrong type, also ones `lab lemmas` never reads, the removed
# output.formats and space.measure, and lists of non-numbers
BAD_LEAF_SETS = (
    ("output.dir=5",),
    ('output.formats=["pdf"]',),
    ('output.formats="text"',),
    ('lab.radius_grid="x"',),
    ('lab.radius_grid=["x"]',),
    ("space.kind=5",),
    ("lab.pairing=5",),
    ("norm.p=null",),
    ('norm.s="x"',),
    ('space.measure="custom"', 'space.weights=["x"]'),
    ('space.weights=["x"]',),
)


def _leaves(node, path=""):
    for key, val in node.items():
        if isinstance(val, dict):
            yield from _leaves(val, f"{path}{key}.")
        else:
            yield f"{path}{key}", val


# per leaf type, a JSON value of another type
WRONG_TYPE = {bool: "1", int: "1.5", float: '"x"', str: "5", list: '{"a": 1}'}


def test_every_config_leaf_rejects_another_type():
    for leaf, default in _leaves(DEFAULT_CONFIG):
        kind = NULL_DEFAULT_TYPES[leaf] if default is None else type(default)
        with pytest.raises(ParameterError, match=re.escape(leaf)):
            load_config(None, [f"{leaf}={WRONG_TYPE[kind]}"])
        if default is None:
            assert load_config(None, [f"{leaf}=null"]) == DEFAULT_CONFIG
    cfg = load_config(None, ['norm.p="inf"', "norm.q=Infinity"])
    assert (cfg["norm"]["p"], cfg["norm"]["q"]) == ("inf", float("inf"))
    for bad in ('norm.p="Infinity"', "norm.q=null", "norm.p=NaN"):
        with pytest.raises(ParameterError):
            load_config(None, [bad])


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
    for assignments in BAD_PIPELINE_SETS:
        sets = [arg for a in assignments for arg in ("--set", a)]
        assert run(["--config", cfg, *sets, "norm", "compute"]) == 1, \
            assignments
        assert "error:" in capsys.readouterr().err, assignments
    for assignments in BAD_LEAF_SETS:
        sets = [arg for a in assignments for arg in ("--set", a)]
        assert run(["--config", cfg, *sets, "lab", "lemmas"]) == 1, \
            assignments
        assert "error:" in capsys.readouterr().err, assignments
    vals = tmp_path / "nan_field.json"
    vals.write_text(json.dumps([float("nan")] + [1.0] * 32))
    bad = write_config(tmp_path, {"norm": {
        "field": {"kind": "file", "file": str(vals)}, "variant": "lebesgue"}},
        name="nan.json")
    assert run(["--config", bad, "norm", "compute"]) == 1
    assert "error:" in capsys.readouterr().err


# leaves out of range or removed from the config, each with a command that
# never reads it or reads it only after the space is built; all exit 1 before
# any space is built.  The ids are fixed strings (the positional names pytest
# gave these cases), so removing a case renames no other
REJECTED_BEFORE_WORK = (
    pytest.param(('kernel.flavor="inhomogeneous"', "kernel.sigma=-1"),
                 "cubes build", id="sets0-cubes build"),
    pytest.param(('kernel.flavor="inhomogeneous"', "kernel.sigma=-1"),
                 "lab lemmas", id="sets1-lab lemmas"),
    pytest.param(('kernel.flavor="inhomogeneous"', "kernel.n_low=-1"),
                 "cubes build", id="sets2-cubes build"),
    pytest.param(('kernel.flavor="inhomogeneous"', "kernel.n_low=-1"),
                 "lab lemmas", id="sets3-lab lemmas"),
    pytest.param(('kernel.flavor="inhomogeneous"', 'kernel.coarse="warp"'),
                 "ati build", id="sets4-ati build"),
    pytest.param(("space.size=3", 'space.kind="sierpinski_level"',
                  "space.level=1"), "space build", id="sets5-space build"),
    pytest.param(('lab.pairing="bogus"',), "lab embeddings",
                 id="sets6-lab embeddings"),
    pytest.param(("lab.radius_grid=[-1]",), "ati build",
                 id="sets7-ati build"),
    pytest.param(('norm.variant="bogus"',), "norm compute",
                 id="sets8-norm compute"),
    pytest.param((), "norm compute --variant bogus",
                 id="sets9-norm compute --variant bogus"),
    pytest.param(("space.size=33", "dyadic.delta=2"), "cubes build",
                 id="sets10-cubes build"),
    pytest.param(("dyadic.sigma=1.05",), "cubes build",
                 id="sets11-cubes build"),
    pytest.param(("dyadic.deep_margin=-1",), "cubes build",
                 id="sets12-cubes build"),
    pytest.param(("kernel.fine_factor=0",), "cubes build",
                 id="sets13-cubes build"),
    pytest.param(("kernel.fine_factor=-1",), "cubes build",
                 id="sets14-cubes build"),
    pytest.param(("kernel.a=-1",), "ati build", id="sets15-ati build"),
    pytest.param(("kernel.a=-1",), "lab lemmas", id="sets16-lab lemmas"),
    pytest.param(("kernel.sigma=0.5",), "ati build", id="sets17-ati build"),
    pytest.param(('space.file="x.json"', "space.size=9"), "space build",
                 id="sets18-space build"),
    pytest.param(("space.size=65", "dyadic.k_max=6", "kernel.fine_factor=2"),
                 "ati build", id="sets19-ati build"),
    pytest.param(("space.size=65", "dyadic.k_max=6", "kernel.fine_factor=2"),
                 "cubes build", id="sets20-cubes build"),
    pytest.param(("lab.radius_grid=[0.1, Infinity]",), "space report",
                 id="sets21-space report"),
    pytest.param(("lab.radius_grid=[NaN]",), "space report",
                 id="sets22-space report"),
    pytest.param(("space.size=3", "space.weights=[1, 2]"), "space build",
                 id="sets23-space build"),
    pytest.param(("space.size=3", 'space.weights=["x"]'), "space build",
                 id="sets24-space build"),
    pytest.param(("space.size=3", "space.weights=[0, 1, 1]"), "space build",
                 id="sets25-space build"),
    pytest.param(("space.size=3", "space.weights=[-1, 1, 1]"), "space build",
                 id="sets26-space build"),
    pytest.param(("space.size=3", "space.weights=[NaN, 1, 1]"),
                 "space build", id="sets27-space build"),
    pytest.param(("norm.field.theta=-1",), "lab lemmas",
                 id="sets28-lab lemmas"),
    pytest.param(("norm.field.theta=-1",), "norm compute",
                 id="sets29-norm compute"),
    pytest.param(("norm.field.radius=-1",), "norm compute",
                 id="sets30-norm compute"),
)


def _no_space(monkeypatch):
    def no_space(*args, **kwargs):
        raise AssertionError("a space was built")

    monkeypatch.setattr(cli, "generate_space", no_space)
    monkeypatch.setattr(cli, "load_space", no_space)


@pytest.mark.parametrize("sets,command", REJECTED_BEFORE_WORK)
def test_bad_leaves_exit_1_before_any_space_is_built(tmp_path, capsys,
                                                     monkeypatch, sets,
                                                     command):
    _no_space(monkeypatch)
    args = [arg for a in sets for arg in ("--set", a)]
    assert run(["--out", str(tmp_path), *args, *command.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err


@pytest.mark.parametrize("section,key,value", [
    ("kernel", "coarse", "mean"), ("kernel", "fine_factor", 16.0),
    ("dyadic", "sigma", 0.6), ("dyadic", "deep_margin", 0.3),
    ("output", "formats", ["text", "csv"]), ("space", "measure", "uniform"),
    ("lab", "ensemble", {"kinds": ["holder"]})])
def test_removed_keys_are_unknown(tmp_path, capsys, monkeypatch, section,
                                  key, value):
    """A config file or a --set that still sets a removed leaf, even to the
    value it used to default to, fails loudly before any space is built."""
    _no_space(monkeypatch)
    cfg = write_config(tmp_path, {section: {key: value}})
    for args in (["--config", cfg],
                 ["--set", f"{section}.{key}={json.dumps(value)}"]):
        assert run(["--out", str(tmp_path), *args, "cubes", "build"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: unknown config key {section}.{key}")


@pytest.mark.parametrize("sets", [
    ('lab.pairing="inhomog_B_vs_L"', 'kernel.flavor="homogeneous"'),
    ('lab.pairing="B_vs_L"', 'kernel.flavor="inhomogeneous"')])
def test_lab_pairing_of_the_other_flavor_exits_1_before_any_kernel(
        tmp_path, capsys, monkeypatch, sets):
    def no_semigroup(*args, **kwargs):
        raise AssertionError("a kernel table was built")

    monkeypatch.setattr(kernels, "build_semigroup", no_semigroup)
    monkeypatch.setattr(labmod, "build_semigroup", no_semigroup)
    args = [arg for a in ("space.size=65", *sets) for arg in ("--set", a)]
    assert run(["--out", str(tmp_path), *args, "lab", "equivalence"]) == 1
    assert capsys.readouterr().err.startswith("error: pairing")


@pytest.mark.parametrize("command", ["lab equivalence", "ati build"])
@pytest.mark.parametrize("sets", [
    ('lab.pairing="inhomog_F_vs_Lt"', 'kernel.flavor="homogeneous"'),
    ('lab.pairing="F_vs_Lt"', 'kernel.flavor="inhomogeneous"')])
def test_pairing_of_the_other_flavor_exits_1_before_any_space_is_built(
        tmp_path, capsys, monkeypatch, sets, command):
    """The pairing is held to the kernel flavor with every other config
    rule, also for a command that never reads the pairing."""
    _no_space(monkeypatch)
    args = [arg for a in sets for arg in ("--set", a)]
    assert run(["--out", str(tmp_path), *args, *command.split()]) == 1
    assert capsys.readouterr().err.startswith("error: pairing")


def test_null_pairing_is_the_flavor_besov_pairing(tmp_path, capsys):
    """An inhomogeneous config that sets no pairing runs `lab equivalence`
    as inhomog_B_vs_L, report for report."""
    sets = ("space.size=65", 'kernel.flavor="inhomogeneous"')
    reports = {}
    for name, pairing in (("null", ()),
                          ("explicit", ('lab.pairing="inhomog_B_vs_L"',))):
        args = [arg for a in (*sets, *pairing) for arg in ("--set", a)]
        out = tmp_path / name
        assert run(["--out", str(out), *args, "lab", "equivalence"]) == 0
        reports[name] = [(out / f"equivalence.{ext}").read_bytes()
                         for ext in ("txt", "csv")]
    assert reports["null"] == reports["explicit"]
    assert b"equivalence inhomog_B_vs_L" in reports["null"][0]
    capsys.readouterr()


# the leaves a command reads itself, not through a spec
COMMAND_LEAVES = ("norm.variant", "frame.dump_coefficients", "output.dir")


def test_every_config_leaf_is_read():
    """Each leaf of DEFAULT_CONFIG is a field of the spec that `config_specs`
    builds from its section (a key of a mapping leaf, such as a cap, is a
    key of that field), or one a command reads itself: no key is accepted
    for nothing."""
    specs = config_specs(load_config(None, ()))
    section_specs = {
        "space": specs["space"], "dyadic": specs["dyadic"],
        "kernel": specs["kernel"], "norm": specs["norm"],
        "norm.field": specs["field"], "frame": specs["frame"],
        "lab": specs["lab"], "lab.ensemble": specs["lab"].ensemble}
    assert specs["lab"].caps == DEFAULT_CAPS
    for leaf, _ in _leaves(DEFAULT_CONFIG):
        if leaf in COMMAND_LEAVES:
            continue
        parts = leaf.split(".")
        cut = 2 if ".".join(parts[:2]) in section_specs else 1
        spec = section_specs.get(".".join(parts[:cut]))
        name, *keys = parts[cut:]
        assert spec and name in {f.name for f in fields(spec)}, leaf
        assert all(key in getattr(spec, name) for key in keys), leaf


def test_seeds_and_field_leaves_are_never_unread():
    """The seeds and the field leaves keep their defaults and are never
    rejected as unread, whatever the space, kernel or field choice."""
    cfg = load_config(None, [
        'space.kind="sierpinski_level"', "space.level=2", "space.seed=3",
        "dyadic.seed=3", 'dyadic.sampler="center"', "norm.field.seed=3",
        'norm.field.kind="constant"', "norm.field.theta=0.5",
        "norm.field.radius=0.5", "lab.ensemble.seed=3"])
    specs = config_specs(cfg)
    assert (specs["space"].size, specs["space"].level) == (None, 2)
    assert specs["kernel"].sigma is None


def test_field_spec_keeps_the_integers_its_checks_return():
    """An integral float center, seed or level makes the int's field; a
    bool level is refused as bools are everywhere else."""
    pipe = Pipeline(generate_space("grid1d", size=33))
    for kind, name, value in (("bandlimited", "seed", 2),
                              ("bandlimited", "level", 2),
                              ("holder", "center", 3)):
        a, b = (cli.FieldSpec(kind=kind, **{name: v}) for v in
                (value, float(value)))
        assert a == b and type(getattr(b, name)) is int
        assert np.array_equal(a.make(pipe).values, b.make(pipe).values)
    with pytest.raises(ParameterError, match="norm.field.level"):
        cli.FieldSpec(kind="bandlimited", level=True)


@pytest.mark.parametrize("file", [True, 3.0, 1, ["a.json"]])
def test_file_leaves_must_be_strings(file):
    """A set `file` of a field or a space is a path string: a bool or a
    number would reach `open` as a file descriptor."""
    with pytest.raises(ParameterError, match="norm.field.file"):
        cli.FieldSpec(kind="file", file=file)
    with pytest.raises(ParameterError, match="norm.field.file"):
        cli.FieldSpec(kind="holder", file=file)
    with pytest.raises(ParameterError, match="space.file"):
        space.SpaceSpec(file=file)
    assert cli.FieldSpec(kind="file", file="f.json").file == "f.json"
    assert space.SpaceSpec(file="s.json").file == "s.json"


def test_field_value_is_checked_in_the_constructor():
    """A constant field's value is a finite real number: a string, a bool,
    NaN and inf are refused by the spec, before any space is read."""
    for value in ("abc", True, float("nan"), float("inf"), None):
        with pytest.raises(ParameterError, match="norm.field.value"):
            cli.FieldSpec(kind="constant", value=value)
    pipe = Pipeline(generate_space("grid1d", size=33))
    field = cli.FieldSpec(kind="constant", value=2).make(pipe)
    assert np.all(field.values == 2.0)


def _bench_module(monkeypatch, name):
    """The benchmark's module `name`, loaded without writing its bytecode."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def _resolve(words):
    """The click command that `words` name, its arguments parsed."""
    cmd, ctx = cli.cli, None
    while isinstance(cmd, click.Group):
        ctx = click.Context(cmd, parent=ctx)
        name, cmd, words = cmd.resolve_command(ctx, list(words))
    cmd.make_context(name, words, parent=ctx)
    return cmd


def test_benchmark_argv_passes_the_config_checks(monkeypatch):
    """Every benchmark step's --set list, with the seeds it sets on every
    command, and every set-up's list pass `load_config` and build their
    specs; each step's command resolves in the command group."""
    wl = _bench_module(monkeypatch, "workloads")
    for workload in wl.WORKLOADS.values():
        for seed in (0, 3):
            for step in workload.steps:
                assert _resolve(step.command).callback is not None
                config_specs(load_config(None, workload.space
                                         + wl.seed_sets(seed) + step.sets))
            for flavour in workload.flavours:
                config_specs(load_config(
                    None, wl.setup_sets(workload, seed, flavour)))


def test_names_the_benchmark_tracer_reads_resolve(monkeypatch):
    """Every span the benchmark's tracer observes, holds or memory-traces is
    a public function of its layer, every method it wraps exists, and the
    observers' parameters are still there: a rename would silently zero a
    per-layer figure or break the traced run."""
    tracer = _bench_module(monkeypatch, "tracer")
    for name in (*tracer.OBSERVERS, *tracer.HELD, *tracer.MEMORY_SPANS):
        layer, attr = name.split(".")
        module = importlib.import_module(f"homspace.{layer}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
            name
    for layer, cls, meth in tracer.METHODS:
        owner = getattr(importlib.import_module(f"homspace.{layer}"), cls)
        assert inspect.isfunction(vars(owner).get(meth)), (cls, meth)
    assert {"dist", "samples"} <= set(
        inspect.signature(space.certify_a0).parameters)
    assert "text" in inspect.signature(cli.write_atomic).parameters


@pytest.fixture()
def builds(monkeypatch):
    """Counts of the nets and semigroup tables built while a test runs."""
    counts = {"build_nets": 0, "build_semigroup": 0}
    for module, name in ((pipeline, "build_nets"),
                         (kernels, "build_semigroup")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return counts


BANDLIMITED = 'norm.field.kind="bandlimited"'
# every command, with the stages it builds past the space: none, "cubes"
# (the nets, the refined cubes and the level range) or "stack" (those and
# the kernel stack); the default norm variant is besov, the default field
# holder
COMMAND_BUILDS = (
    ("space build", (), None), ("space report", (), None),
    ("cubes build", (), "cubes"), ("cubes verify --dump {dump}", (), None),
    ("ati build", (), "stack"), ("ati validate", (), "stack"),
    ("norm compute", (), "stack"),
    ("norm compute", ('norm.variant="triebel"',), "stack"),
    ("norm compute", ('norm.variant="lebesgue"',), None),
    ("norm compute", ('norm.variant="Ldot"',), None),
    ("norm compute", ('norm.variant="L_tilde"',), None),
    ("norm compute", ('norm.variant="lebesgue"', BANDLIMITED), "stack"),
    ("frame reconstruct", (), "stack"),
    ("lab equivalence", (), "stack"), ("lab embeddings", (), "stack"),
    ("lab lemmas", (), "cubes"),
    ("maximal", (), None), ("maximal", (BANDLIMITED,), "stack"),
)


def test_every_command_builds_what_it_reads(tmp_path, capsys, builds):
    out = tmp_path / "out"
    assert run(["--out", str(out), "--set", "space.size=33",
                "cubes", "build"]) == 0
    Pipeline(generate_space("grid1d", size=33)).stack
    stack_tables = builds["build_semigroup"]
    want = {None: (0, 0), "cubes": (1, 0), "stack": (1, stack_tables)}
    for command, sets, stages in COMMAND_BUILDS:
        builds.update(build_nets=0, build_semigroup=0)
        args = [arg for a in ("space.size=33", *sets) for arg in ("--set", a)]
        words = command.format(dump=out / "cubes.json").split()
        assert run(["--out", str(tmp_path / "run"), *args, *words]) == 0
        got = (builds["build_nets"], builds["build_semigroup"])
        assert got == want[stages], (command, sets)
    capsys.readouterr()


def test_only_commands_that_read_a0_draw_its_sample(tmp_path, capsys,
                                                   monkeypatch):
    """Above the cap the a0 sample is drawn on the first read of
    ``space.a0``: `frame reconstruct` and `lab lemmas` never read it."""
    calls = []

    def counted(*args, _fn=space.certify_a0, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(space, "certify_a0", counted)
    monkeypatch.setattr(space, "A0_EXHAUSTIVE_CAP", 16)
    args = ["--out", str(tmp_path), "--set", 'space.kind="grid2d"',
            "--set", "space.size=5"]
    for command in ("frame reconstruct", "lab lemmas"):
        assert run([*args, *command.split()]) == 0, command
        assert calls == [], command
    capsys.readouterr()
    assert run([*args, "space", "build"]) == 0
    assert len(calls) == 1
    assert "(sampled)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["norm compute", "frame reconstruct",
                                     "maximal"])
def test_field_level_is_checked_before_any_build(tmp_path, capsys, builds,
                                                 command):
    args = ["--set", "space.size=33", "--set", BANDLIMITED,
            "--set", "norm.field.level=99"]
    assert run(["--out", str(tmp_path), *args, *command.split()]) == 1
    assert builds == {"build_nets": 0, "build_semigroup": 0}
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "norm.field.level" in err, err
