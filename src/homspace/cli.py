"""Command-line surface: build artifacts, run suites, emit reports.

One JSON config file drives every command; ``--set a.b.c=value`` overrides
single leaves, and a mapping value is merged into the section it names.
Reports are written atomically and contain no timestamps
(wall-clock metadata goes to the ``run_meta.json`` sidecar), so re-running
with the same config and seeds reproduces byte-identical outputs.

Exit codes: 0 success, 1 usage/format/parameter errors, 2 violated exact
invariants or band caps.
"""

from __future__ import annotations

import copy
import json
import math
import os
import time

import click
import numpy as np

from . import dyadic as dy
from . import lab as labmod
from .difference import TRUNCATED_VARIANTS, VARIANTS, lipschitz_norm, truncated_norm
from .errors import HomspaceError, ParameterError
from .kernels import validate_ati
from .norms import (NormSpec, besov_norm, lebesgue_norm,
                    triebel_lizorkin_norm)
from .operators import Field, analyze, hl_maximal, reconstruct
from .pipeline import build_dyadic, build_pipeline
from .report import SuiteReport, fmt
from .space import (_as_float_array, default_radius_grid, generate_space,
                    geometry_report, load_space, space_to_document)

DEFAULT_CONFIG = {
    "space": {
        "kind": "grid1d", "size": 65, "level": None, "exponent": None,
        "measure": "uniform", "weights": None, "file": None, "label": None,
        "seed": 0,
    },
    "dyadic": {
        "delta": 0.5, "k_min": None, "k_max": None, "j0": 2,
        "sampler": "center", "seed": 0, "sigma": None, "deep_margin": None,
        "strict": False,
    },
    "kernel": {
        "a": 1.0, "sigma": 1.0, "flavor": "homogeneous", "n_low": 1,
        "coarse": "mean", "fine_factor": 16.0,
    },
    "norm": {
        "s": 0.5, "p": 2.0, "q": 2.0, "u": 1.0, "beta": 0.75, "gamma": 0.75,
        "c_tilde": 1.0, "variant": "besov",
        "field": {"kind": "holder", "theta": 0.7, "center": 0, "value": 1.0,
                  "radius": 0.25, "level": None, "seed": 0, "file": None},
    },
    "frame": {"tol": 1e-6, "maxiter": 500, "dump_coefficients": False},
    "lab": {
        "ensemble": {"kinds": list(labmod.STANDARD_KINDS),
                     "counts": dict(labmod.STANDARD_COUNTS),
                     "seed": 0, "mean_zero": True},
        "pairing": "B_vs_L",
        "caps": dict(labmod.DEFAULT_CAPS),
        "radius_grid": None,
    },
    "output": {"dir": "out", "formats": ["text", "csv"]},
}


# the type of each leaf whose default is null (the other leaves take the
# type of their default); such a leaf may also stay null
NULL_DEFAULT_TYPES = {
    "space.level": int, "space.exponent": float, "space.weights": list,
    "space.file": str, "space.label": str, "dyadic.k_min": int,
    "dyadic.k_max": int, "dyadic.sigma": float, "dyadic.deep_margin": float,
    "norm.field.level": int, "norm.field.file": str, "lab.radius_grid": list,
}
# leaves that also take "inf" or JSON Infinity
INF_LEAVES = ("norm.p", "norm.q")
OUTPUT_FORMATS = ("text", "csv")
TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number",
              str: "a string", list: "a list"}


def _check_config(node, default, path=""):
    """Every key of `node` is one of `default`'s, every section a mapping and
    every leaf of its default's type (a float leaf takes any finite number)."""
    if isinstance(default, dict):
        if not isinstance(node, dict):
            raise ParameterError(f"config section {path or 'root'} must be "
                                 f"a mapping, got {node!r}")
        for key, val in node.items():
            if key not in default:
                raise ParameterError(f"unknown config key {path}{key}")
            _check_config(val, default[key], f"{path}{key}.")
        return
    leaf, kind = path[:-1], type(default)
    if default is None:
        if node is None:
            return
        kind = NULL_DEFAULT_TYPES[leaf]
    ok = (isinstance(node, (int, float) if kind is float else kind)
          and isinstance(node, bool) == (kind is bool)
          and (kind is not float or math.isfinite(node)))
    if not ok and not (leaf in INF_LEAVES and node in ("inf", math.inf)):
        raise ParameterError(f"{leaf} must be {TYPE_NAMES[kind]}, "
                             f"got {node!r}")


def _merge(base, override):
    """`override` laid over a copy of `base`, mapping by mapping."""
    if not (isinstance(base, dict) and isinstance(override, dict)):
        return copy.deepcopy(override)
    out = copy.deepcopy(base)
    for key, val in override.items():
        out[key] = _merge(base.get(key), val)
    return out


def _parse_leaf(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path, sets):
    """The config file laid over `DEFAULT_CONFIG`, then the ``--set``
    overrides; every leaf is checked before any work is done."""
    cfg = {}
    if path:
        with open(path) as fh:
            cfg = json.load(fh)
    cfg = _merge(DEFAULT_CONFIG, cfg)
    for item in sets or ():
        if "=" not in item:
            raise ParameterError(f"--set needs key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        *parents, name = dotted.split(".")
        node = cfg
        for part in parents:
            node = node.get(part) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ParameterError(f"unknown config key {dotted}")
        node[name] = _merge(node.get(name), _parse_leaf(raw))
    _check_config(cfg, DEFAULT_CONFIG)
    formats = cfg["output"]["formats"]
    if not all(f in OUTPUT_FORMATS for f in formats):
        raise ParameterError(f"output.formats must list only "
                             f"{', '.join(OUTPUT_FORMATS)}; got {formats!r}")
    ensemble_spec_from_config(cfg)
    labmod.merge_caps(cfg["lab"]["caps"])
    return cfg


def write_atomic(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def emit(cfg, name, suite_or_text):
    outdir = cfg["output"]["dir"]
    formats = cfg["output"]["formats"]
    if isinstance(suite_or_text, SuiteReport):
        if "text" in formats:
            write_atomic(os.path.join(outdir, f"{name}.txt"),
                         suite_or_text.to_text())
        if "csv" in formats:
            write_atomic(os.path.join(outdir, f"{name}.csv"),
                         suite_or_text.to_csv())
    else:
        write_atomic(os.path.join(outdir, name), suite_or_text)
    write_atomic(os.path.join(outdir, "effective_config.json"),
                 json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    write_atomic(os.path.join(outdir, "run_meta.json"),
                 json.dumps({"wall_clock": time.time()}) + "\n")


def _finish(cfg, name, suite):
    """Write and print a command's report; exit 2 when a row failed."""
    emit(cfg, name, suite)
    click.echo(suite.to_text(), nl=False)
    return 0 if suite.passed else 2


def space_from_config(cfg):
    sc = cfg["space"]
    if sc["file"]:
        unread = [f"space.{k}" for k in ("weights", "level", "exponent",
                                         "label") if sc[k] is not None]
        if unread:
            raise ParameterError(f"space.file is set, so {', '.join(unread)}"
                                 f" would be ignored")
        return load_space(sc["file"], seed=sc["seed"])
    return generate_space(sc["kind"], size=sc["size"], level=sc["level"],
                          exponent=sc["exponent"], measure=sc["measure"],
                          weights=sc["weights"], label=sc["label"],
                          seed=sc["seed"])


def _dyadic_args(cfg):
    """The keyword arguments of `build_dyadic` the config sets."""
    dc, kc = cfg["dyadic"], cfg["kernel"]
    return dict(delta=dc["delta"], flavor=kc["flavor"], j0=dc["j0"],
                sampler=dc["sampler"], sampler_seed=dc["seed"],
                k_min=dc["k_min"], k_max=dc["k_max"],
                fine_factor=kc["fine_factor"], net_sigma=dc["sigma"],
                deep_margin=dc["deep_margin"], strict=dc["strict"])


def dyadic_from_config(cfg, space=None):
    """The refined cubes and the level range, without a kernel stack."""
    return build_dyadic(space or space_from_config(cfg), **_dyadic_args(cfg))


def pipeline_from_config(cfg, space=None):
    kc = cfg["kernel"]
    return build_pipeline(space or space_from_config(cfg), a=kc["a"],
                          sigma=kc["sigma"], n_low=kc["n_low"],
                          coarse=kc["coarse"], **_dyadic_args(cfg))


def field_from_config(space, stack, fc):
    if not 0 <= fc["center"] < space.n:
        raise ParameterError(f"norm.field.center must lie in [0, {space.n}),"
                             f" got {fc['center']}")
    if fc["seed"] < 0:
        raise ParameterError(f"norm.field.seed must be >= 0, got {fc['seed']}")
    kind = fc["kind"]
    if kind == "constant":
        return Field(space, np.full(space.n, float(fc["value"])))
    if kind == "holder":
        return Field(space, space.dist[fc["center"]] ** float(fc["theta"]))
    if kind == "indicator":
        return Field(space, (space.dist[fc["center"]] < float(fc["radius"]))
                     .astype(float))
    if kind == "bandlimited":
        rng = np.random.default_rng(fc["seed"])
        levels = list(stack.levels())
        j = fc["level"]
        j = levels[len(levels) // 2] if j is None else j
        return Field(space, stack.apply(j, rng.standard_normal(space.n)))
    if kind == "file":
        if not fc["file"]:
            raise ParameterError("field kind 'file' needs norm.field.file")
        with open(fc["file"]) as fh:
            return Field(space, _as_float_array(json.load(fh),
                                                "norm.field.file values"))
    raise ParameterError(f"unknown field kind {kind!r}")


def norm_spec_from_config(cfg):
    nc = cfg["norm"]
    return NormSpec(s=nc["s"], p=_inf(nc["p"]), q=_inf(nc["q"]), u=nc["u"],
                    beta=nc["beta"], gamma=nc["gamma"],
                    delta=cfg["dyadic"]["delta"], c_tilde=nc["c_tilde"],
                    flavor=cfg["kernel"]["flavor"])


def ensemble_spec_from_config(cfg):
    ec = cfg["lab"]["ensemble"]
    return labmod.EnsembleSpec(kinds=ec["kinds"], counts=ec["counts"],
                               seed=ec["seed"], mean_zero=ec["mean_zero"])


def _inf(v):
    """The config's "inf" as a float; JSON Infinity already is one."""
    return float("inf") if v == "inf" else v


pass_cfg = click.make_pass_decorator(dict)


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="JSON config file")
@click.option("--set", "sets", multiple=True,
              help="override a config leaf, dotted.path=value")
@click.option("--out", default=None, help="override output.dir")
@click.pass_context
def cli(ctx, config_path, sets, out):
    cfg = load_config(config_path, sets)
    if out:
        cfg["output"]["dir"] = out
    ctx.obj = cfg


@cli.group()
def space():
    """Build or analyze spaces."""


@space.command("build")
@pass_cfg
def space_build(cfg):
    sp = space_from_config(cfg)
    doc = json.dumps(space_to_document(sp), indent=1) + "\n"
    emit(cfg, "space.json", doc)
    click.echo(f"space n={sp.n} a0={fmt(sp.a0)} ({sp.a0_method}) "
               f"diam={fmt(sp.diam)}")
    return 0


@space.command("report")
@pass_cfg
def space_report(cfg):
    sp = space_from_config(cfg)
    grid = cfg["lab"]["radius_grid"] or default_radius_grid(sp)
    rep = geometry_report(sp, grid, fit_reverse=True)
    suite = SuiteReport("geometry report")
    suite.add("doubling", "value", passed=None, value=rep.c_mu,
              omega=rep.omega, diam=rep.diam, v_ratio=rep.v_ratio)
    suite.add("lower bound fits", "value", passed=None, value=rep.q_global,
              q_local=rep.q_local, c_global=rep.c_global,
              c_local=rep.c_local, kappa=rep.kappa)
    ok = rep.q_global is None or rep.q_global <= rep.omega + 0.25
    suite.add("q_global <= omega + tol", "exact", passed=ok,
              value=rep.q_global)
    return _finish(cfg, "geometry", suite)


@cli.group()
def cubes():
    """Dyadic cube systems."""


@cubes.command("build")
@pass_cfg
def cubes_build(cfg):
    cubes, _ = dyadic_from_config(cfg)
    ver = dy.verify_cubes(cubes)
    emit(cfg, "cubes.json", json.dumps(dy.cube_dump(cubes)) + "\n")
    suite = _verification_suite(ver)
    return _finish(cfg, "cubes_verify", suite)


def _verification_suite(ver):
    suite = SuiteReport("cube verification")
    suite.add("partition", "exact", passed=ver.partition_pass)
    suite.add("nesting", "exact", passed=ver.nesting_pass)
    suite.add("center membership", "exact", passed=ver.center_pass)
    for k in sorted(ver.sandwich):
        s = ver.sandwich[k]
        interior = s.interior
        suite.add(f"sandwich level {k}", "band", passed=None,
                  value=float(np.min(s.r_in[interior])) if interior.any() else None,
                  r_out_max=float(np.max(s.r_out[interior])) if interior.any() else None,
                  cubes=len(s.r_in), interior=int(interior.sum()),
                  nominal_inner=int(s.nominal_inner_pass.sum()),
                  nominal_outer=int(s.nominal_outer_pass.sum()))
    if ver.subcube_pass is not None:
        suite.add("subcube tiling", "exact", passed=ver.subcube_pass,
                  max_subcubes=ver.max_subcubes, const=ver.subcube_const)
    for msg in ver.failures:
        suite.add(f"failure: {msg}", "exact", passed=False)
    return suite


@cubes.command("verify")
@click.option("--dump", "dump_path", type=click.Path(exists=True),
              required=True)
@pass_cfg
def cubes_verify(cfg, dump_path):
    sp = space_from_config(cfg)
    with open(dump_path) as fh:
        doc = json.load(fh)
    ver = dy.verify_cubes(dy.cubes_from_dump(doc, sp))
    suite = _verification_suite(ver)
    return _finish(cfg, "cubes_verify", suite)


@cli.group()
def ati():
    """Kernel stacks."""


@ati.command("build")
@pass_cfg
def ati_build(cfg):
    pipe = pipeline_from_config(cfg)
    st = pipe.stack
    suite = SuiteReport("kernel stack")
    suite.add("levels", "value", passed=None, value=len(list(st.levels())),
              k_min=st.k_min, k_max=st.k_max, flavor=st.flavor)
    return _finish(cfg, "ati_build", suite)


@ati.command("validate")
@pass_cfg
def ati_validate(cfg):
    pipe = pipeline_from_config(cfg)
    rep = validate_ati(pipe.stack, pipe.cubes)
    suite = SuiteReport("kernel validation")
    suite.add("cancellation residual", "exact",
              passed=rep.cancel_resid <= 1e-10, value=rep.cancel_resid)
    if rep.unit_resid is not None:
        suite.add("unit integral residual", "exact",
                  passed=rep.unit_resid <= 1e-12, value=rep.unit_resid)
    suite.add("identity residual", "band",
              passed=rep.identity_resid <= 1e-3, value=rep.identity_resid)
    suite.add("size constant (with h)", "value",
              passed=np.isfinite(rep.size_const), value=rep.size_const,
              no_h=rep.size_const_no_h, nu=rep.nu, sampled=rep.sampled)
    suite.add("regularity", "value", passed=None, value=rep.reg_const,
              eta=rep.eta_fit, second_diff=rep.second_diff_const)
    for g, c in sorted(rep.rgamma_const.items()):
        suite.add(f"R_gamma envelope Gamma={g}", "value",
                  passed=np.isfinite(c), value=c)
    return _finish(cfg, "ati_validate", suite)


@cli.command("norm")
@click.argument("action", type=click.Choice(["compute"]))
@click.option("--variant", default=None,
              help="shorthand for --set norm.variant=...")
@pass_cfg
def norm_cmd(cfg, action, variant):
    if variant is not None:
        cfg["norm"]["variant"] = variant
    pipe = pipeline_from_config(cfg)
    spec = norm_spec_from_config(cfg)
    f = field_from_config(pipe.space, pipe.stack, cfg["norm"]["field"])
    variant = cfg["norm"]["variant"]
    if variant == "besov":
        val = besov_norm(f, spec, pipe.stack, pipe.cubes)
    elif variant == "triebel":
        val = triebel_lizorkin_norm(f, spec, pipe.stack, pipe.cubes)
    elif variant == "lebesgue":
        val = lebesgue_norm(f, spec.p)
    elif variant in VARIANTS:
        val = lipschitz_norm(f, spec, variant)
    elif variant in TRUNCATED_VARIANTS:
        val = truncated_norm(f, spec, variant)
    else:
        raise ParameterError(f"unknown norm variant {variant!r}")
    click.echo(fmt(val))
    suite = SuiteReport("norm compute")
    suite.add(f"{variant}", "value", passed=None, value=val)
    emit(cfg, "norm", suite)
    return 0


@cli.command("frame")
@click.argument("action", type=click.Choice(["reconstruct"]))
@pass_cfg
def frame_cmd(cfg, action):
    pipe = pipeline_from_config(cfg)
    f = field_from_config(pipe.space, pipe.stack, cfg["norm"]["field"])
    rf, rep = reconstruct(pipe.stack, pipe.cubes, f,
                          tol=cfg["frame"]["tol"],
                          maxiter=cfg["frame"]["maxiter"])
    suite = SuiteReport("frame reconstruction")
    suite.add("relative residual", "band", passed=rep.converged,
              value=rep.relative_residual, iterations=rep.iterations,
              frame_lower=rep.frame_lower, frame_upper=rep.frame_upper)
    if cfg["frame"]["dump_coefficients"]:
        grid = analyze(pipe.stack, pipe.cubes, f)
        lines = ["k,alpha,m,y_index,value,weight"]
        for row in grid.rows():
            lines.append(",".join(fmt(v) for v in row))
        emit(cfg, "coefficients.csv", "\n".join(lines) + "\n")
    return _finish(cfg, "frame", suite)


@cli.group()
def lab():
    """Experiment suites."""


def _geometry(cfg, sp):
    grid = cfg["lab"]["radius_grid"] or default_radius_grid(sp)
    return geometry_report(sp, grid)


def _lab_pipe(cfg):
    pipe = pipeline_from_config(cfg)
    geom = _geometry(cfg, pipe.space)
    ensemble = labmod.generate_ensemble(pipe.space, pipe.stack,
                                        ensemble_spec_from_config(cfg))
    return pipe, geom, ensemble


@lab.command("equivalence")
@pass_cfg
def lab_equivalence(cfg):
    pipe, geom, ensemble = _lab_pipe(cfg)
    spec = norm_spec_from_config(cfg)
    rep = validate_ati(pipe.stack, pipe.cubes)
    eq = labmod.equivalence_experiment(
        pipe.space, pipe.stack, pipe.cubes, spec, cfg["lab"]["pairing"],
        ensemble, omega=geom.omega, eta=rep.eta_fit, geometry=geom,
        caps=cfg["lab"]["caps"])
    suite = eq.to_suite()
    return _finish(cfg, "equivalence", suite)


@lab.command("embeddings")
@pass_cfg
def lab_embeddings(cfg):
    pipe, geom, ensemble = _lab_pipe(cfg)
    spec = norm_spec_from_config(cfg)
    suite = labmod.embedding_suite(pipe.space, pipe.stack, pipe.cubes,
                                   ensemble, spec, geom.omega, geometry=geom,
                                   caps=cfg["lab"]["caps"])
    return _finish(cfg, "embeddings", suite)


@lab.command("lemmas")
@pass_cfg
def lab_lemmas(cfg):
    cubes, levels = dyadic_from_config(cfg)
    suite = labmod.lemma_suite(cubes.space, cubes, levels,
                               omega=_geometry(cfg, cubes.space).omega,
                               caps=cfg["lab"]["caps"],
                               seed=cfg["lab"]["ensemble"]["seed"])
    return _finish(cfg, "lemmas", suite)


@cli.command("maximal")
@pass_cfg
def maximal_cmd(cfg):
    """Evaluate the maximal operator of the configured field (diagnostic)."""
    pipe = pipeline_from_config(cfg)
    f = field_from_config(pipe.space, pipe.stack, cfg["norm"]["field"])
    mf = hl_maximal(pipe.space, f)
    click.echo(fmt(float(mf.values.max())))
    return 0


def main(argv=None):
    try:
        status = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except (HomspaceError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except click.exceptions.Abort:
        return 1
    return 0 if status is None else int(status)


if __name__ == "__main__":
    raise SystemExit(main())
