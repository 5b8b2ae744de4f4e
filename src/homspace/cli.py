"""Command-line surface: build artifacts, run suites, emit reports.

One JSON config file drives every command; ``--set a.b.c=value`` overrides
single leaves, and a mapping value is merged into the section it names.
`load_config` checks every leaf before any space is built: its type
against `DEFAULT_CONFIG`, then every range rule in `config_specs`, each
stage's frozen spec and the two rules that tie the level range and
`lab.pairing` to the kernel flavor.  A leaf that its section's choice does
not read (a kernel sigma for the homogeneous flavor) has a null default and
must stay null; a null `lab.pairing` is the flavor's Besov pairing.  Each
command builds only the stages it reads from one lazy `Pipeline`.  Reports
(``.txt`` and ``.csv``) are written atomically without timestamps (the wall
clock goes to the ``run_meta.json`` sidecar), so re-running with the same
config and seeds reproduces byte-identical outputs.

Exit codes: 0 success, 1 usage/format/parameter errors, 2 violated exact
invariants or band caps.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import os
import time
from dataclasses import dataclass, fields

import click
import numpy as np

from . import dyadic as dy
from . import lab as labmod
from .difference import TRUNCATED_VARIANTS, VARIANTS, lipschitz_norm, truncated_norm
from .dyadic import DyadicSpec
from .errors import (HomspaceError, ParameterError, choice_arg, integer_arg,
                     real_arg)
from .kernels import KernelSpec, validate_ati
from .norms import (NormSpec, besov_norm, lebesgue_norm,
                    triebel_lizorkin_norm)
from .operators import Field, FrameSpec, analyze, hl_maximal, reconstruct
from .pipeline import Pipeline
from .report import SuiteReport, fmt
from .space import (SpaceSpec, _as_float_array, default_radius_grid,
                    generate_space, geometry_report, load_space,
                    space_to_document)

FIELD_KINDS = ("constant", "holder", "indicator", "bandlimited", "file")


@dataclass(frozen=True)
class FieldSpec:
    """The field `norm compute`, `frame reconstruct` and `maximal` read: a
    constant `value`, d(center, .)^theta, the indicator of the ball of
    `radius` about `center`, Q_level of white noise from `seed` (a null
    level is the stack's middle one) or the values in a JSON `file`."""

    kind: str = "holder"
    theta: float = 0.7
    center: int = 0
    value: float = 1.0
    radius: float = 0.25
    level: int | None = None
    seed: int = 0
    file: str | None = None

    def __post_init__(self):
        choice_arg("field kind", self.kind, FIELD_KINDS)
        for name in ("center", "seed"):
            object.__setattr__(self, name, integer_arg(
                f"norm.field.{name}", getattr(self, name), low=0))
        if self.level is not None:
            object.__setattr__(self, "level", integer_arg(
                "norm.field.level", self.level))
        real_arg("norm.field.theta", self.theta, lambda v: 0 <= v < math.inf,
                 "finite and >= 0")
        real_arg("norm.field.value", self.value, math.isfinite,
                 "a finite number")
        real_arg("norm.field.radius", self.radius,
                 lambda v: 0 < v < math.inf, "finite and > 0")
        if self.kind == "file" and self.file is None:
            raise ParameterError("field kind 'file' needs norm.field.file")
        if self.file is not None and not isinstance(self.file, str):
            raise ParameterError(f"norm.field.file must be a string, got "
                                 f"{self.file!r}")

    def make(self, pipe):
        """The field on the pipeline's space; a bandlimited one reads its
        stack, once the level is known to lie in the stack's range."""
        space = pipe.space
        if not self.center < space.n:
            raise ParameterError(f"norm.field.center must lie in "
                                 f"[0, {space.n}), got {self.center}")
        if self.kind == "constant":
            return Field(space, np.full(space.n, float(self.value)))
        if self.kind == "holder":
            return Field(space, space.dist[self.center] ** float(self.theta))
        if self.kind == "indicator":
            return Field(space, (space.dist[self.center] < float(self.radius))
                         .astype(float))
        if self.kind == "bandlimited":
            levels = pipe.levels
            j = levels[len(levels) // 2] if self.level is None else self.level
            if j not in levels:
                raise ParameterError(f"norm.field.level {j} outside stack "
                                     f"range [{levels[0]}, {levels[-1]}]")
            noise = np.random.default_rng(self.seed).standard_normal(space.n)
            return Field(space, pipe.stack.apply(j, noise))
        with open(self.file) as fh:
            return Field(space, _as_float_array(json.load(fh),
                                                "norm.field.file values"))


def _section(spec):
    """A spec's fields with their defaults: the config section of its
    stage."""
    return {f.name: f.default for f in fields(spec)}


# the space, dyadic, kernel and field sections are their specs' fields
DEFAULT_CONFIG = {
    "space": _section(SpaceSpec),
    "dyadic": _section(DyadicSpec),
    "kernel": _section(KernelSpec),
    "norm": {
        "s": 0.5, "p": 2.0, "q": 2.0, "u": 1.0, "beta": 0.75, "gamma": 0.75,
        "c_tilde": 1.0, "variant": "besov", "field": _section(FieldSpec),
    },
    "frame": {"tol": 1e-6, "maxiter": 500, "dump_coefficients": False},
    "lab": {
        "ensemble": {"counts": dict(labmod.STANDARD_COUNTS),
                     "seed": 0, "mean_zero": True},
        "pairing": None,
        "caps": dict(labmod.DEFAULT_CAPS),
        "radius_grid": None,
    },
    "output": {"dir": "out"},
}


# the type of each leaf whose default is null (the other leaves take the
# type of their default); such a leaf may also stay null
NULL_DEFAULT_TYPES = {
    "space.kind": str, "space.size": int, "space.level": int,
    "space.exponent": float, "space.weights": list, "space.file": str,
    "space.label": str, "kernel.sigma": float, "kernel.n_low": int,
    "dyadic.k_min": int, "dyadic.k_max": int, "norm.field.level": int,
    "norm.field.file": str, "lab.pairing": str, "lab.radius_grid": list,
}
# leaves that also take "inf" or JSON Infinity
INF_LEAVES = ("norm.p", "norm.q")
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
    overrides; every leaf's type and range is checked (`config_specs`)
    before any work is done."""
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
    config_specs(cfg)
    return cfg


def write_atomic(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def emit(cfg, name, suite_or_text):
    outdir = cfg["output"]["dir"]
    if isinstance(suite_or_text, SuiteReport):
        write_atomic(os.path.join(outdir, f"{name}.txt"),
                     suite_or_text.to_text())
        write_atomic(os.path.join(outdir, f"{name}.csv"),
                     suite_or_text.to_csv())
    else:
        write_atomic(os.path.join(outdir, name), suite_or_text)
    write_atomic(os.path.join(outdir, "effective_config.json"),
                 json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    # the clock at a fixed width, so that the sidecar's size does not vary
    write_atomic(os.path.join(outdir, "run_meta.json"),
                 '{"wall_clock": %.6f}\n' % time.time())


def _finish(cfg, name, suite):
    """Write and print a command's report; exit 2 when a row failed."""
    emit(cfg, name, suite)
    click.echo(suite.to_text(), nl=False)
    return 0 if suite.passed else 2


NORM_VARIANTS = ("besov", "triebel", "lebesgue", *VARIANTS,
                 *TRUNCATED_VARIANTS)


def config_specs(cfg):
    """Every stage's spec, by name, from a merged config: each range rule
    runs here, in its spec's constructor or between two specs, and so before
    any work.  A null pairing is the kernel flavor's Besov pairing."""
    nc, lc = cfg["norm"], cfg["lab"]
    choice_arg("norm variant", nc["variant"], NORM_VARIANTS)
    specs = dict(space=SpaceSpec(**cfg["space"]),
                 dyadic=DyadicSpec(**cfg["dyadic"]),
                 kernel=KernelSpec(**cfg["kernel"]),
                 field=FieldSpec(**nc["field"]),
                 frame=FrameSpec(cfg["frame"]["tol"], cfg["frame"]["maxiter"]))
    dyadic, kernel = specs["dyadic"], specs["kernel"]
    kernel.check_levels(dyadic.k_min, dyadic.k_max)
    pairing = lc["pairing"]
    specs["lab"] = labmod.LabSpec(
        pairing=(labmod.FLAVOR_PAIRING[kernel.flavor] if pairing is None
                 else pairing),
        caps=lc["caps"], radius_grid=lc["radius_grid"],
        ensemble=labmod.EnsembleSpec(**lc["ensemble"]))
    specs["lab"].check_flavor(kernel.flavor)
    specs["norm"] = NormSpec(
        s=nc["s"], p=_inf(nc["p"]), q=_inf(nc["q"]), u=nc["u"],
        beta=nc["beta"], gamma=nc["gamma"], delta=dyadic.delta,
        c_tilde=nc["c_tilde"], flavor=kernel.flavor)
    return specs


def space_from_config(cfg):
    sc = cfg["space"]
    if sc["file"] is not None:
        return load_space(sc["file"], seed=sc["seed"])
    return generate_space(**{k: v for k, v in sc.items() if k != "file"})


def _pipeline(cfg, space=None):
    """The config's specs, and the lazy pipeline of their stages on `space`
    (null: the config's space)."""
    specs = config_specs(cfg)
    return specs, Pipeline(space or space_from_config(cfg), specs["dyadic"],
                           specs["kernel"])


def pipeline_from_config(cfg, space=None):
    """The config's pipeline with every stage built: what `ati build`
    builds."""
    pipe = _pipeline(cfg, space)[1]
    pipe.stack
    return pipe


def _inf(v):
    """The config's "inf" as a float; JSON Infinity already is one."""
    return float("inf") if v == "inf" else v


def pass_cfg(command):
    """Run `command` on the loaded config, its specs and the lazy pipeline
    on its space.  A command's --variant option is one more --set, so it is
    checked with every other leaf."""
    @click.pass_obj
    @functools.wraps(command)
    def run(obj, variant=None, **options):
        path, sets = obj
        if variant is not None:
            sets += (f"norm.variant={json.dumps(variant)}",)
        cfg = load_config(path, sets)
        specs, pipe = _pipeline(cfg)
        return command(cfg, specs, pipe, **options)
    return run


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="JSON config file")
@click.option("--set", "sets", multiple=True,
              help="override a config leaf, dotted.path=value")
@click.option("--out", default=None, help="override output.dir")
@click.pass_context
def cli(ctx, config_path, sets, out):
    if out:
        sets += (f"output.dir={json.dumps(out)}",)
    ctx.obj = (config_path, sets)


@cli.group()
def space():
    """Build or analyze spaces."""


@space.command("build")
@pass_cfg
def space_build(cfg, specs, pipe):
    sp = pipe.space
    doc = json.dumps(space_to_document(sp), indent=1) + "\n"
    emit(cfg, "space.json", doc)
    click.echo(f"space n={sp.n} a0={fmt(sp.a0)} ({sp.a0_method}) "
               f"diam={fmt(sp.diam)}")
    return 0


@space.command("report")
@pass_cfg
def space_report(cfg, specs, pipe):
    rep = _geometry(specs, pipe, fit_reverse=True)
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
def cubes_build(cfg, specs, pipe):
    cubes = pipe.cubes
    ver = dy.verify_cubes(cubes)
    emit(cfg, "cubes.json", json.dumps(dy.cube_dump(cubes)) + "\n")
    return _finish(cfg, "cubes_verify", _verification_suite(ver))


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
def cubes_verify(cfg, specs, pipe, dump_path):
    with open(dump_path) as fh:
        doc = json.load(fh)
    ver = dy.verify_cubes(dy.cubes_from_dump(doc, pipe.space))
    return _finish(cfg, "cubes_verify", _verification_suite(ver))


@cli.group()
def ati():
    """Kernel stacks."""


@ati.command("build")
@pass_cfg
def ati_build(cfg, specs, pipe):
    st = pipe.stack
    suite = SuiteReport("kernel stack")
    suite.add("levels", "value", passed=None, value=len(list(st.levels())),
              k_min=st.k_min, k_max=st.k_max, flavor=st.flavor)
    return _finish(cfg, "ati_build", suite)


@ati.command("validate")
@pass_cfg
def ati_validate(cfg, specs, pipe):
    rep = validate_ati(pipe.stack)
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
def norm_cmd(cfg, specs, pipe, action):
    spec = specs["norm"]
    f = specs["field"].make(pipe)
    variant = cfg["norm"]["variant"]
    if variant == "besov":
        val = besov_norm(f, spec, pipe.stack)
    elif variant == "triebel":
        val = triebel_lizorkin_norm(f, spec, pipe.stack)
    elif variant == "lebesgue":
        val = lebesgue_norm(f, spec.p)
    elif variant in VARIANTS:
        val = lipschitz_norm(f, spec, variant)
    else:
        val = truncated_norm(f, spec, variant)
    click.echo(fmt(val))
    suite = SuiteReport("norm compute")
    suite.add(f"{variant}", "value", passed=None, value=val)
    emit(cfg, "norm", suite)
    return 0


@cli.command("frame")
@click.argument("action", type=click.Choice(["reconstruct"]))
@pass_cfg
def frame_cmd(cfg, specs, pipe, action):
    f = specs["field"].make(pipe)
    rf, rep = reconstruct(pipe.stack, f, tol=specs["frame"].tol,
                          maxiter=specs["frame"].maxiter)
    suite = SuiteReport("frame reconstruction")
    suite.add("relative residual", "band", passed=rep.converged,
              value=rep.relative_residual, iterations=rep.iterations,
              frame_lower=rep.frame_lower, frame_upper=rep.frame_upper)
    if cfg["frame"]["dump_coefficients"]:
        emit(cfg, "coefficients.csv", analyze(pipe.stack, f).csv())
    return _finish(cfg, "frame", suite)


@cli.group()
def lab():
    """Experiment suites."""


def _geometry(specs, pipe, fit_reverse=False):
    grid = specs["lab"].radius_grid
    return geometry_report(pipe.space, grid or default_radius_grid(pipe.space),
                           fit_reverse=fit_reverse)


def _lab_pipe(specs, pipe):
    """The geometry and the ensemble a lab suite reads; the ensemble reads
    the stack, which is built before the geometry."""
    ensemble = labmod.generate_ensemble(pipe.stack, specs["lab"].ensemble)
    return _geometry(specs, pipe), ensemble


@lab.command("equivalence")
@pass_cfg
def lab_equivalence(cfg, specs, pipe):
    lab = specs["lab"]
    geom, ensemble = _lab_pipe(specs, pipe)
    rep = validate_ati(pipe.stack)
    eq = labmod.equivalence_experiment(
        pipe.stack, specs["norm"], lab.pairing, ensemble, omega=geom.omega,
        eta=rep.eta_fit, geometry=geom, caps=lab.caps)
    return _finish(cfg, "equivalence", eq.to_suite())


@lab.command("embeddings")
@pass_cfg
def lab_embeddings(cfg, specs, pipe):
    geom, ensemble = _lab_pipe(specs, pipe)
    suite = labmod.embedding_suite(pipe.stack, ensemble, specs["norm"],
                                   geom.omega, geometry=geom,
                                   caps=specs["lab"].caps)
    return _finish(cfg, "embeddings", suite)


@lab.command("lemmas")
@pass_cfg
def lab_lemmas(cfg, specs, pipe):
    lab = specs["lab"]
    suite = labmod.lemma_suite(pipe.cubes, pipe.levels,
                               omega=_geometry(specs, pipe).omega,
                               caps=lab.caps, seed=lab.ensemble.seed)
    return _finish(cfg, "lemmas", suite)


@cli.command("maximal")
@pass_cfg
def maximal_cmd(cfg, specs, pipe):
    """Evaluate the maximal operator of the configured field (diagnostic)."""
    mf = hl_maximal(specs["field"].make(pipe))
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
