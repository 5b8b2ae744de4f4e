"""The benchmark's workloads: fixed sequences of real `homspace` commands.

Each step is one CLI invocation.  The workload seed reaches the commands as
`lab.ensemble.seed`, `norm.field.seed` and `space.seed`; nothing else varies
between seeds.  README.md gives the reason for every workload.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Step:
    name: str          # also the step's output directory
    kind: str          # command kind, reported as cmd.<kind>_s
    sets: tuple        # --set overrides on top of the workload's space
    command: tuple     # CLI words after the options


@dataclass(frozen=True)
class Workload:
    name: str
    space: tuple       # --set overrides naming the space
    flavours: tuple    # kernel flavours the set-up builds
    steps: tuple


def _equivalence(pairing, flavour):
    return Step(f"equivalence-{pairing}", "equivalence",
                (f'lab.pairing="{pairing}"', f'kernel.flavor="{flavour}"'),
                ("lab", "equivalence"))


WORKLOADS = {w.name: w for w in (
    Workload(
        "theorem-band",
        space=('space.kind="grid1d"', "space.size=513"),
        flavours=("homogeneous", "inhomogeneous"),
        steps=(_equivalence("B_vs_L", "homogeneous"),
               _equivalence("F_vs_Lt", "homogeneous"),
               _equivalence("inhomog_B_vs_L", "inhomogeneous"),
               _equivalence("inhomog_F_vs_Lt", "inhomogeneous"))),
    Workload(
        "embedding-suite",
        space=('space.kind="sierpinski_level"', "space.level=5"),
        flavours=("homogeneous",),
        steps=(Step("embeddings-p2-q2", "embeddings",
                    ("norm.p=2.0", "norm.q=2.0"), ("lab", "embeddings")),
               Step("embeddings-pinf-qinf", "embeddings",
                    ('norm.p="inf"', 'norm.q="inf"'), ("lab", "embeddings")))),
    Workload(
        "frame-lemmas",
        space=('space.kind="grid2d"', "space.size=33"),
        flavours=("homogeneous",),
        steps=(Step("frame-reconstruct", "frame",
                    ('norm.field.kind="bandlimited"', "frame.tol=1e-10",
                     "frame.dump_coefficients=true"),
                    ("frame", "reconstruct")),
               Step("lemmas", "lemmas", (), ("lab", "lemmas")))),
)}

CMD_KINDS = ("equivalence", "embeddings", "frame", "lemmas")


def sequence_figures(steps):
    """run_s and cmd.<kind>_s of one command sequence's step records."""
    out = {"run_s": sum(r["wall_s"] for r in steps)}
    for kind in CMD_KINDS:
        out[f"cmd.{kind}_s"] = sum(r["wall_s"] for r in steps
                                   if r["kind"] == kind)
    return out


def seed_sets(seed):
    return (f"lab.ensemble.seed={seed}", f"norm.field.seed={seed}",
            f"space.seed={seed}")


def step_argv(workload, step, seed, outdir):
    """argv for `homspace.cli.main`."""
    argv = ["--out", str(outdir)]
    for s in workload.space + seed_sets(seed) + step.sets:
        argv += ["--set", s]
    return argv + list(step.command)


def setup_sets(workload, seed, flavour):
    """--set overrides for the untraced set-up of one flavour."""
    return workload.space + seed_sets(seed) + (f'kernel.flavor="{flavour}"',)
