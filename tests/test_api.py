"""The public surface: reports and kernel stacks are frozen records, no
function takes an object that another of its arguments already carries,
and every public name has a reader."""

import ast
import importlib
import inspect
import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import click
import numpy as np
import pytest

import homspace
from homspace import (DifferenceTable, Field, LevelTable, MetricMeasureSpace,
                      NormSpec, admissible_range, analyze, difference_scales,
                      equivalence_experiment, reconstruct, verify_cubes)
from homspace import kernels, lab, norms, operators
from homspace.dyadic import cube_dump, cubes_from_dump

SOURCE = Path(homspace.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _public_functions():
    for mod in (kernels, operators, norms, lab):
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == mod.__name__):
                yield f"{layer}.{name}", set(inspect.signature(fn).parameters)


def test_no_function_takes_what_its_stack_cubes_or_field_carries():
    """A stack carries its cubes and its space, cubes and fields carry
    their space: no public function of the kernels, operators, norms or lab
    layer takes cubes next to a stack, or a space next to a stack, cubes
    or a field `f`."""
    seen, bad = {}, []
    for name, params in _public_functions():
        seen[name] = params
        if {"cubes", "stack"} <= params or (
                "space" in params and params & {"stack", "cubes", "f"}):
            bad.append(name)
    assert bad == []
    # the walk reaches the functions it guards
    assert {"kernels.validate_ati", "operators.reconstruct",
            "norms.besov_norm", "lab.embedding_suite",
            "lab.lemma_suite"} <= seen.keys()


def _public_definitions(tree):
    """(qualified name, name, node, is_method) of each public module-level
    function and each public method or property of a public class."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
            yield top.name, top.name, top, False
        elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
            for node in top.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    yield f"{top.name}.{node.name}", node.name, node, True


def _reads(tree):
    """(name, node, is_attribute) of every name and attribute the module
    reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            yield node.attr, node, True


def test_every_public_name_is_read():
    """Each public module-level function and each public method or property
    of the package has a reader outside its own definition in the package
    source (a method or property as an attribute), is a CLI command, or is
    named in a code span of README.md: none is kept for tests alone."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SOURCE.glob("*.py"))}
    reads = [r for tree in trees.values() for r in _reads(tree)]
    # the words of README's fenced blocks and inline code spans
    named = set(re.findall(r"\w+", " ".join(re.findall(
        r"```.*?```|`[^`]+`", README.read_text(), flags=re.S))))
    seen, unread = set(), []
    for module, tree in trees.items():
        mod = importlib.import_module(f"homspace.{module}")
        for qual, name, node, method in _public_definitions(tree):
            if isinstance(getattr(mod, qual, None), click.Command):
                continue
            seen.add(f"{module}.{qual}")
            own = set(ast.walk(node))
            if name in named or any(
                    got == name and read not in own
                    and (attribute or not method)
                    for got, read, attribute in reads):
                continue
            unread.append(f"{module}.{qual}")
    assert unread == []
    # the walk reaches module functions, methods and properties
    assert {"space.save_space", "norms.test_function_norm",
            "cli.pipeline_from_config", "operators.LevelTable.many",
            "dyadic.CubeVerification.passed"} <= seen


@pytest.fixture(scope="module")
def records(pipe65, pipe65_inhom, geom65, validated65, ensemble65):
    st = pipe65.stack
    spec = NormSpec(s=0.5, p=2.0, q=2.0)
    noise = np.random.default_rng(0).standard_normal(st.space.n)
    f = Field(st.space, st.apply(st.k_min + 3, noise))
    grid = analyze(st, ensemble65[0])
    # an inhomogeneous cell level also carries its cell averages
    cell = analyze(pipe65_inhom.stack, ensemble65[0]).levels[0]
    cubes = pipe65.cubes
    ver = verify_cubes(cubes)
    reloaded = cubes_from_dump(cube_dump(cubes), cubes.space)
    return {
        "AtiValidationReport": validated65,
        "ReconstructionReport": reconstruct(st, f, tol=1e-6)[1],
        "GeometryReport": geom65,
        "EquivalenceReport": equivalence_experiment(
            st, spec, "B_vs_L", ensemble65, omega=geom65.omega,
            eta=validated65.eta_fit, geometry=geom65),
        "AdmissibilityReport": admissible_range(spec, geom65.omega,
                                                validated65.eta_fit),
        "CubeVerification": ver,
        "LevelSandwich": next(iter(ver.sandwich.values())),
        "LevelCoefficients": cell,
        "CoefficientGrid": grid,
        "KernelStack": st,
        # a level below the coarsest, which has parents, built and reloaded
        "CubeLevel": cubes.levels[cubes.k_min + 1],
        "CubeLevel from a dump": reloaded.levels[cubes.k_min + 1],
    }


def test_records_are_frozen(records):
    """No field can be rebound, and every array field is read-only."""
    arrays = set()
    for name, obj in records.items():
        assert type(obj).__name__ == name.split()[0]
        for attr in [f.name for f in fields(obj)] + ["extra"]:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, attr, getattr(obj, attr, None))
            value = getattr(obj, attr, None)
            if isinstance(value, np.ndarray):
                arrays.add(f"{name}.{attr}")
                assert not value.flags.writeable, f"{name}.{attr}"
    assert {"LevelCoefficients.value", "LevelCoefficients.average",
            "LevelSandwich.r_in"} <= arrays
    assert {f"{level}.{attr}"
            for level in ("CubeLevel", "CubeLevel from a dump")
            for attr in ("by_cube", "starts", "assign", "centers", "parent")
            } <= arrays


def test_space_attributes_cannot_be_rebound(grid65):
    """A space is frozen like the records: every attribute, a cached table
    and a property too, and a new name, refuses assignment and deletion."""
    table = grid65.v_table()
    names = list(vars(grid65)) + ["n", "diam", "extra"]
    assert {"a0", "dist", "_v_table"} <= set(names)
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(grid65, name, 7.0)
        with pytest.raises(FrozenInstanceError):
            delattr(grid65, name)
    assert grid65.a0 == 1.0 and grid65.v_table() is table


def test_space_points_are_a_read_only_copy(grid65):
    with pytest.raises(ValueError, match="read-only"):
        grid65.points[0, 0] = 5.0
    pts = np.array(grid65.points)
    sp = MetricMeasureSpace(grid65.dist, grid65.weight, points=pts)
    pts[0, 0] = 5.0  # the space holds its own copy
    assert sp.points[0, 0] == grid65.points[0, 0]


def test_level_and_difference_tables_cannot_be_rebound(pipe65, ensemble65):
    """Level and difference tables are frozen like a space: no attribute,
    and no new name, can be assigned or deleted, their arrays are
    read-only, and a difference table still fills its rows on first use."""
    st, f = pipe65.stack, ensemble65[0]
    diff = DifferenceTable(f, difference_scales(st.space, 1.0, st.delta))
    for table in (LevelTable(f, st), *LevelTable.many(ensemble65[:2], st),
                  diff):
        for name in [*vars(table), "extra"]:
            with pytest.raises(FrozenInstanceError):
                setattr(table, name, np.zeros(3))
            with pytest.raises(FrozenInstanceError):
                delattr(table, name)
    rows = diff.rows(2.0)
    assert diff.rows(2.0) is rows and not rows.flags.writeable
    assert {"field", "scales"} <= set(vars(diff))
    assert diff.field is f
