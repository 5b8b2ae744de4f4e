"""Desk-scale harmonic analysis on finite quasi-metric measure spaces."""

from .difference import (DifferenceScales, DifferenceTable, difference_scales,
                         lipschitz_norm, truncated_norm)
from .dyadic import (CubeSystem, NetSystem, build_cubes, build_nets,
                     refine_subcubes, verify_cubes)
from .errors import (CertificationError, ConvergenceError, ExperimentError,
                     FlavorMismatchError, FormatError, HomspaceError,
                     IllConditionedFrameError, ParameterError, RangeError)
from .kernels import (AtiValidationReport, KernelStack, build_exp_ati,
                      build_exp_iati, build_semigroup, validate_ati)
from .lab import (EnsembleSpec, EquivalenceReport, embedding_suite,
                  equivalence_experiment, generate_ensemble, lemma_suite,
                  standard_ensemble_spec)
from .norms import (NormSpec, admissible_range, besov_norm, lebesgue_norm,
                    test_function_norm, triebel_lizorkin_norm)
from .operators import (CoefficientGrid, Field, analyze, apply_level,
                        frame_operator, hl_maximal, reconstruct)
from .pipeline import Pipeline, build_pipeline, default_level_range
from .space import (GeometryReport, MetricMeasureSpace, generate_space,
                    geometry_report, load_space, save_space)

__version__ = "0.1.0"
