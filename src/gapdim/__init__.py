"""Exact-arithmetic gap-dimension certificates, interval combinatorics, and
ergodic discrepancy experiments on the unit interval."""

from .exactset import IntervalUnion, decimal12, format_rational, parse_rational
from .funclass import (
    Function,
    FunctionClass,
    all_patterns,
    full_join_family,
    generate,
    interval_indicators,
    k_of_gamma,
    non_adjacent,
    random_step,
    segment,
    segment_partition,
    thresholds,
    trajectory_indicators,
)
from .shatter import (
    DimResult,
    ShatterCertificate,
    gap_dim,
    join,
    join_shatter,
    shatters,
    verify_certificate,
)
from .treelab import (
    CompleteTree,
    EmbeddedSubtree,
    IntersectionTree,
    PtreeWitness,
    intersection_tree_build,
    intersection_tree_verify,
    maximal_join_from_tree,
    ptree_witness,
    subtree_guarantee,
    uniform_subtree,
)
from .ergoproc import (
    Emission,
    IIDUniformSpec,
    MarkovSpec,
    RotationSpec,
    SamplePath,
    bound_check,
    discrepancy,
    estimate_gamma,
    expectation,
    golden_rotation_angle,
    per_function_discrepancies,
    pointwise_discrepancy,
    rotation_counterexample,
    sample_path,
)

__version__ = "0.1.0"
