"""gradkit: algorithms for sparse graphs of bounded expansion.

Low-indegree orientations, transitive-fraternal augmentations, bounded
distance oracles, (p-)centered colorings with elimination forests and
tree-decompositions, tree-depth, small-pattern counting, and certified
separator-or-shallow-minor outputs.
"""

from .augmentation import AugmentationTrace, augment
from .coloring import (
    Coloring,
    centered_to_forest,
    certify_low_tdepth,
    greedy_coloring,
    low_tdepth_coloring,
)
from .core import (
    ArcListDigraph,
    EdgeList,
    Graph,
    build_digraph,
    build_graph,
    connected_components,
    induced_subgraph,
    is_connected,
    underlying_graph,
)
from .distance import DistanceIndex, preprocess
from .errors import (
    DisconnectedError,
    DomainError,
    GradKitError,
    InputError,
    InvalidFamilyError,
    NotCenteredError,
    OracleLimitError,
    PatternError,
    SizeLimitError,
)
from .forests import (
    RootedForest,
    TreeDecomposition,
    closure,
    dfs_forest,
    forest_to_decomposition,
    make_forest,
    validate_decomposition,
)
from .gradoracle import BallFamily, GradValue, ball_family, evaluate_family, grad, quotient
from .orientation import DegeneracyOrder, orient
from .patterns import (
    CountReport,
    Pattern,
    count_isomorphs,
    count_on_decomposition,
    decide_containment,
    exists_small_model,
    list_isomorphs,
    make_pattern,
)
from .separator import (
    ExpansionBound,
    MinorWitness,
    Separator,
    SublinearReport,
    choose_z,
    parse_expansion,
    separate_or_minor,
    sublinear_separator,
    validate,
)
from .treedepth import treedepth_decide, treedepth_exact

__version__ = "0.1.0"
