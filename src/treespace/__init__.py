"""Statistics, classification and embeddings for populations of trees."""

from .trees import (
    AttributedTree,
    Split,
    TreeError,
    all_compatible,
    compatible,
    parse_population,
    parse_tree,
    serialize_population,
    serialize_tree,
    split_key,
    splits_of,
    tree_from_dict,
    tree_to_dict,
)
from .distmat import DistanceMatrix
from .geodesic import (
    GeodesicPath,
    brute_force_distance,
    distance_matrix,
    distance_matrix_detailed,
    geodesic,
    geodesic_distance,
    geodesic_point,
)
from .stats import (
    MeanConfig,
    MeanResult,
    PermutationTestReport,
    SubtreeCorrelation,
    frechet_mean,
    frechet_mean_detailed,
    pearson,
    permutation_test,
    subtree_variance_correlation,
    variance,
)
from .subtrees import (
    DEFAULT_BRANCH_LABELS,
    FeatureMatrix,
    SubtreeScheme,
    compute_reference_means,
    extract_subtree,
    feature_matrix,
    fold_feature_builder,
)
from .classify import (
    CvReport,
    ElasticNetModel,
    KnnReport,
    cross_validate,
    fit_elastic_net,
    kkt_residual,
    knn_classify,
    lambda_grid,
    lambda_max,
    penalized_objective,
    predict,
    predict_proba,
)
from .embedding import (
    DistortionReport,
    EmbeddingConfig,
    EmbeddingResult,
    classical_mds,
    distortion_report,
    embed,
    hyperbolic_distance,
    isomap_graph_distances,
    mds_pd,
    sammon_stress,
    stress_gradient,
)
from .synthetic import (
    BookPoint,
    CONE_ANGLE,
    ConePoint,
    MetricDataset,
    TreePopulation,
    airway_template,
    book_distance,
    cone_distance,
    gen_corner,
    gen_sheets,
    gen_tree_population,
)

__version__ = "0.1.0"
