"""rigalign: rigid 6-DoF alignment of a 3D object model to per-frame point
clouds and image features, decoded over discretized pose grids, plus the
point-cloud evaluation stack."""

from .align import AlignResult, PoseTrack, align_sequence, track_from_json, track_to_json
from .emission import (
    EmissionEvaluator,
    FeatureMap,
    PCABasis,
    dino_similarity,
    estimate_scale,
    pca_basis,
    rasterize_silhouette,
)
from .geometry import (
    Camera,
    HandPointMap,
    NormalizationParams,
    PointCloud,
    SimilarityTransform,
    TriangleMesh,
    apply_pose,
    first_hit_map,
    normalize_points,
    resample_point_cloud,
    sample_mesh_surface,
)
from .grids import RotationGrid, TranslationGrid, build_rotation_grid, build_translation_grid
from .metrics import (
    MetricReport,
    NearestNeighborIndex,
    chamfer_distance,
    f_score,
    icp_with_scaling,
    median_metrics,
)
from .viterbi import EmissionTable, StatePath, viterbi_decode

__version__ = "0.1.0"
