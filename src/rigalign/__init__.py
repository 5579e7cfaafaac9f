"""rigalign: rigid 6-DoF alignment of a 3D object model to per-frame point
clouds and image features, decoded over discretized pose grids, plus the
point-cloud evaluation stack."""

from .align import AlignResult, PoseTrack, align_sequence, align_single_frame, track_from_json, track_to_json
from .emission import (
    EmissionEvaluator,
    FeatureMap,
    FrameObservation,
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
    normalize_points,
    ray_triangle_intersect,
    resample_point_cloud,
    sample_hand_points,
    sample_mesh_surface,
)
from .grids import RotationGrid, TranslationGrid, build_rotation_grid, build_translation_grid, rodrigues_error
from .metrics import (
    MetricReport,
    NearestNeighborIndex,
    chamfer_distance,
    f_score,
    icp_with_scaling,
    median_metrics,
)
from .viterbi import EmissionTable, StatePath, brute_force_decode, path_cost, viterbi_decode

__version__ = "0.1.0"
