"""Monte Carlo null-model hypothesis testing for genomic point and segment tracks."""

__version__ = "0.1.0"

from .mc import (
    ConfigError,
    EstimatorMode,
    MCConfig,
    TestResult,
    empirical_pvalue,
    run_mc_batch,
    run_mc_test,
)
from .null_models import (
    MODELS,
    NullModel,
    NullModelSpec,
    PRESERVE_INTERPOINT,
    PRESERVE_INTERSEGMENT,
    UNIFORM_POINTS,
    UNIFORM_SEGMENTS,
    resample_track,
)
from .qvalues import estimate_pi0, qvalues, reject_at_fdr
from .ripley import (
    DEFAULT_SCALES,
    estimate_l_profile,
)
from .seeding import derive_seed, rng_for
from .simulate import (
    PointGenConfig,
    SegmentGenConfig,
    generate_points,
    generate_segments,
)
from .stats import (
    Direction,
    binomial_upper_pvalue,
    count_points_in_segments,
)
from .study import (
    ASSUMPTIONS,
    GENERATION_COLUMNS,
    ORDERING_MODELS,
    StudyConfig,
    decile_table,
    rejection_counts,
    run_clustering_survey,
    run_false_rejection_study,
    run_ordering_experiment,
)
from .tracks import (
    Bin,
    BinarySequence,
    PointTrack,
    SegmentTrack,
    TrackFormatError,
    TrackValidationError,
    coverage_fraction,
    load_bins,
    load_point_track,
    load_segment_track,
    merge_overlapping,
    partition,
    read_points,
    read_segments,
    save_point_track,
    save_segment_track,
    to_binary_sequence,
)
