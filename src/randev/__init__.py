"""randev: simulate imperfect binary randomness sources and measure deviation from ideal.

The package is organized as a pipeline:

* ``bitstream``   -- packed bit sequences and file I/O.
* ``sources``     -- seeded simulators of ideal, biased, correlated,
                     dead-time-afflicted, and deterministic bit sources.
* ``model``       -- closed-form expected statistics for every source.
* ``estimators``  -- one-pass, mergeable measurements of real streams.
* ``experiments`` -- reproducible sweeps and demos built on the above.
* ``cli``         -- the ``randev`` command.
"""

from randev.bitstream import BitSequence, concat, from_raw_bytes, read_file, write_file
from randev.estimators import (
    AnalysisReport,
    DegenerateSequenceError,
    EmptyInputError,
    EstimatorError,
    InsufficientDataError,
    LagAccumulator,
    LagEstimate,
    PairCounts,
    accumulate,
    analyze,
    analyze_parallel,
    autocorr,
    bias_estimate,
    cond_entropy_lag1,
    deviation_plugin,
    deviation_quadratic,
    marginal_entropy_lag1,
    merge,
    mutual_information_lag1,
)
from randev.experiments import (
    CurveRow,
    GridResult,
    GridRow,
    PrngDemo,
    concat_property,
    fig2_curve,
    prng_demo,
    validate_approx,
)
from randev.model import (
    ModelPrediction,
    binary_entropy,
    deadtime_a1,
    deviation_sigma,
    markov_prediction,
    mi_exact_unbiased,
    mi_parabolic,
    n_max,
    predict_source,
)
from randev.sources import (
    DEADTIME_MODES,
    SOURCE_KINDS,
    ParameterError,
    Source,
    SourceConfig,
    TransitionMatrix,
    generate,
    markov_transition_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BitSequence",
    "CurveRow",
    "DEADTIME_MODES",
    "DegenerateSequenceError",
    "EmptyInputError",
    "EstimatorError",
    "GridResult",
    "GridRow",
    "InsufficientDataError",
    "LagAccumulator",
    "LagEstimate",
    "ModelPrediction",
    "PairCounts",
    "ParameterError",
    "PrngDemo",
    "SOURCE_KINDS",
    "Source",
    "SourceConfig",
    "TransitionMatrix",
    "accumulate",
    "analyze",
    "analyze_parallel",
    "autocorr",
    "bias_estimate",
    "binary_entropy",
    "concat",
    "concat_property",
    "cond_entropy_lag1",
    "deadtime_a1",
    "deviation_plugin",
    "deviation_quadratic",
    "deviation_sigma",
    "fig2_curve",
    "from_raw_bytes",
    "generate",
    "marginal_entropy_lag1",
    "markov_prediction",
    "markov_transition_matrix",
    "merge",
    "mi_exact_unbiased",
    "mi_parabolic",
    "mutual_information_lag1",
    "n_max",
    "predict_source",
    "prng_demo",
    "read_file",
    "validate_approx",
    "write_file",
]
