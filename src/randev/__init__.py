"""randev: simulate imperfect binary randomness sources and measure deviation from ideal.

The package is organized as a pipeline:

* ``config``      -- source and monitor configurations and their checks;
                     no numpy.
* ``bitstream``   -- packed bit sequences and file I/O; loads no numpy at
                     import, only where it makes an array.
* ``sources``     -- seeded simulators of ideal, biased, correlated,
                     dead-time-afflicted, and deterministic bit sources.
* ``draws``       -- the base generators the sources are built on:
                     SplitMix64 draws and the xorshift64 jump tables.
* ``model``       -- closed-form expected statistics for every source;
                     needs only ``config``, so it loads no numpy.
* ``stats``       -- the arithmetic on a stream's counts: the pair counts,
                     lag states and their merge, the entropies, deviation
                     and report; needs only ``model``, so it loads no numpy.
* ``estimators``  -- one-pass, mergeable counts of real streams' packed
                     words, and ``analyze``.
* ``windows``     -- the stream monitor: fixed-window counts, the alarm
                     rule and the line ``randev monitor`` prints.
* ``experiments`` -- reproducible sweeps and curves built on the above.
* ``cli``         -- the ``randev`` command.

Each stage loads on first use: ``import randev`` imports no stage, and
the first access to a public name, or to a stage itself, imports the
module it lives in, so a program that only generates bits never loads
the estimators, and one that only configures sources, evaluates the
model or works on counts never loads numpy.  The records (``SourceConfig``,
``ModelPrediction``, ``AnalysisReport`` and the rest) are
``NamedTuple``s: ``_replace`` makes a changed copy, ``_asdict`` gives
the fields in order, and a record equals the plain tuple of its fields.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the stage that defines it
_STAGES = {
    "config": (
        "DEADTIME_MODES", "SOURCE_KINDS", "ParameterError", "SourceConfig", "TransitionMatrix",
        "markov_transition_matrix",
    ),
    "bitstream": ("BitSequence", "concat", "from_raw_bytes", "read_file", "write_file"),
    "estimators": ("LagAccumulator", "accumulate", "analyze", "analyze_parallel", "merge"),
    "experiments": (
        "CurveRow", "GridResult", "GridRow", "fig2_curve", "validate_approx",
    ),
    "model": (
        "ModelPrediction", "binary_entropy", "deadtime_a1", "deviation_quadratic",
        "deviation_sigma", "markov_prediction", "mi_exact_unbiased", "n_max",
        "predict_source",
    ),
    "sources": ("Source", "generate"),
    "stats": (
        "AnalysisReport", "DegenerateSequenceError", "EmptyInputError", "EstimatorError",
        "InsufficientDataError", "LagEstimate", "PairCounts", "bias_estimate",
        "cond_entropy_lag1", "deviation_plugin", "mutual_information_lag1",
    ),
    "windows": (),
}
_HOME = {name: stage for stage, names in _STAGES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _STAGES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
