"""vrpcast: one-step-ahead forecasting of volcanic radiative power series
with entropy-based lag selection and Bayesian-regularized neural networks."""

from .data_ingest import TimeSeries, generate_synthetic, load_csv, radiance_to_vrp
from .lag_select import EntropyProfile, entropy_profile, relative_entropy_pair, shannon_entropy
from .mlp import MlpModel, init
from .pipeline import EvalReport, PipelineConfig, compare_algorithms, forecast_multi_step, run_pipeline
from .series_ops import NormParams, PatternSet, acf, difference, extract_patterns, fit_normalizer, undifference
from .stat_tests import error_stats, kpss_level, paired_ttest, two_sample_ttest
from .trainers import TrainConfig, TrainReport, grid_search_fit, train

__version__ = "0.1.0"
