"""opdkit: orthogonal-projection decomposition of speech-enhancement errors.

Decomposes a single-channel enhanced signal into a target component, a
noise-error component (a linear combination of delayed speech/noise
references), and an artifact-error component (everything the enhancer
invented), computes SDR/SNR/SAR over the parts, and provides two analysis
schemes: direct scaling of the error components and observation adding,
including a closed-form predictor of the SAR improvement.
"""

__version__ = "0.1.0"

from .signals import MixtureSpec, Waveform, add, energy, inner, mix_at_snr, scale
from .wavio import read_wav, write_wav
from .projection import (
    DEFAULT_MAX_DELAY,
    DELAY_PADDING,
    ProjectionBasis,
    SingularProjectionError,
    build_basis,
    project,
    project_dense_oracle,
)
from .decomposition import (
    Decomposer,
    Decomposition,
    decompose,
    export_components,
    recompose,
)
from .metrics import (
    MetricsReport,
    NoTargetError,
    compute_metrics,
    db_to_str,
    metrics_from_gram,
    sar_improvement_closed_form,
)
from .analysis import (
    DsaPoint,
    OaPoint,
    SarGainCondition,
    SweepRow,
    SweepValidationError,
    dsa_sweep,
    dsa_synthesize,
    oa_apply,
    oa_sweep,
    sar_improvement_condition,
)
from .enhance import ENHANCE_METHODS, EnhanceConfig, enhance, istft, stft
from .selftest import OracleCase, SelfTestReport, make_case, run_property_suite

__all__ = [name for name in dir() if not name.startswith("_")]
