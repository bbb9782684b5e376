"""opdkit: orthogonal-projection decomposition of speech-enhancement errors.

Decomposes a single-channel enhanced signal into a target component, a
noise-error component (a linear combination of delayed speech/noise
references), and an artifact-error component (everything the enhancer
invented), computes SDR/SNR/SAR over the parts, and provides two analysis
schemes: direct scaling of the error components and observation adding,
including a closed-form predictor of the SAR improvement.
"""

__version__ = "0.1.0"
