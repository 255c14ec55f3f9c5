"""Statistical postprocessing of ensemble temperature forecasts.

Provides Gaussian regression postprocessing with global, per-station and
spatially adaptive (latent Gaussian field) parameter estimation, empirical
copula reordering for multivariate samples, and a proper-scoring
verification toolkit.  All components run end-to-end on synthetic data via
the ``enspost`` command line interface.
"""

__version__ = "0.1.0"
