"""Super-resolution of point sources on the torus with single-snapshot MUSIC.

Subpackages cover the support model (clumped point sets), Fourier/Vandermonde
and Hankel matrices, conditioning bounds and scaling fits, the MUSIC estimator
with its perturbation analysis, Gaussian noise concentration, and a config
driven Monte Carlo harness with a CLI front end.
"""

__version__ = "0.1.0"
