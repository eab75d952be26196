"""One-way function laboratory: rewrite systems, pair lists, and tilings
compiled from Turing machines, with deterministic-closure semantics and
brute-force inversion experiments.

The submodules are the API; the package namespace holds only
backend_name and __version__."""

from .kernels import backend_name

__version__ = "1.0.0"
