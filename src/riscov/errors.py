"""Exception hierarchy shared across the package.

The CLI maps :class:`RiscovError` to exit code 4 and the config module's
``ConfigError`` to exit code 2. Config fields are checked once, when a
``NetworkConfig`` is built; :class:`ParameterError` is raised only by
``geometry.expected_r1``, on an intensity that is not a positive finite
float. It stays because the benchmark's probe test passes one and expects it.
"""
from __future__ import annotations


class RiscovError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(RiscovError, ValueError):
    """An argument violates a precondition (non-finite, non-positive, ...)."""


class NumericalError(RiscovError, RuntimeError):
    """A computation failed to reach its tolerance or left the float range."""
