"""Typed exception hierarchy for the CATT compilation layers.

The frontend already has structured diagnostics (:mod:`repro.frontend.errors`);
this module gives the analysis and transform layers the same treatment so the
resilient driver (:mod:`repro.transform.pipeline`) can tell *expected*
degradation cases ("this loop cannot be throttled") apart from genuine bugs,
instead of swallowing every ``ValueError``.

Hierarchy::

    CattError
    ├── AnalysisError
    │   └── ThrottleSearchError (also ValueError)
    └── TransformError
        └── WarpSplitError      (also ValueError)

The ``ValueError`` mixins keep historical call sites working: code written
against the old blanket ``raise ValueError`` / ``except ValueError`` contracts
(e.g. BFTT's factor filtering) still behaves identically.
"""

from __future__ import annotations


class CattError(Exception):
    """Base class for all CATT analysis/transform diagnostics."""

    def __init__(self, message: str, *, kernel: str | None = None,
                 loop_id: int | None = None):
        self.kernel = kernel
        self.loop_id = loop_id
        super().__init__(message)


class AnalysisError(CattError):
    """The static analysis (§4.1–§4.2) could not complete."""


class ThrottleSearchError(AnalysisError, ValueError):
    """The throttling-factor search (Eq. 9) was handed an invalid or
    unsatisfiable request — e.g. an ``N`` that does not divide the warp count
    or an ``M`` that leaves no resident TBs."""


class TransformError(CattError):
    """A source-to-source transformation (§4.3) could not be applied."""


class WarpSplitError(TransformError, ValueError):
    """The Fig.-4 warp-group split was impossible for this loop (factor does
    not divide the warp count, or the loop vanished under a prior rewrite)."""

