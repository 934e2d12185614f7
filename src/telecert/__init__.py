"""telecert: certification toolkit for authenticated teleportation.

Self-testing constants from moment-matrix semidefinite programs,
finite-statistics fidelity certificates under iid and martingale
assumptions, and Monte Carlo validation of the full test-then-teleport
protocol against honest and adversarial sources.
"""

__version__ = "0.1.0"


class SdpError(RuntimeError):
    """A moment problem or semidefinite program the solver could not
    certify.  It lives here, with no numerical import, so the command line
    can name it without loading the solver; `telecert.sdp` re-exports it."""
