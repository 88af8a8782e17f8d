"""Shared engine parameters and the dB-to-linear helper."""

from dataclasses import dataclass


def db_to_linear(value_db: float) -> float:
    return float(10.0 ** (value_db / 10.0))


@dataclass(frozen=True)
class AdmmParams:
    """Targets and penalties shared by the two engines.

    ``alpha`` is the *linear* PAPR ceiling (>= 1); ``beta`` bounds the
    free-carrier power overhead ``||c_F||^2 / ||c_D||^2``.  ``rho_tilde`` is
    only used by the relaxed engine, which requires ``rho > 2*rho_tilde``.
    Iteration stops after ``max_iters`` sweeps or when the per-symbol change
    residual drops below ``eps``, whichever comes first.

    The change residual is a *squared* step: ``||dc||^2 + ||dx||^2`` for the
    direct engine and ``||du||^2 + ||dw||^2`` for the relaxed one.  A stop at
    ``eps`` therefore still leaves steps of about ``sqrt(eps)`` per sweep, and
    certifying a KKT residual ``tau`` needs ``eps`` of about ``tau**2`` or less.
    """

    alpha: float
    beta: float
    rho: float
    rho_tilde: float | None = None
    max_iters: int = 5
    eps: float = 1e-8

    def __post_init__(self):
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1 (linear), got {self.alpha}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.rho <= 0.0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
