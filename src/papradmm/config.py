"""Experiment configuration: defaults, key=value config files, CLI overrides."""

import dataclasses
import math
import numbers
import operator
from dataclasses import dataclass

from .dsp import Constellation


class ConfigError(ValueError):
    """Bad configuration file or option combination (CLI exit code 2)."""


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _is_real(value) -> bool:
    """A real number of any type, booleans aside."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _to_int(key: str, value) -> int:
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise ConfigError(f"cannot parse {key}={value.strip()!r}") from None
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{key} must be an integer, got {value}")


def _to_float(key: str, value) -> float:
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            raise ConfigError(f"cannot parse {key}={value.strip()!r}") from None
    if _is_real(value):
        return float(value)
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _to_float_tuple(key: str, value) -> tuple:
    """A sequence of numbers, or its string form: numbers split by commas or spaces."""
    if isinstance(value, str):
        try:
            return tuple(float(tok) for tok in value.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"bad list for {key!r}: {value.strip()!r}") from None
    if isinstance(value, (list, tuple)) and all(_is_real(v) for v in value):
        return tuple(float(v) for v in value)
    raise ConfigError(f"{key} must be a sequence of numbers, got {value!r}")


def _to_bool(key: str, value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        word = value.strip().lower()
        if word in _TRUE_WORDS or word in _FALSE_WORDS:
            return word in _TRUE_WORDS
        raise ConfigError(f"cannot parse {key}={value.strip()!r}")
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def _to_str(key: str, value) -> str:
    if isinstance(value, str):
        return value.strip()
    raise ConfigError(f"{key} must be a string, got {value!r}")


@dataclass
class ExperimentConfig:
    """All knobs of the Monte Carlo drivers, with the stock defaults.

    ``rho``/``rho_tilde`` default to the per-solver standards (100 for the
    direct engine, 300/100 for the relaxed one) when left unset.  Every
    driver runs every solver, so the relaxed engine's ``rho > 2*rho_tilde >
    0`` is checked for every configuration.  The data-carrier count is
    ``n_carriers - n_free``.
    """

    n_carriers: int = 64
    n_free: int = 12
    oversample: int = 4
    constellation: str = "16qam"
    n_symbols: int = 5000
    alpha_db: float = 4.0
    beta: float = 0.15
    rho: float | None = None
    rho_tilde: float | None = None
    iterations: int = 5
    seed: int = 12345
    ebn0_db: tuple = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    channel: str = "awgn"
    pa_enabled: bool = True
    workers: int = 1
    out_dir: str = "results"

    _CHANNELS = ("awgn", "multipath")

    def validate(self) -> "ExperimentConfig":
        # NaN passes every range check below, since it compares false
        for key in ("alpha_db", "beta", "rho", "rho_tilde"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        if not all(math.isfinite(v) for v in self.ebn0_db):
            raise ConfigError(f"ebn0_db must be finite, got {self.ebn0_db}")
        if not 0 < self.n_free < self.n_carriers:
            raise ConfigError(
                f"n_free ({self.n_free}) must be in 1..n_carriers-1 "
                f"(n_carriers = {self.n_carriers})"
            )
        if self.channel not in self._CHANNELS:
            raise ConfigError(f"unknown channel {self.channel!r}")
        try:
            Constellation.from_name(self.constellation)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.alpha_db <= 0:
            raise ConfigError("alpha_db must be > 0")
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if self.oversample < 1:
            raise ConfigError("oversample must be >= 1")
        if self.n_symbols < 1 or self.iterations < 0:
            raise ConfigError("n_symbols must be >= 1 and iterations >= 0")
        rho, rho_tilde = self.resolved_penalties("relax")
        if rho_tilde <= 0.0 or rho <= 2.0 * rho_tilde:
            raise ConfigError(
                f"relax solver needs rho > 2*rho_tilde > 0 (got {rho}, {rho_tilde})"
            )
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.ebn0_db:
            raise ConfigError("ebn0_db must list at least one value")
        return self

    def resolved_penalties(self, solver: str) -> tuple:
        """(rho, rho_tilde) with per-solver defaults filled in."""
        if solver == "relax":
            return (
                self.rho if self.rho is not None else 300.0,
                self.rho_tilde if self.rho_tilde is not None else 100.0,
            )
        return (self.rho if self.rho is not None else 100.0, self.rho_tilde)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Parse a line-based ``key = value`` file (``#`` starts a comment)."""
        try:
            fh = open(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        values = {}
        with fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, text = (tok.strip() for tok in line.split("=", 1))
                values[key] = text
        return cls().with_overrides(**values)

    def with_overrides(self, **overrides) -> "ExperimentConfig":
        """Copy with the overrides applied and validated; ``None`` leaves a key as it is.

        Each key takes a value of its declared type (``rho``/``rho_tilde``:
        a float) or the string form a config file or a CLI flag holds,
        parsed by ``_PARSERS``; anything else raises a :class:`ConfigError`
        that names the key.
        """
        fields = {f.name: f.type for f in dataclasses.fields(self)}
        updates = {}
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in fields:
                raise ConfigError(f"unknown configuration key {key!r}")
            updates[key] = _PARSERS[fields[key]](key, value)
        return dataclasses.replace(self, **updates).validate()


# The parser of each ExperimentConfig field, keyed by its declared type
_PARSERS = {
    bool: _to_bool,
    int: _to_int,
    float: _to_float,
    float | None: _to_float,
    tuple: _to_float_tuple,
    str: _to_str,
}
