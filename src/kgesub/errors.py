"""Exception types shared across the package.

The CLI maps these onto process exit codes: config problems exit 1,
data problems exit 2, numerical divergence exits 3.
"""


class KgesubError(Exception):
    """Base class for all package errors."""


class ConfigError(KgesubError):
    """Invalid configuration file or flag combination."""


class DataError(KgesubError):
    """Malformed input data (triple and score files, ledger)."""


class VocabMismatchError(DataError):
    """Model parameters sized for another vocabulary than the dataset's."""


class DegenerateInputError(KgesubError):
    """Input that makes an operation meaningless (zero frequencies,
    a query whose true answers cover every entity, ...)."""


class CheckpointError(KgesubError):
    """Corrupt, truncated, or version-incompatible checkpoint file."""


class TrainingDivergedError(KgesubError):
    """A non-finite loss or score was produced during training."""


class WriterError(KgesubError):
    """A helper process that formats text rows exited with an error or
    before it sent every block."""
