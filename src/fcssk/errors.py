"""Exception types shared across the package."""


class FcsskError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FcsskError, ValueError):
    """Invalid or inconsistent parameter combination."""


class AliasingError(ConfigError):
    """Chirp bandwidth violates the sampling theorem (b0 >= fs/2)."""


class FramingError(FcsskError, ValueError):
    """Bit stream length does not fit the codec's block structure."""


class NonFiniteSampleError(FcsskError, ValueError):
    """A sample buffer holds NaN or infinity."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class SyncError(FcsskError, RuntimeError):
    """Timing estimation failed (no usable beat peak)."""


class FileFormatError(FcsskError, ValueError):
    """An input file does not match the expected on-disk format."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset
