"""Shared error types.

The class of the error raised at a fault alone sets the CLI exit code:
- ConfigError, exit 2: a setting is out of range or inconsistent, including
  a corpus too large for the hash space to hold;
- DataFormatError, exit 3: input data is malformed or inconsistent;
- StageError or OSError, exit 4: a pipeline stage failed, or a file could
  not be read or written.
ConfigError and DataFormatError are ValueErrors, so a library caller may
catch both as one.
"""


class DataFormatError(ValueError):
    pass


class ConfigError(ValueError):
    pass


class StageError(Exception):
    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
