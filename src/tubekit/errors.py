"""Exception types shared across the package."""


class ParseError(Exception):
    """A record in an input file violates the expected schema.

    Carries enough context (file, 1-based line, offending field) for the
    CLI to print an actionable diagnostic.
    """

    def __init__(self, path, line_no=None, field=None, message=""):
        self.path = str(path)
        self.line_no = line_no
        self.field = field
        parts = [self.path]
        if line_no is not None:
            parts.append(f"line {line_no}")
        if field is not None:
            parts.append(f"field '{field}'")
        super().__init__(f"{', '.join(parts)}: {message}")


class VocabularyError(ParseError):
    """A record uses a name outside a closed vocabulary (stream, crop, ...)."""


class EmptyFrameError(ValueError):
    """A linking problem contains a frame with no candidate boxes."""
