"""Exception hierarchy for the graphbpe package."""


class GraphBpeError(Exception):
    """Base class for all graphbpe errors."""


class SmilesSyntaxError(GraphBpeError):
    """Malformed SMILES input; carries the 0-based offset of the offending character."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnsupportedElementError(SmilesSyntaxError):
    """Atom symbol outside the supported element set."""


class RingClosureError(SmilesSyntaxError):
    """Unmatched, duplicated, or inconsistent ring-closure digit."""


class ValenceError(GraphBpeError):
    """Atom valence or aromatic-ring electron count outside the allowed model."""


class EmptyVocabularyError(GraphBpeError):
    """Generation requested from a vocabulary with no motifs."""


class NoCompatibleCandidateError(GraphBpeError):
    """No connection site matches the focus site's bond order."""


class UnknownMotifError(GraphBpeError):
    """Trajectory references a motif absent from the vocabulary."""


class IncompatibleBondError(GraphBpeError):
    """Trajectory decision pairs connection sites of different bond orders."""


class IrreparableValenceError(GraphBpeError):
    """Finalized molecule failed the valence check even after aromatic repair."""


class FormatVersionError(GraphBpeError):
    """Artifact file header has an unknown format or version tag."""


class FileFormatError(GraphBpeError):
    """Malformed line in an artifact file; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class CorpusError(FileFormatError):
    """Corpus line failed to parse; carries the 1-based line number."""
