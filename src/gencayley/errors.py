"""Exception types shared across the package."""


class GenCayleyError(Exception):
    """Base class for package-specific errors."""


class GroupValidationError(GenCayleyError):
    """A multiplication table violates a group axiom.

    Carries the name of the first violated axiom and a witness tuple of
    element indices demonstrating the violation.
    """

    def __init__(self, axiom: str, witness, detail: str = ""):
        self.axiom = axiom
        self.witness = witness
        msg = f"group axiom violated: {axiom}, witness {witness}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class GroupFileError(GenCayleyError):
    """A group or automorphism file is malformed.

    The message carries a line or field diagnostic.
    """


class ThresholdError(GenCayleyError):
    """An enumeration would exceed its size bound (a module constant)."""


class SubsetInvalidError(GenCayleyError):
    """A candidate connection set fails a validity condition."""

    def __init__(self, reason: str, witness):
        self.reason = reason
        self.witness = witness
        super().__init__(f"invalid connection set: {reason} (witness element {witness!r})")
