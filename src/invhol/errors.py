"""Exception types shared across the package."""


class InvholError(Exception):
    """Base class for all structured errors raised by this package."""


class NotAssociative(InvholError):
    def __init__(self, a, b, c):
        self.triple = (a, b, c)
        super().__init__(f"multiplication is not associative at triple {a},{b},{c}")


class NotInverse(InvholError):
    """The table is associative but not an inverse semigroup."""


class NotIdempotent(InvholError):
    pass


class SizeCap(InvholError):
    def __init__(self, requested, cap):
        self.requested = requested
        self.cap = cap
        super().__init__(f"requested size {requested} exceeds cap {cap}")


class SearchBudgetExceeded(InvholError):
    """Raised when an enumeration visits more nodes than its budget allows.

    Carries partial progress so callers can report how far the search got.
    """

    def __init__(self, nodes, found, budget):
        self.nodes = nodes
        self.found = found
        self.budget = budget
        super().__init__(
            f"search budget exceeded: {nodes} nodes visited, "
            f"{found} results found, budget {budget}"
        )


class NotInductive(InvholError):
    def __init__(self, x, y):
        self.pair = (x, y)
        super().__init__(f"identities {x} and {y} have no meet")


class NotBelowDomain(InvholError):
    pass


class NotMonoid(InvholError):
    pass


class NotHeapPreserving(InvholError):
    pass


class NotSemilatticeOfGroups(InvholError):
    pass


class LinkingIncompatible(InvholError):
    pass


class AlphabetMismatch(InvholError):
    pass


class WindowExceeded(InvholError):
    pass


class NotSuffixPreserving(InvholError):
    pass


class ParseError(InvholError):
    pass
