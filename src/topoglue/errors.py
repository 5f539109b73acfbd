"""Exception types shared across the package.

Each error class declares the CLI exit code it ends in as ``exit_code``:
1 a check failed (the default), 2 input error, 3 search budget exceeded.
"""


class TopoglueError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InvalidTopology(TopoglueError):
    """A minimal-open table violates the finite-topology axioms."""

    exit_code = 2

    def __init__(self, point, offender, message=None):
        self.point = point
        self.offender = offender
        super().__init__(message or f"invalid topology at {point!r} / {offender!r}")


class UnknownPoint(TopoglueError):
    """A point was referenced that is not in the space it was used with."""

    exit_code = 2


class CompositionMismatch(TopoglueError):
    """Two maps (or morphisms) were composed whose endpoints do not line up."""

    exit_code = 2


class SearchBudgetExceeded(TopoglueError):
    """A brute-force search exceeded its configured budget.

    Budget exhaustion is always an error, never a silent pass.  ``search``
    names the search, ``used`` is the node count it reached and ``limit`` is
    the budget it was given.
    """

    exit_code = 3

    def __init__(self, search, used, limit):
        self.search = search
        self.used = used
        self.limit = limit
        super().__init__(f"{search} tried {used} nodes, over its budget of {limit}")


class BadArity(TopoglueError):
    """An index tuple of unsupported length was given."""

    exit_code = 2


class ValidationFailed(TopoglueError):
    """An operation required validated gluing data and the report failed.

    The message lists the report's rows; it is formatted only when read.
    """

    def __init__(self, report, message="validation failed"):
        self.report = report
        self.message = message
        super().__init__(message)

    def __str__(self):
        return f"{self.message}:\n{self.report}"


class NotDetermined(TopoglueError):
    """A triple transition could not be derived uniquely from the pair data."""

    exit_code = 2

    def __init__(self, i, j, k, point, candidates):
        self.key = (i, j, k)
        self.point = point
        self.candidates = candidates
        super().__init__(
            f"triple transition ({i},{j},{k}) not determined at {point!r}: "
            f"{len(candidates)} candidates"
        )


class NotEquivalence(TopoglueError):
    """The raw overlap relation is not an equivalence relation."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"relation is not an equivalence: {witness}")


class MissingLeg(TopoglueError):
    """A cone is missing a leg for an object it must cover."""

    exit_code = 2


class IllDefined(TopoglueError):
    """A mediating map disagrees on an identified pair of points."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"cone legs disagree on identified points: {witness}")


class NotCovering(TopoglueError):
    """A glued-space point has no provenance in any patch."""


class MissingComponent(TopoglueError):
    """A refinement is missing a component that is not uniquely forced."""

    exit_code = 2


class HypothesisBFailed(TopoglueError):
    """A meta-gluing triple node does not glue to the pullback of pair nodes."""

    def __init__(self, i, j, k, message=None):
        self.key = (i, j, k)
        super().__init__(message or f"pushout condition fails at triple ({i},{j},{k})")


class ParseError(TopoglueError):
    """A document could not be parsed."""

    exit_code = 2

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class UnresolvedReference(TopoglueError):
    """A document references a name that was never declared."""

    exit_code = 2


class DuplicateName(TopoglueError):
    """A document declares the same name twice."""

    exit_code = 2


class UnknownCommand(TopoglueError):
    """The CLI was asked to run a command it does not know."""

    exit_code = 2


class UnknownTarget(TopoglueError):
    """A command was pointed at a name that does not denote a usable target."""

    exit_code = 2
