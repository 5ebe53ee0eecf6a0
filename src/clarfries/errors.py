"""Exception types shared across the package, and the helper that keeps
their messages short."""


class InputError(ValueError):
    """Raised when caller-supplied data violates a documented precondition."""


class InvariantError(RuntimeError):
    """Raised when an internal self-check fails.

    This always indicates a bug in the solver or in an extraction step, never
    bad input; callers should treat it as non-recoverable.
    """


class BudgetExceeded(RuntimeError):
    """Raised when a brute-force routine is asked to exceed its budget."""


class InfeasibleCirculation(RuntimeError):
    """No circulation satisfies the lower bounds.

    ``deficient_set`` is a set of nodes with no arcs leaving it whose lower
    bounds pump strictly more flow in than out, which is impossible to drain.
    """

    def __init__(self, deficient_set):
        self.deficient_set = frozenset(deficient_set)
        super().__init__(
            f"no feasible circulation: {len(self.deficient_set)} nodes trap excess flow"
        )


# the most characters of an offending value that an error message repeats
BRIEF_LIMIT = 60


def brief(value, form=repr, limit: int = BRIEF_LIMIT) -> str:
    """``form(value)``, its repr by default, for an error message: cut
    after ``limit`` characters, so that a huge input value does not make
    a huge message."""
    text = form(value)
    return text if len(text) <= limit else text[:limit] + "..."
