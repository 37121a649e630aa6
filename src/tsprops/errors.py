"""Exception types shared across the package."""


class DegreeMismatchError(ValueError):
    """Operands act on point sets of different sizes."""


class LimitExceeded(RuntimeError):
    """A search stopped at a limit; ``witness`` is the UNDECIDED witness
    naming it, which ``witnesses.verify_witness`` replays."""


class EnumerationCapExceeded(LimitExceeded):
    """Element enumeration grew past the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"semigroup has more than {cap} elements")
        self.cap = cap
        self.witness = {"kind": "enumeration-cap", "cap": cap}


class StateBudgetExceeded(LimitExceeded):
    """A tuple state space is larger than the configured budget."""

    def __init__(self, states: int, budget: int):
        super().__init__(f"state space of size {states} exceeds budget {budget}")
        self.states = states
        self.budget = budget
        self.witness = {"kind": "state-budget", "states": states,
                        "budget": budget}


class ParseError(ValueError):
    """Malformed input text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class PreconditionError(ValueError):
    """An operation was applied to an instance outside its contract."""


class UnknownPropertyError(KeyError):
    """A property name that no checker recognises."""
