"""Exception types shared across the package."""


class SemicatError(Exception):
    """Base class for structured errors raised by semicat."""


class OutOfRangeError(SemicatError):
    def __init__(self, row, col, entry, n):
        super().__init__(f"table[{row}][{col}] = {entry} is outside [0, {n})")
        self.row = row
        self.col = col
        self.entry = entry
        self.n = n


class NotAssociativeError(SemicatError):
    def __init__(self, i, j, k):
        super().__init__(f"associativity fails at ({i}, {j}, {k})")
        self.triple = (i, j, k)


class NotClosedError(SemicatError):
    def __init__(self, op, witness):
        super().__init__(f"subset not closed under {op} at {witness}")
        self.op = op
        self.witness = witness


class NotSubsemilatticeError(SemicatError):
    def __init__(self, reason, witness):
        super().__init__(f"E is not a subsemilattice: {reason} at {witness}")
        self.reason = reason
        self.witness = witness


class ClassWithoutIdempotentError(SemicatError):
    def __init__(self, side, members):
        super().__init__(f"{side} class {sorted(members)} contains no idempotent of E")
        self.side = side
        self.members = tuple(members)


class CongruenceError(SemicatError):
    def __init__(self, side, a, b):
        ident = "(ab)+ = (ab+)+" if side == "plus" else "(ab)* = (a*b)*"
        super().__init__(f"congruence identity {ident} fails at a={a}, b={b}")
        self.side = side
        self.pair = (a, b)


class NotAPosetError(SemicatError):
    def __init__(self, kind, witness):
        super().__init__(f"relation is not a partial order: {kind} fails at {witness}")
        self.kind = kind
        self.witness = witness


class NotEIError(SemicatError):
    def __init__(self, witness):
        super().__init__(f"category is not EI; witness endomorphism {witness}")
        self.witness = witness


class InconsistentComputationError(SemicatError):
    """Two independent routes to the same value disagreed; implementation bug."""

    def __init__(self, what, detail):
        super().__init__(f"internal cross-check failed for {what}: {detail}")
        self.what = what
        self.detail = detail
