"""Value checks for run settings.

A check returns None for a valid value, else the message that follows the
setting's name, as in "batch_size: must be >= 1". Each settings dataclass
keeps its table of checks next to it, and every path that accepts a setting
reads that table.
"""


def at_least(lo):
    return lambda v: None if v >= lo else f"must be >= {lo}"


def one_of(*choices):
    return lambda v: None if v in choices else \
        "must be " + " or ".join(repr(c) for c in choices)


def positive(v):
    return None if v > 0 else "must be positive"


def require(name, message):
    """Raise ValueError "name: message" when there is a message."""
    if message:
        raise ValueError(f"{name}: {message}")


def check_fields(obj, checks):
    """Run each field of obj through its check in checks ({field: check})."""
    for name, check in checks.items():
        require(name, check(getattr(obj, name)))
