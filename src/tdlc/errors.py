"""Shared exception types.

GuardExceeded signals that an enumeration would overrun its feasibility cap;
CertificationError signals that the truncation radius is too small to certify
a claim.  Both map to exit code 2 at the CLI, while plain ValueError (bad
input) maps to exit code 1.
"""


class GuardExceeded(RuntimeError):
    """An enumeration hit its configured size cap."""


class CertificationError(RuntimeError):
    """The available ball depth cannot certify the requested claim."""


import math

DEFAULT_GUARD = 10**6


def check_guard(count: int, guard: int | None, what: str) -> None:
    cap = DEFAULT_GUARD if guard is None else guard
    if count > cap:
        # A predicted total can have thousands of digits, more than str(int)
        # allows; from 10^18 on the message gives a power of ten below it.
        shown = str(count) if count < 10**18 else \
            f"over 10^{math.floor((count.bit_length() - 1) * math.log10(2))}"
        raise GuardExceeded(f"{what}: {shown} objects exceeds guard {cap}")
