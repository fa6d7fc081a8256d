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


def _power_of_ten_below(floor_log2: int) -> str:
    return f"over 10^{math.floor(floor_log2 * math.log10(2))}"


def check_guard(count: int, guard: int | None, what: str) -> None:
    cap = DEFAULT_GUARD if guard is None else guard
    if count > cap:
        # A predicted total can have thousands of digits, more than str(int)
        # allows; from 10^18 on the message gives a power of ten below it.
        shown = str(count) if count < 10**18 else _power_of_ten_below(count.bit_length() - 1)
        raise GuardExceeded(f"{what}: {shown} objects exceeds guard {cap}")


def check_power_guard(c: int, b: int, e: int, guard: int | None, what: str) -> None:
    """check_guard on c * b**e (c, b >= 1), refused unbuilt once a lower bound
    on its floor(log2) reaches 64 and exceeds the guard.  The power of two is
    counted exactly, and the float log2 of the odd part is lowered by one part
    in 10^12, far above its rounding error: the power of ten shown is
    check_guard's, or one less if that log2 is within the margin below an integer."""
    e_low = min(e, 2**64)   # b**e >= b**e_low, and the floats below stay finite
    twos_c, twos_b = (c & -c).bit_length() - 1, (b & -b).bit_length() - 1
    odd = math.log2(c >> twos_c) + e_low * math.log2(b >> twos_b)
    floor_log2 = twos_c + e_low * twos_b + math.floor(odd * (1 - 1e-12))
    cap = DEFAULT_GUARD if guard is None else guard
    if floor_log2 >= max(64, cap.bit_length()):   # the total is at least 2^floor_log2 > cap
        raise GuardExceeded(f"{what}: {_power_of_ten_below(floor_log2)} objects exceeds guard {cap}")
    check_guard(c * b**e, guard, what)
