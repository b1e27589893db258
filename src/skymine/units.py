"""Unit-suffix parsing for CLI flags.

Byte quantities are decimal (1 TB = 1e12 bytes): the survey arithmetic only
reconciles in decimal units. Angles accept `d` (degrees) or `s` (arcseconds).
"""

from __future__ import annotations

import math
import re

from .errors import ValidationError
from .sphere import ARCSEC_PER_DEG

_SIZE_FACTORS = {
    "": 1.0,
    "B": 1.0,
    "KB": 1e3,
    "MB": 1e6,
    "GB": 1e9,
    "TB": 1e12,
    "PB": 1e15,
}

_SIZE_RE = re.compile(r"^\s*([0-9.eE+-]+)\s*([A-Za-z]*)\s*$")


def parse_bytes(text: str) -> float:
    """Parse '120TB', '150MB', '64' (plain bytes) into a byte count."""
    m = _SIZE_RE.match(text)
    if not m:
        raise ValidationError(f"cannot parse size {text!r}")
    value, suffix = m.group(1), m.group(2).upper()
    if suffix not in _SIZE_FACTORS:
        raise ValidationError(f"unknown size suffix {suffix!r} in {text!r}")
    try:
        return float(value) * _SIZE_FACTORS[suffix]
    except ValueError as exc:
        raise ValidationError(f"cannot parse size {text!r}") from exc


def parse_rate(text: str) -> float:
    """Parse '150MB/s' (or a bare size meaning per-second) into bytes/second."""
    base = text.strip()
    if base.endswith("/s"):
        base = base[:-2]
    return parse_bytes(base)


def parse_bits_per_second(text: str) -> float:
    """Parse '155Mbit/s' or '10Gbit/s' into bits/second."""
    base = text.strip()
    if base.endswith("/s"):
        base = base[:-2]
    m = re.match(r"^\s*([0-9.eE+-]+)\s*([KMGT]?)bit\s*$", base, re.IGNORECASE)
    if not m:
        raise ValidationError(f"cannot parse bit rate {text!r}")
    factors = {"": 1.0, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12}
    try:
        value = float(m.group(1))
    except ValueError:
        raise ValidationError(f"cannot parse bit rate {text!r}") from None
    return value * factors[m.group(2).upper()]


def parse_angle_deg(text: str) -> float:
    """Parse a finite angle with an explicit unit suffix: '5d' degrees, '60s'
    arcsec."""
    t = text.strip()
    if not t.endswith(("d", "s")):
        raise ValidationError(f"angle {text!r} needs a unit suffix ('d' or 's')")
    try:
        value = float(t[:-1])
    except ValueError:
        raise ValidationError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"angle {text!r} must be finite")
    return value if t.endswith("d") else value / ARCSEC_PER_DEG


def fmt_bytes(n: float) -> str:
    """Human-readable decimal size, e.g. 1.2e14 -> '120.0 TB'."""
    for suffix, factor in (("PB", 1e15), ("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(n) >= factor:
            return f"{n / factor:.4g} {suffix}"
    return f"{n:.4g} B"
