"""Saturating counters, the workhorse state element of every table here."""

from __future__ import annotations


class SaturatingCounter:
    """An integer counter clamped to ``[minimum, maximum]``.

    Used for Alecto's Dead Counter (7-bit saturating, Section IV-C), for
    stride-confidence bits, and for PPF-style perceptron weights.
    """

    __slots__ = ("_value", "minimum", "maximum")

    def __init__(self, value: int = 0, minimum: int = 0, maximum: int = 255):
        if minimum > maximum:
            raise ValueError(f"minimum {minimum} > maximum {maximum}")
        self.minimum = minimum
        self.maximum = maximum
        self._value = self._clamp(value)

    def _clamp(self, value: int) -> int:
        return max(self.minimum, min(self.maximum, value))

    @property
    def value(self) -> int:
        return self._value

    # increment/decrement inline _clamp: they run on every prefetcher
    # training call, where the extra method call is measurable.

    def increment(self, amount: int = 1) -> int:
        """Add ``amount`` (saturating) and return the new value."""
        value = self._value + amount
        if value > self.maximum:
            value = self.maximum
        elif value < self.minimum:
            value = self.minimum
        self._value = value
        return value

    def decrement(self, amount: int = 1) -> int:
        """Subtract ``amount`` (saturating) and return the new value."""
        value = self._value - amount
        if value < self.minimum:
            value = self.minimum
        elif value > self.maximum:
            value = self.maximum
        self._value = value
        return value

    def reset(self, value: int = 0) -> None:
        self._value = self._clamp(value)

    @property
    def saturated_high(self) -> bool:
        return self._value == self.maximum

    @property
    def saturated_low(self) -> bool:
        return self._value == self.minimum

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return (
            f"SaturatingCounter({self._value}, "
            f"minimum={self.minimum}, maximum={self.maximum})"
        )
