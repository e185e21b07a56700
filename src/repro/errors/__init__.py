"""Error model: injection, detection, handling strategies."""

from .detect import DetectionResult, Violation, detect_errors
from .handle import (
    DataIntegrityError,
    HandlingOutcome,
    Strategy,
    apply_strategy,
)
from .stream import BatchGuard, Guard, GuardStats, RowVerdict
from .inject import (
    InjectedError,
    InjectionReport,
    inject_errors,
    resolve_error_count,
)

__all__ = [
    "Guard",
    "RowVerdict",
    "GuardStats",
    "DetectionResult",
    "Violation",
    "detect_errors",
    "DataIntegrityError",
    "HandlingOutcome",
    "Strategy",
    "apply_strategy",
    "InjectedError",
    "InjectionReport",
    "inject_errors",
    "resolve_error_count",
]
