"""Verification reports shared by every checker and by the CLI."""

from __future__ import annotations

from .values import Value


class Violation(Value):
    """One failed identity: where, and the text of its two sides."""

    __slots__ = ("context", "lhs", "rhs")
    _fields = __slots__

    def __init__(self, context, lhs, rhs):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class VerificationReport(Value):
    """Outcome of one verification sweep.

    ``status`` is ``fail`` when any violation was recorded, ``inconclusive``
    when a bounded search could neither confirm nor refute, and ``pass``
    otherwise.  ``notes`` are human-readable remarks that do not affect the
    status (and are not part of the JSON contract).  Unlike the other value
    classes, a report is mutable and unhashable; ``params``,
    ``violations`` and ``notes`` default to a new dict or list.
    """

    _fields = ("suite", "params", "violations", "inconclusive", "notes")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, suite, params=None, violations=None, inconclusive=False, notes=None):
        self.suite = suite
        self.params = {} if params is None else params
        self.violations = [] if violations is None else violations
        self.inconclusive = inconclusive
        self.notes = [] if notes is None else notes

    def record(self, context, lhs, rhs):
        self.violations.append(Violation(context, str(lhs), str(rhs)))

    def merge(self, other):
        """Fold another report's findings in; params stay the caller's own."""
        self.violations.extend(other.violations)
        self.inconclusive = self.inconclusive or other.inconclusive
        self.notes.extend(other.notes)
        return self

    @property
    def passed(self):
        return not self.violations and not self.inconclusive

    @property
    def status(self):
        if self.violations:
            return "fail"
        if self.inconclusive:
            return "inconclusive"
        return "pass"

    @property
    def exit_code(self):
        return {"pass": 0, "fail": 1, "inconclusive": 2}[self.status]

    def to_dict(self):
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "status": self.status,
            "violations": [
                {"context": v.context, "lhs": v.lhs, "rhs": v.rhs}
                for v in sorted(self.violations, key=lambda v: v.context)
            ],
        }

    def summary(self):
        bits = [f"suite={self.suite}"]
        bits += [f"{k}={v}" for k, v in self.params.items()]
        bits.append(f"status={self.status}")
        bits.append(f"violations={len(self.violations)}")
        return " ".join(bits)

    def render_text(self):
        lines = [self.summary()]
        for v in sorted(self.violations, key=lambda v: v.context):
            lines.append(f"  VIOLATION {v.context}: lhs = {v.lhs} ; rhs = {v.rhs}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
