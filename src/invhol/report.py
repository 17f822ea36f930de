"""Pass/fail check reports with witnesses.

Verification operations return a CheckReport rather than raising: each named
check records ok/fail plus a witness string describing the first failure.
Reports render deterministically (insertion order, no timestamps).
"""

from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    ok: bool
    witness: str | None = None
    detail: str | None = None


@dataclass
class CheckReport:
    title: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name, ok, witness=None, detail=None):
        self.checks.append(Check(name, bool(ok), witness, detail))
        return ok

    def first_failure(self, name, witnesses, detail=None):
        """Record the first witness string the iterable yields as a failure,
        or a pass when it yields none; the rest is never evaluated."""
        w = next(iter(witnesses), None)
        return self.add(name, w is None, w, detail)

    def note(self, text):
        self.notes.append(text)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def lines(self):
        out = [f"== {self.title} =="]
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            line = f"  [{status}] {c.name}"
            if c.detail:
                line += f" ({c.detail})"
            if c.witness and not c.ok:
                line += f" -- witness: {c.witness}"
            out.append(line)
        for n in self.notes:
            out.append(f"  note: {n}")
        out.append(f"  result: {'all checks pass' if self.ok else 'CHECK FAILURES'}")
        return out

    def render(self):
        return "\n".join(self.lines())

    def to_dict(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "witness": c.witness, "detail": c.detail}
                for c in self.checks
            ],
            "notes": list(self.notes),
        }
