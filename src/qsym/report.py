"""Pass/fail records produced by the identity-verification operations.

A report is a flat list of records, one per checked or skipped instance.
Failure is data, not an exception: callers inspect .passed and
.first_failure.  A skipped instance is neither a pass nor a failure.
"""

from __future__ import annotations

# Sets a field of a Frozen instance; only the class's __init__ calls it.
set_field = object.__setattr__


class Frozen:
    """Base of the immutable value classes: a subclass names its fields in
    __slots__ and sets them in __init__ with set_field.  Instances compare,
    hash and print by their fields in order, and refuse assignment."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CheckRecord(Frozen):
    # status is "pass", "fail" or "skip"
    __slots__ = ("identity", "status", "params", "detail")

    def __init__(self, identity: str, status: str, params: dict = None,
                 detail: str = ""):
        set_field(self, "identity", identity)
        set_field(self, "status", status)
        set_field(self, "params", {} if params is None else params)
        set_field(self, "detail", detail)

    def to_json_dict(self) -> dict:
        d = {"identity": self.identity}
        d.update(self.params)
        d["status"] = self.status
        if self.detail:
            d["detail"] = self.detail
        return d


class CheckReport:
    """Ordered collection of check records with merge and summary helpers."""

    def __init__(self, records=()):
        self.records = list(records)

    def add_pass(self, identity: str, **params):
        self.records.append(CheckRecord(identity, "pass", params))

    def add_fail(self, identity: str, detail: str = "", **params):
        self.records.append(CheckRecord(identity, "fail", params, detail))

    def add_skip(self, identity: str, **params):
        self.records.append(CheckRecord(identity, "skip", params))

    def check(self, identity: str, ok: bool, detail="", **params):
        """Record a pass or a fail.  detail is a string or a function that
        returns one; a function is called only on failure, so a passing
        check never renders its operands."""
        if ok:
            self.add_pass(identity, **params)
        else:
            self.add_fail(identity, detail() if callable(detail) else detail,
                          **params)
        return ok

    def merge(self, other: "CheckReport") -> "CheckReport":
        self.records.extend(other.records)
        return self

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    @property
    def first_failure(self):
        for r in self.records:
            if r.status == "fail":
                return r
        return None

    def to_json(self) -> str:
        import json
        return json.dumps([r.to_json_dict() for r in self.records],
                          separators=(",", ":"))

    def summary_lines(self):
        """One line per identity: ok/FAIL/skip, the identity, and passed out of
        all instances; skip marks an identity whose instances all were."""
        by_identity = {}
        for r in self.records:
            by_identity.setdefault(r.identity, []).append(r)
        lines = []
        for name, recs in by_identity.items():
            passes = sum(r.status == "pass" for r in recs)
            if any(r.status == "fail" for r in recs):
                mark = "FAIL"
            elif all(r.status == "skip" for r in recs):
                mark = "skip"
            else:
                mark = "ok  "
            lines.append(f"{mark} {name} ({passes}/{len(recs)} instances)")
        return lines
