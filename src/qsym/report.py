"""Pass/fail records produced by the identity-verification operations.

A report is a flat list of records, one per checked or skipped instance.
Failure is data, not an exception: callers inspect .passed and
.first_failure.  A skipped instance is neither a pass nor a failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckRecord:
    identity: str
    status: str                 # "pass", "fail" or "skip"
    params: dict = field(default_factory=dict)
    detail: str = ""

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

    def check(self, identity: str, ok: bool, detail: str = "", **params):
        if ok:
            self.add_pass(identity, **params)
        else:
            self.add_fail(identity, detail, **params)
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
