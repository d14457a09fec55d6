"""Named exact results with provenance."""
from __future__ import annotations

import json
from dataclasses import dataclass

CLOSED_FORM = "closed-form"
ORACLE = "oracle"

# The at-most-k statistics, read off the at-most-k set; the rest of the
# StatReport names (g, c, s, s^m) belong to the exactly-k set.
AT_MOST_STATS = ("g<=", "c<=", "s<=")


@dataclass(frozen=True)
class StatReport:
    """One exact statistic of a representation set.

    value is None exactly when the statistic belongs to an empty set (for
    example the maximum of an empty gap set).  Numeric output renders that
    as -1 with an explicit "empty" marker.
    """

    stat: str  # g | c | s | s^m | g<= | c<= | s<=
    params: tuple[int, ...]
    k: int
    value: int | None
    m: int | None = None
    provenance: str = CLOSED_FORM

    def to_json_dict(self) -> dict:
        d: dict = {"stat": self.stat}
        if len(self.params) == 2:
            d["a"], d["b"] = self.params
        else:
            d["params"] = list(self.params)
        d["k"] = self.k
        if self.m is not None:
            d["m"] = self.m
        # Big values always travel as decimal strings.
        d["value"] = str(self.value) if self.value is not None else "-1"
        if self.value is None:
            d["empty"] = True
        d["provenance"] = self.provenance
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    def to_csv(self) -> str:
        """The header line, then this report's row: params space-separated,
        the value as in JSON."""
        params = " ".join(map(str, self.params))
        m = "" if self.m is None else self.m
        value = self.to_json_dict()["value"]
        row = f"{self.stat},{params},{self.k},{m},{value},{self.provenance}"
        return f"stat,params,k,m,value,provenance\n{row}"

    def to_plain(self) -> str:
        args = ",".join(str(a) for a in self.params)
        label = f"{self.stat}_{self.k}({args})"
        if self.m is not None:
            label = f"{self.stat.replace('m', str(self.m))}_{self.k}({args})"
        value = "empty" if self.value is None else str(self.value)
        return f"{label} = {value}  ({self.provenance})"
