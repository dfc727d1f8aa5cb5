"""Communication metrics for protocol runs, and Prometheus exposition.

``NetworkMetrics`` counts messages and (estimated) bytes per round and
distinguishes broadcast from point-to-point traffic.  A round in which no
player sends anything does not count as a *communication round* — this is
how "Pedersen's DKG takes one round in the optimistic case" is measured.

The Prometheus half (:class:`MetricFamily`, :class:`Histogram`,
:func:`render_prometheus`) renders the text exposition format (version
0.0.4) a real scraper ingests — ``# HELP`` / ``# TYPE`` comments,
escaped label values, and the ``_bucket``/``_sum``/``_count`` triplet
for histograms.  What is exported is declared once, on the stats field
that holds it: :func:`metric` puts a family's name, type and HELP text
into the field's metadata, :func:`walked` marks a field holding nested
stats records, and :func:`collect` walks those declarations into
families — so the gateway's ``GET /metrics`` keeps no code per metric.
:func:`parse_prometheus` reads an exposition back, strictly; the
gateway tests and ``tools/serve_smoke.py`` gate the format with it.
It is all deliberately tiny and dependency-free.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)


def estimate_size(payload) -> int:
    """Rough wire size of a message payload in bytes.

    Group elements know their encoded size; scalars count as 32 bytes
    (Z_p for a 254-bit order); containers are summed recursively.
    """
    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return 32
    if isinstance(payload, float):
        return 8
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, dict):
        return sum(
            estimate_size(k) + estimate_size(v) for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(estimate_size(item) for item in payload)
    to_bytes = getattr(payload, "to_bytes", None)
    if callable(to_bytes):
        return len(to_bytes())
    # Dataclass-like fallback: sum over public attributes.
    attrs = getattr(payload, "__dict__", None)
    if attrs:
        return sum(estimate_size(v) for v in attrs.values())
    slots = getattr(payload, "__slots__", None)
    if slots:
        return sum(
            estimate_size(getattr(payload, s)) for s in slots
            if hasattr(payload, s))
    raise TypeError(f"cannot estimate wire size of {type(payload)!r}")


@dataclass
class TrafficCounter:
    """Message/byte accounting for a request stream.

    The protocol simulator counts per-round traffic via
    :class:`NetworkMetrics`; a simulated network has no rounds, so it
    meters its links with one of these, in the same :func:`estimate_size`
    bytes the protocol tables report.
    """

    messages: int = 0
    bytes_total: int = 0


@dataclass
class RoundMetrics:
    messages: int = 0
    broadcasts: int = 0
    point_to_point: int = 0
    bytes_total: int = 0


@dataclass
class NetworkMetrics:
    """Aggregated communication statistics for one protocol execution."""

    rounds: List[RoundMetrics] = field(default_factory=list)

    def record(self, round_no: int, is_broadcast: bool, size: int) -> None:
        while len(self.rounds) <= round_no:
            self.rounds.append(RoundMetrics())
        entry = self.rounds[round_no]
        entry.messages += 1
        entry.bytes_total += size
        if is_broadcast:
            entry.broadcasts += 1
        else:
            entry.point_to_point += 1

    @property
    def total_messages(self) -> int:
        return sum(r.messages for r in self.rounds)

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes_total for r in self.rounds)

    @property
    def communication_rounds(self) -> int:
        """Rounds in which at least one message was sent."""
        return sum(1 for r in self.rounds if r.messages > 0)

    def summary(self) -> Dict[str, int]:
        return {
            "communication_rounds": self.communication_rounds,
            "messages": self.total_messages,
            "bytes": self.total_bytes,
        }


# ---------------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4)
# ---------------------------------------------------------------------------

#: Latency bucket upper bounds in milliseconds.  Chosen for the service's
#: observed range (sub-ms toy-backend windows up to multi-second bn254
#: robust combines); ``+Inf`` is implicit and always rendered last.
DEFAULT_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 10000.0,
)


def escape_help(text: str) -> str:
    """Escape a HELP string: backslash and newline only (the spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(value: str) -> str:
    """Escape a label value: backslash, double-quote, newline."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def format_value(value: float) -> str:
    """Render a sample value: integers without a decimal point, floats
    with ``repr`` precision, infinities in Prometheus spelling."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def format_sample(name: str, labels: Mapping[str, str],
                  value: float) -> str:
    """One exposition line: ``name{k="v",...} value``."""
    if labels:
        rendered = ",".join(
            f'{key}="{escape_label_value(str(labels[key]))}"'
            for key in labels)
        return f"{name}{{{rendered}}} {format_value(value)}"
    return f"{name} {format_value(value)}"


@dataclass
class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics).

    ``observe`` is O(buckets); the exposition renders the cumulative
    ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.  Buckets
    are upper bounds in the observed unit (milliseconds here).
    """

    buckets: Sequence[float] = DEFAULT_BUCKETS_MS
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self):
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[position] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    def samples(self, name: str,
                labels: Mapping[str, str] = ()) -> List[str]:
        """The rendered sample lines for this histogram."""
        labels = dict(labels or {})
        lines = []
        cumulative = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            cumulative += bucket_count
            lines.append(format_sample(
                f"{name}_bucket", {**labels, "le": format_value(bound)},
                cumulative))
        cumulative += self.counts[-1]
        lines.append(format_sample(
            f"{name}_bucket", {**labels, "le": "+Inf"}, cumulative))
        lines.append(format_sample(f"{name}_sum", labels, self.total))
        lines.append(format_sample(f"{name}_count", labels, self.count))
        return lines


@dataclass
class MetricFamily:
    """One named metric with HELP/TYPE metadata and its samples.

    ``kind`` is a Prometheus type (``counter``, ``gauge``,
    ``histogram``).  For counters and gauges, ``samples`` is a list of
    ``(labels, value)`` pairs; for histograms it is a list of
    ``(labels, Histogram)`` pairs — one full bucket series per label
    set.
    """

    name: str
    kind: str
    help: str
    samples: List[Tuple[Mapping[str, str], object]] = field(
        default_factory=list)

    def add(self, labels: Mapping[str, str], value) -> "MetricFamily":
        self.samples.append((dict(labels), value))
        return self

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for labels, value in self.samples:
            if isinstance(value, Histogram):
                lines.extend(value.samples(self.name, labels))
            else:
                lines.append(format_sample(self.name, labels, value))
        return lines


def render_prometheus(families: Iterable[MetricFamily]) -> str:
    """The full exposition body.  Families with no samples are skipped
    (a family is its samples; HELP/TYPE for nothing is noise), and the
    body ends with the trailing newline scrapers expect."""
    lines: List[str] = []
    for family in families:
        if family.samples:
            lines.extend(family.render())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Declared telemetry: each exported stats field names its own family
# ---------------------------------------------------------------------------

#: The ``dataclasses.field`` metadata key the declarations live under.
_DECLARED = "prometheus"


@dataclass(frozen=True)
class Metric:
    """What one stats field exports: the family's name, Prometheus type
    and HELP text, the fixed ``labels`` its samples carry, and ``key``
    — the label names of a dict-valued field's keys (a tuple key fills
    several labels)."""

    name: str
    kind: str
    help: str
    labels: Tuple[Tuple[str, str], ...] = ()
    key: Tuple[str, ...] = ()

    def add_to(self, families: Dict[str, MetricFamily],
               labels: Tuple[Tuple[str, str], ...], value) -> None:
        """Add ``value``'s samples under ``labels`` (the labels of the
        records holding it) to this metric's family in ``families``.
        A keyed value is a dict, rendered in key order, or a sequence
        of ``(key, value)`` pairs, rendered as given.  A histogram's
        value is a :class:`Histogram` or a list of observations; a
        float counter renders to the microsecond of a millisecond."""
        family = families.setdefault(
            self.name, MetricFamily(self.name, self.kind, self.help))
        series = [(labels, value)]
        if self.key:
            pairs = sorted(value.items()) if isinstance(value, dict) \
                else value
            series = [
                (labels + tuple(zip(self.key, map(str, (
                    key if isinstance(key, tuple) else (key,))))), sample)
                for key, sample in pairs]
        for series_labels, sample in series:
            if self.kind == "histogram" and \
                    not isinstance(sample, Histogram):
                observations, sample = sample, Histogram()
                for observation in observations:
                    sample.observe(observation)
            elif isinstance(sample, float):
                sample = round(sample, 3)
            family.add(dict(series_labels + self.labels), sample)


def metric(name: str, help: str, kind: str = "counter", *,
           key=(), labels: Optional[Mapping[str, str]] = None, default=0,
           default_factory=None):
    """A dataclass field exported as (one series of) the family
    ``name``.  Several fields may declare one family, each with its
    own fixed ``labels``; the first declaration's HELP text is the
    one rendered.  A keyed field (``key="tenant"``) holds a dict and
    defaults to an empty one; a histogram without a key defaults to an
    empty list of observations."""
    spec = Metric(name, kind, help, tuple((labels or {}).items()),
                  (key,) if isinstance(key, str) else tuple(key))
    if default_factory is None and (spec.key or kind == "histogram"):
        default_factory = dict if spec.key else list
    if default_factory is not None:
        return field(default_factory=default_factory,
                     metadata={_DECLARED: spec})
    return field(default=default, metadata={_DECLARED: spec})


def walked(key: str = "", **field_args):
    """A dataclass field holding a stats record whose own declarations
    are walked — or, with ``key``, a dict of records, each walked with
    its dict key as label ``key``.  A ``None`` record exports nothing."""
    return field(metadata={_DECLARED: key}, **field_args)


def declarations(record_type) -> Dict[str, object]:
    """``{field name: Metric or walked label}`` for every declared
    field of a stats dataclass (an instance or the class)."""
    return {spec_field.name: spec_field.metadata[_DECLARED]
            for spec_field in fields(record_type)
            if _DECLARED in spec_field.metadata}


def collect(record, labels: Tuple[Tuple[str, str], ...] = (),
            families: Optional[Dict[str, MetricFamily]] = None
            ) -> Dict[str, MetricFamily]:
    """Every family ``record``'s declarations export, walked in field
    order into ``families`` (created when None) and returned.  A
    family keeps the place of its first sample and gathers every later
    one, so a dict of records renders family by family, each family
    record by record in key order."""
    families = {} if families is None else families
    for name, spec in declarations(record).items():
        value = getattr(record, name)
        if isinstance(spec, Metric):
            spec.add_to(families, labels, value)
        elif value is None:
            continue
        elif spec:
            for key in sorted(value):
                collect(value[key], labels + ((spec, str(key)),), families)
        else:
            collect(value, labels, families)
    return families


# ---------------------------------------------------------------------------
# Parsing an exposition back
# ---------------------------------------------------------------------------

#: One ``key="value"`` label pair, the value with its escapes.
_LABEL = r'(\w+)="((?:[^"\\]|\\.)*)"'
_LABELS = re.compile(rf"(?:{_LABEL},)*{_LABEL}")


def _parse_labels(blob: str) -> Tuple[Tuple[str, str], ...]:
    """``k="v",...`` -> sorted tuple of ``(key, unescaped value)``."""
    if not _LABELS.fullmatch(blob):
        raise ValueError(f"malformed labels {{{blob}}}")
    return tuple(sorted(
        (key, re.sub(r"\\(.)", lambda escape: "\n" if escape[1] == "n"
                     else escape[1], value))
        for key, value in re.findall(_LABEL, blob)))


def parse_prometheus(text: str) -> Dict[str, dict]:
    """Parse a text exposition strictly, line by line.

    Returns ``{family: {"help": ..., "type": ..., "samples":
    {(sample name, sorted label pairs): value}}}``.  Raises
    :class:`ValueError` on a structural fault: no trailing newline, a
    blank line, a family given twice, a TYPE not right after its HELP,
    an unknown type, a family without a TYPE, a sample outside its
    family's block or before its TYPE, malformed labels, an unparseable
    value or a sample given twice."""
    if not text.endswith("\n"):
        raise ValueError("exposition lacks its trailing newline")
    families: Dict[str, dict] = {}
    current = None
    for line in text.splitlines():
        if not line:
            raise ValueError("blank line in exposition")
        if line.startswith("# HELP "):
            _, _, name, help_text = (line.split(" ", 3) + [""])[:4]
            if name in families:
                raise ValueError(f"family {name} given twice")
            families[name] = {"help": help_text, "type": None,
                              "samples": {}}
            current = name
        elif line.startswith("# TYPE "):
            _, _, name, kind = (line.split(" ", 3) + [""])[:4]
            if name != current or families[name]["type"] is not None:
                raise ValueError(f"TYPE for {name} does not follow its HELP")
            if kind not in ("counter", "gauge", "histogram"):
                raise ValueError(f"unknown type {kind!r} for {name}")
            families[name]["type"] = kind
        else:
            name_part, _, value_part = line.rpartition(" ")
            name, brace, blob = name_part.partition("{")
            if brace and not blob.endswith("}"):
                raise ValueError(f"malformed sample {line!r}")
            labels = _parse_labels(blob[:-1]) if brace else ()
            family = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[:-len(suffix)] in families:
                    family = name[:-len(suffix)]
            if current is None or family != current:
                raise ValueError(f"sample {name} outside its family block")
            if families[family]["type"] is None:
                raise ValueError(f"sample {name} before its family's TYPE")
            try:
                value = float(value_part.replace("+Inf", "inf"))
            except ValueError:
                raise ValueError(f"unparseable sample {line!r}") from None
            samples = families[family]["samples"]
            if (name, labels) in samples:
                raise ValueError(f"sample {name_part} given twice")
            samples[(name, labels)] = value
    for name, family in families.items():
        if family["type"] is None:
            raise ValueError(f"family {name} has no TYPE")
    return families
