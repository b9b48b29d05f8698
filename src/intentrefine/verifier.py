"""Symbolic flow verifier: replay a synthetic flow against deployed artifacts.

No packets are processed. A device blocks the flow when one of its rules
matches it as its renderer's test reads the rendered rule
(translator.rule_matches). The flow's HTTP host is shown only to a control
that inspects the application layer. Each path is blocked at its first
blocking device.

Paths are never built. Every path is a product of segment routes
(topology.route_segments), so each segment route is formatted once, as the
ids' reprs joined by ", ", and decided once, at its first blocking node.
evaluate_flow returns these segment verdicts as the Report. The verdict
comes from the segments alone: some path passes unless some segment has no
route that passes. The report is the routes' product, which route_segments
yields in path order, split once into heads and tails, each one str.join
of its routes. It is formatted as it is read, one block of lines at a
time: each head's lines are one join of the head's route into text built
once from the tails. So verify costs time in proportion to what it prints,
and holds no list of paths, verdicts or lines: beside the segments, only
about the square root of the paths' joined routes, and one block of about
as many lines (README, "Verify").
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from . import converter, translator
from . import topology as topo
from .capability import Catalog, LAYER_APPLICATION
from .errors import LazyLogger, UnknownControl, ValidationError
from .refiner import RuleArtifact
from .topology import Topology

logger = LazyLogger(__name__)


class FlowSpec(namedtuple("FlowSpec", "src_ip dst_ip l7_host")):
    """Two distinct IPv4 addresses, and an optional HTTP host."""

    __slots__ = ()

    def __new__(cls, src_ip, dst_ip, l7_host=None):
        topo.require_ipv4(src_ip, "flow source")
        topo.require_ipv4(dst_ip, "flow destination")
        if src_ip == dst_ip:
            raise ValidationError("flow source and destination must differ")
        return super().__new__(cls, src_ip, dst_ip, l7_host)


def _split(parts: list[list[tuple]]):
    """The joinings of `parts`, one of each part's (route, device), as heads
    read one at a time and a list of tails: each joining, in order, is a
    head's route followed by a tail's text, and has the head's device, or
    the tail's when the head has none.

    The tails are the joinings of the longest suffix of `parts`, short of
    the first part, that has no more joinings than the rest, each as its
    routes, each after ", ". So about the square root of the joinings is
    held at once. The last part is the object's one subnet route, so it is
    among the tails whenever there is more than one part."""
    total = math.prod(map(len, parts))
    half, count = len(parts), 1
    while half > 1 and (count * len(parts[half - 1])) ** 2 <= total:
        half -= 1
        count *= len(parts[half])
    tails = [("".join(f", {route}" for route, _ in combo),
              next((device for _, device in combo if device), None))
             for combo in itertools.product(*parts[half:])]
    if half == 1:  # one part is its own joinings: joining each route again copies it
        return parts[0], tails
    return ((", ".join(route for route, _ in combo),
             next((device for _, device in combo if device), None))
            for combo in itertools.product(*parts[:half])), tails


class Report:
    """`verify`'s report on a flow, held as the verdicts of each segment's
    routes: each route with its first blocking device, or None when the flow
    passes it. It is read as blocks of whole lines joined by newlines, one
    line for each path in path order, or one warning when there is no path,
    formatted anew on each iteration. A block holds a head's lines (_split),
    or a run of heads' lines when the tails are few, so at most about the
    square root of the lines. A head's lines are one join of its route into
    glue text built from the tails once for each device that blocks a head,
    and once for the heads that pass."""

    __slots__ = ("segments", "subject", "obj")

    def __init__(self, segments: list[list[tuple[str, str | None]]], subject: str, obj: str):
        self.segments, self.subject, self.obj = segments, subject, obj

    def __bool__(self) -> bool:
        """Whether the endpoints are connected, at any number of paths."""
        return bool(self.segments)

    def __len__(self) -> int:
        """The number of paths: the product of the segments' route counts."""
        return math.prod(map(len, self.segments)) if self.segments else 0

    def __iter__(self):
        if not self.segments:
            yield f"warning: no paths between {self.subject} and {self.obj}"
            return
        heads, tails = _split(self.segments)

        def glue(device):
            """The text between the routes in the lines of a head blocked at
            `device`, or passing when it is None: one line's start, then a
            tail's text and that line's end."""
            ats = [device or at for _, at in tails]
            starts = ["BLOCKED path [" if at else "ALLOWED (bypass) path [" for at in ats]
            ends = [f"{text}] at {at}" if at else f"{text}]" for (text, _), at in zip(tails, ats)]
            return [starts[0], *(f"{end}\n{start}" for end, start in zip(ends, starts[1:])),
                    ends[-1]]

        glues = {}  # by the head's device
        heads = iter(heads)
        per_block = max(1, math.isqrt(len(self)) // len(tails))
        while run := list(itertools.islice(heads, per_block)):
            yield "\n".join([head.join(glues.get(device) or glues.setdefault(device, glue(device)))
                             for head, device in run])


def evaluate_flow(
    t: Topology,
    artifacts: list[RuleArtifact],
    catalog: Catalog,
    f: FlowSpec,
    subject: str,
    obj: str,
) -> Report:
    """The Report of the flow from `subject` to `obj`: each segment route
    with its first blocking device, or None when the flow passes it. A
    route is its node ids' reprs joined by ", ", as `repr(list(path))` shows
    a path's between its brackets.

    The deployment is read with the stages' own checks before any device is
    decided: converter.build_mspl, as `convert` runs it, then
    translator.check_policy of each device's policy, in the order `translate`
    reads their files. So a deployment that `convert` or `translate` would
    reject raises their error whatever the flow. Only then must each control
    be in the catalog and each device a topology device listing its control.
    Each device is decided by asking translator.rule_matches about each
    distinct rule shape check_policy returned.
    """
    segments = topo.route_segments(t, subject, obj)
    # The first artifact of each distinct (device, control, capabilities): a
    # later equal one cannot fail before it, nor decide its device otherwise.
    first: dict[tuple, RuleArtifact] = {}
    for a in artifacts:
        first.setdefault((a.device, a.nsf, a.capabilities), a)
    policies = converter.build_mspl(list(first.values()))
    # `translate` reads `<device>.mspl.xml` files in sorted order
    devices = sorted(policies, key=lambda device: f"{device}.mspl.xml")
    shapes = {device: translator.check_policy(policies[device]) for device in devices}
    blocking: set[str] = set()
    for device in devices:
        nsf, rules = policies[device]
        control = catalog.get(nsf)
        if control is None:
            raise UnknownControl(
                f"rule {rules[0].id!r} on {device!r}: control {nsf!r} is not in the catalog"
            )
        node = t.nodes.get(device)
        if node is None or nsf not in node.controls:
            raise ValidationError(
                f"rule {rules[0].id!r}: {device!r} is not a device of topology "
                f"{t.name!r} listing control {nsf!r}"
            )
        host = f.l7_host if control.layer == LAYER_APPLICATION else None
        if any(translator.rule_matches(nsf, rule, f.src_ip, f.dst_ip, host)
               for rule in shapes[device].values()):
            blocking.add(device)
    return Report([
        [(", ".join(map(repr, route)), next(filter(blocking.__contains__, route), None))
         for route in routes]
        for routes in segments
    ], subject, obj)


def verify_deployment(
    t: Topology,
    artifacts: list[RuleArtifact],
    catalog: Catalog,
    f: FlowSpec,
    subject: str,
    obj: str,
) -> tuple[bool, Report]:
    """True iff the flow is blocked on every path, decided from the segments
    before any line is formatted, and the report, which shows any bypass."""
    report = evaluate_flow(t, artifacts, catalog, f, subject, obj)
    if not report:
        logger.warning("no paths between %s and %s; vacuously blocked", subject, obj)
    # A path passes exactly when each of its segment routes does, so some
    # path passes unless some segment has no route that passes.
    blocked = not report or any(
        all(device is not None for _, device in routes) for routes in report.segments)
    return blocked, report
