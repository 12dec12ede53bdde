"""The unified spec-string grammar of the ``repro`` surfaces.

Three CLI/service surfaces accept compact spec strings: ``--faults``
(a chaos script), ``--server-policy`` (fault-tolerance machinery), and
``--machine`` (a machine model).  Historically each grammar lived next
to its dataclass with its own ad-hoc tokenizer; this module is the one
shared parser behind all three, with

* **uniform error messages** — every parse failure raises the
  surface's :class:`~repro.exceptions.SimulationError` subclass with a
  ``bad <what> <text>`` message built by the same helpers;
* **round-trip ``str()`` forms** — :func:`fault_plan_str`,
  :func:`server_policy_str`, and ``str(MachineSpec)`` render a spec
  string that parses back to an equivalent object, so a sweep row can
  always name the exact configuration that produced it.

The legacy entry points (``FaultPlan.parse``, ``ServerPolicy.parse``)
remain supported and delegate here.

This module deliberately imports nothing from :mod:`repro.sim` at
module level (the simulation layer imports *it* for
:class:`MachineSpec`), so it stays cycle-free; the fault/server-policy
parsers import their target dataclasses lazily.

Machine spec grammar (``docs/MACHINES.md``)::

    KIND                   ideal | bsp | memcap | hetero
    KIND:key=val,key=val   keyword parameters, per kind:
      bsp      g=0.5,L=1.0       per-unit comm cost g, barrier latency L
      memcap   cap=3,spill=2.0   per-client memory slots, forced-spill cost
      hetero   spread=0.5,seed=0 duration jitter fraction, draw seed

Examples: ``bsp``, ``bsp:g=1.0,L=2.0``, ``memcap:cap=2``,
``hetero:spread=0.3,seed=7``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import FaultPlanError, MachineSpecError, ServerPolicyError

__all__ = [
    "MACHINE_KINDS",
    "MachineSpec",
    "fault_plan_str",
    "parse_fault_plan",
    "parse_machine",
    "parse_server_policy",
    "server_policy_str",
]


# ----------------------------------------------------------------------
# shared scalar helpers (uniform error messages)
# ----------------------------------------------------------------------


def _parse_float(text: str, what: str, error=FaultPlanError) -> float:
    try:
        return float(text)
    except ValueError:
        raise error(f"bad {what} {text!r}") from None


def _parse_int(text: str, what: str, error=FaultPlanError) -> int:
    try:
        return int(text)
    except ValueError:
        raise error(f"bad {what} {text!r}") from None


def _parse_at(text: str, what: str,
              error=FaultPlanError) -> tuple[int, str]:
    cid, sep, t = text.partition("@")
    if not sep:
        raise error(f"{what} token needs CID@TIME, got {text!r}")
    return _parse_int(cid, f"{what} client", error), t


def _parse_x(text: str, token: str, default: float | None = None,
             error=FaultPlanError):
    """Split ``AxB`` into floats; ``A`` alone uses ``default`` for B."""
    a, sep, b = text.partition("x")
    t = _parse_float(a, f"time in {token!r}", error)
    if sep:
        return t, _parse_float(b, f"value in {token!r}", error)
    if default is None:
        raise error(f"token {token!r} needs TIMExVALUE")
    return t, default


def _num(x: float) -> str:
    """Render a float minimally but round-trippably (``2`` not ``2.0``
    when integral, full ``repr`` otherwise)."""
    x = float(x)
    return str(int(x)) if x.is_integer() else repr(x)


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------


def parse_fault_plan(spec: str, n_clients: int = 4):
    """Parse a ``--faults`` spec into a
    :class:`~repro.sim.faults.FaultPlan`.

    Either a scenario name with optional seed — ``churn`` /
    ``churn:seed=3`` — or a comma-separated event list::

        crash:CID@T          client CID dies at time T
        stall:CID@TxDUR      client CID stalls for DUR at time T
        join@T  join@TxSPD   a client (speed SPD) joins at time T
        corrupt=RATE         corrupt each result with prob. RATE
        seed=N               the plan's private random seed

    Example: ``crash:0@2,stall:1@1.5x4,join@5x2.0,corrupt=0.1``.
    """
    from ..sim.faults import FAULT_SCENARIOS, FaultEvent, FaultPlan
    from ..sim.server import ClientSpec

    spec = spec.strip()
    if not spec:
        raise FaultPlanError("empty fault spec")
    head, _, tail = spec.partition(":")
    if head in FAULT_SCENARIOS:
        seed = 0
        if tail:
            key, _, val = tail.partition("=")
            if key != "seed":
                raise FaultPlanError(
                    f"scenario option must be seed=N, got {tail!r}"
                )
            seed = _parse_int(val, "scenario seed")
        return FaultPlan.scenario(head, n_clients=n_clients, seed=seed)
    events: list = []
    corrupt = 0.0
    seed = 0
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith("corrupt="):
            corrupt = _parse_float(token[8:], "corrupt rate")
        elif token.startswith("seed="):
            seed = _parse_int(token[5:], "plan seed")
        elif token.startswith("crash:"):
            cid, t = _parse_at(token[6:], "crash")
            events.append(FaultEvent(
                time=_parse_float(t, "crash time"), kind="crash",
                client=cid))
        elif token.startswith("stall:"):
            cid, t = _parse_at(token[6:], "stall")
            t, dur = _parse_x(t, token)
            events.append(FaultEvent(time=t, kind="stall",
                                     client=int(cid), duration=dur))
        elif token.startswith("join@"):
            t, speed = _parse_x(token[5:], token, default=1.0)
            events.append(FaultEvent(
                time=t, kind="join", spec=ClientSpec(speed=speed)))
        else:
            raise FaultPlanError(
                f"bad fault token {token!r} (try crash:0@2, "
                "stall:1@1.5x4, join@5, corrupt=0.1, seed=7, or a "
                f"scenario name: {sorted(FAULT_SCENARIOS)})"
            )
    return FaultPlan(events=tuple(events), corrupt_rate=corrupt,
                     seed=seed, name="custom")


def fault_plan_str(plan) -> str:
    """Render a :class:`~repro.sim.faults.FaultPlan` as a spec string
    :func:`parse_fault_plan` accepts.

    Round trip: the parsed plan has identical ``events``,
    ``corrupt_rate``, and ``seed``; the presentation ``name`` of
    scenario-built plans normalizes to ``"custom"`` (the event list,
    not the label, is the behavior).  Joined clients render only their
    speed — the grammar's expressiveness — which covers every plan the
    grammar itself can build.
    """
    tokens: list[str] = []
    for ev in plan.events:
        if ev.kind == "crash":
            tokens.append(f"crash:{ev.client}@{_num(ev.time)}")
        elif ev.kind == "stall":
            tokens.append(
                f"stall:{ev.client}@{_num(ev.time)}x{_num(ev.duration)}"
            )
        elif ev.kind == "join":
            speed = ev.spec.speed if ev.spec is not None else 1.0
            tokens.append(f"join@{_num(ev.time)}x{_num(speed)}")
    if plan.corrupt_rate:
        tokens.append(f"corrupt={_num(plan.corrupt_rate)}")
    if plan.seed:
        tokens.append(f"seed={plan.seed}")
    return ",".join(tokens) if tokens else "seed=0"


# ----------------------------------------------------------------------
# server policies
# ----------------------------------------------------------------------


def parse_server_policy(spec: str):
    """Parse a ``--server-policy`` spec into a
    :class:`~repro.sim.faults.ServerPolicy`: comma-separated
    ``key=value`` with keys ``timeout``, ``retries``, ``backoff``,
    ``jitter``, ``speculate`` (a factor, or ``off``), ``replicas``,
    ``critical``, ``quarantine``.  An empty spec is the default
    policy.  Example: ``timeout=4,retries=3,speculate=off``.
    """
    from ..sim.faults import ServerPolicy

    kwargs: dict = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        key, sep, val = token.partition("=")
        if not sep or key not in ServerPolicy._PARSE_KEYS:
            raise ServerPolicyError(
                f"bad server-policy token {token!r}; known keys: "
                f"{sorted(ServerPolicy._PARSE_KEYS)}"
            )
        field_name, conv = ServerPolicy._PARSE_KEYS[key]
        if key == "speculate" and val.lower() in ("off", "none"):
            kwargs[field_name] = None
            continue
        try:
            kwargs[field_name] = conv(val)
        except ValueError:
            raise ServerPolicyError(
                f"bad value {val!r} for server-policy key {key!r}"
            ) from None
    return ServerPolicy(**kwargs)


def server_policy_str(policy) -> str:
    """Render a :class:`~repro.sim.faults.ServerPolicy` as a spec
    string; ``parse_server_policy(server_policy_str(p)) == p``."""
    from ..sim.faults import ServerPolicy

    tokens = []
    for key, (field_name, _conv) in ServerPolicy._PARSE_KEYS.items():
        val = getattr(policy, field_name)
        tokens.append(
            f"{key}=off" if val is None else f"{key}={_num(val)}"
        )
    return ",".join(tokens)


# ----------------------------------------------------------------------
# machine specs
# ----------------------------------------------------------------------

#: machine kinds and their parameter schema: kind -> {key: default}.
#: ``seed`` is carried as a float here (one uniform scalar type for
#: the grammar) and converted to ``int`` when the model is built.
MACHINE_KINDS: dict[str, dict[str, float]] = {
    "ideal": {},
    "bsp": {"g": 0.5, "L": 1.0},
    "memcap": {"cap": 3.0, "spill": 2.0},
    "hetero": {"spread": 0.5, "seed": 0.0},
}


@dataclass(frozen=True)
class MachineSpec:
    """A parsed, validated machine-model configuration.

    The value half of the pluggable machine layer
    (``docs/MACHINES.md``): a ``kind`` from :data:`MACHINE_KINDS` plus
    normalized ``(key, value)`` parameter pairs.  Hashable and frozen,
    with a round-trip ``str()`` form — ``MachineSpec.parse(str(s)) ==
    s`` — so results can carry the exact machine they ran under as a
    plain string.  :meth:`build` constructs the runtime
    :class:`~repro.sim.machines.MachineModel`.
    """

    kind: str = "ideal"
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in MACHINE_KINDS:
            raise MachineSpecError(
                f"unknown machine kind {self.kind!r}; known: "
                f"{sorted(MACHINE_KINDS)}"
            )
        allowed = MACHINE_KINDS[self.kind]
        seen: set[str] = set()
        norm: list[tuple[str, float]] = []
        for key, val in self.params:
            if key not in allowed:
                raise MachineSpecError(
                    f"unknown key {key!r} for machine {self.kind!r}; "
                    f"known: {sorted(allowed) if allowed else '(none)'}"
                )
            if key in seen:
                raise MachineSpecError(
                    f"duplicate key {key!r} in machine spec"
                )
            seen.add(key)
            norm.append((key, float(val)))
        object.__setattr__(self, "params", tuple(sorted(norm)))
        self._validate()

    def _validate(self) -> None:
        if self.kind == "bsp":
            if self.get("g") < 0 or self.get("L") < 0:
                raise MachineSpecError(
                    "bsp g and L must be >= 0, got "
                    f"g={self.get('g')}, L={self.get('L')}"
                )
        elif self.kind == "memcap":
            if self.get("cap") < 1:
                raise MachineSpecError(
                    "memcap cap must be >= 1 (a client needs one slot "
                    f"to run anything), got {self.get('cap')}"
                )
            if not self.get("spill") > 0:
                raise MachineSpecError(
                    "memcap spill cost must be > 0 (the forced-spill "
                    "valve must consume time so runs stay "
                    f"well-ordered), got {self.get('spill')}"
                )
        elif self.kind == "hetero":
            if not 0.0 <= self.get("spread") < 1.0:
                raise MachineSpecError(
                    "hetero spread must be in [0, 1) so durations stay "
                    f"positive, got {self.get('spread')}"
                )
            if not float(self.get("seed")).is_integer():
                raise MachineSpecError(
                    f"hetero seed must be an integer, got "
                    f"{self.get('seed')}"
                )

    def get(self, key: str) -> float:
        """A parameter value, falling back to the kind's default."""
        defaults = MACHINE_KINDS[self.kind]
        if key not in defaults:
            raise MachineSpecError(
                f"machine {self.kind!r} has no key {key!r}; known: "
                f"{sorted(defaults) if defaults else '(none)'}"
            )
        return dict(self.params).get(key, defaults[key])

    @classmethod
    def parse(cls, spec: str) -> "MachineSpec":
        """Parse a ``--machine`` spec: ``KIND`` or
        ``KIND:key=val,key=val`` (see the module docstring for the
        per-kind schema)."""
        spec = spec.strip()
        if not spec:
            raise MachineSpecError("empty machine spec")
        head, _, tail = spec.partition(":")
        params: list[tuple[str, float]] = []
        for token in tail.split(",") if tail else ():
            token = token.strip()
            if not token:
                continue
            key, sep, val = token.partition("=")
            if not sep:
                raise MachineSpecError(
                    f"bad machine token {token!r}; expected key=value"
                )
            params.append((
                key.strip(),
                _parse_float(val.strip(), f"machine key {key.strip()!r}",
                             MachineSpecError),
            ))
        return cls(kind=head, params=tuple(params))

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        body = ",".join(f"{k}={_num(v)}" for k, v in self.params)
        return f"{self.kind}:{body}"

    def build(self):
        """Construct the runtime
        :class:`~repro.sim.machines.MachineModel` for this spec (a
        fresh, unattached instance per call — models are stateful
        within a run)."""
        from ..sim.machines import build_machine

        return build_machine(self)


def parse_machine(spec: str) -> MachineSpec:
    """Functional alias of :meth:`MachineSpec.parse` (the shared-
    grammar entry point, mirroring :func:`parse_fault_plan` and
    :func:`parse_server_policy`)."""
    return MachineSpec.parse(spec)
