"""The frozen eager frame capture: the reference for the observatory.

``EagerFrameStore`` records schedule frames exactly as
``repro.obs.observatory.FrameStore`` did before frames kept the run's
completion-order list and built the sorted executed/eligible/blocked
partition on read: it stringifies and sorts the whole partition at
every step and retains the frames themselves.  It exposes only what a
simulation and the flight recorder call (``enabled``, ``channel``,
``record``, ``set_profile``, ``get``, ``recent``), and its frames
serialize through a frozen copy of ``ScheduleFrame.to_payload``, so
the wire bytes are pinned as well.  ``tests/test_frames_reference.py``
checks the live store against it.  Do not edit it to follow the
store; it is the thing the store is checked against.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.obs.context import current_request_id

__all__ = ["EagerFrameStore"]


class EagerFrame(NamedTuple):
    seq: int
    step: int
    t: float
    executed: tuple[str, ...]
    eligible: tuple[str, ...]
    blocked: tuple[str, ...]
    occupancy: tuple[str | None, ...]
    optimal: int | None
    events: tuple[dict, ...]
    done: bool
    request: str | None = None

    def to_payload(self) -> dict:
        return {
            "seq": self.seq,
            "step": self.step,
            "t": round(self.t, 6),
            "executed": list(self.executed),
            "eligible": list(self.eligible),
            "blocked": list(self.blocked),
            "occupancy": list(self.occupancy),
            "eligible_count": len(self.eligible),
            "optimal": self.optimal,
            "events": [dict(e) for e in self.events],
            "done": self.done,
            "request": self.request,
        }


class EagerChannel:
    def __init__(self, fingerprint: str, dag, capacity: int) -> None:
        self.fingerprint = fingerprint
        self.names = {v: str(v) for v in dag.nodes}
        self.frames: deque[EagerFrame] = deque(maxlen=capacity)
        self.seq = 0
        self.dropped = 0
        self.profile: list[int] | None = None
        self.clients = 0
        self.policy = ""


class EagerFrameStore:
    """Enabled from construction; one channel per dag fingerprint."""

    def __init__(self, frames_per_dag: int) -> None:
        self.enabled = True
        self.frames_per_dag = frames_per_dag
        self._channels: dict[str, EagerChannel] = {}

    def channel(self, dag, *, clients: int = 0,
                policy: str = "") -> EagerChannel:
        fp = dag.fingerprint()
        ch = self._channels.get(fp)
        if ch is None:
            ch = EagerChannel(fp, dag, self.frames_per_dag)
            self._channels[fp] = ch
        ch.clients = clients or ch.clients
        if policy:
            ch.policy = policy
        return ch

    def get(self, fingerprint: str) -> EagerChannel | None:
        return self._channels.get(fingerprint)

    def set_profile(self, dag, profile) -> None:
        self.channel(dag).profile = list(profile)

    def record(self, channel: EagerChannel, *, step: int, t: float,
               executed, eligible, occupancy,
               events: tuple[dict, ...] = (), done: bool = False) -> int:
        names = channel.names
        executed_w = sorted({names[v] for v in executed})
        eligible_w = sorted({names[v] for v in eligible})
        taken = set(executed_w)
        taken.update(eligible_w)
        blocked_w = sorted(
            w for w in names.values() if w not in taken
        )
        occupancy_w: list[str | None] = []
        for v in occupancy:
            if v is None:
                occupancy_w.append(None)
            else:
                w = names.get(v)
                occupancy_w.append(w if w is not None else str(v))
        channel.seq += 1
        profile = channel.profile
        t_exec = len(executed_w)
        optimal = (
            profile[t_exec] if profile is not None
            and t_exec < len(profile) else
            (profile[-1] if profile else None)
        )
        if len(channel.frames) == channel.frames.maxlen:
            channel.dropped += 1
        channel.frames.append(EagerFrame(
            seq=channel.seq,
            step=step,
            t=t,
            executed=tuple(executed_w),
            eligible=tuple(eligible_w),
            blocked=tuple(blocked_w),
            occupancy=tuple(occupancy_w),
            optimal=optimal,
            events=tuple(events),
            done=done,
            request=current_request_id(),
        ))
        return channel.seq

    def recent(self, per_channel: int = 8) -> dict[str, list[dict]]:
        return {
            fp: [f.to_payload() for f in list(ch.frames)[-per_channel:]]
            for fp, ch in self._channels.items()
            if ch.frames
        }
