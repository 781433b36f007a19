"""Core event primitives for the discrete-event simulation kernel.

The kernel is a from-scratch, SimPy-compatible-in-spirit engine used to model
every time-dependent component of the FIRST reproduction (cluster schedulers,
inference engines, the Globus-Compute-like relay, the gateway worker pool and
so on).  Events are the unit of scheduling: a process yields events and is
resumed when they are triggered.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Condition",
    "AllOf",
    "AnyOf",
    "ConditionValue",
]

#: Sentinel used for the value of an event that has not yet been triggered.
PENDING = object()

#: Scheduling priority for events that must run before same-time events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a :class:`Process` when it is interrupted.

    The ``cause`` attribute carries the object passed to
    :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An event that may happen at some point in (simulated) time.

    An event has three states: not triggered, triggered (scheduled but not
    yet processed) and processed.  Callbacks appended to :attr:`callbacks`
    are invoked with the event as the only argument when the event is
    processed by the environment.

    The kernel classes declare ``__slots__``: large simulations allocate
    millions of events, and dropping the per-instance ``__dict__`` cuts both
    allocation time and memory.  Subclasses outside the kernel that do not
    declare ``__slots__`` transparently regain a ``__dict__`` for their own
    attributes.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):  # noqa: F821 - forward ref
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been triggered (has a value)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event was triggered successfully."""
        if not self.triggered:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value of the event, or the exception if it failed."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failed event's exception has been handled."""
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event's exception as handled."""
        self._defused = True

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (callback form)."""
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    # -- composition -----------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_event, [self, other])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} object at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    ``at`` schedules the timeout at an *absolute* simulated time instead of a
    relative delay.  This matters for exact reproducibility: with floats,
    ``now + (t - now)`` is not always ``t``, so a caller that knows the exact
    target time (e.g. the engine's macro-stepper replaying per-iteration
    boundary times) passes it through unchanged.
    """

    __slots__ = ("_delay", "_at")

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 at: Optional[float] = None):  # noqa: F821
        if at is None and delay < 0:
            raise ValueError(f"Negative delay {delay}")
        super().__init__(env)
        self._ok = True
        self._value = value
        if at is None:
            self._delay = delay
            self._at = env.now + delay  # the exact time schedule() uses
            env.schedule(self, delay=delay)
        else:
            # An absolute-time timeout has no meaningful delay: storing the
            # round-tripped ``at - now`` here would misreport the one thing
            # ``timeout_at`` exists to preserve, the exact firing time.
            self._delay = None
            self._at = at
            env.schedule_at(self, at)

    @property
    def delay(self) -> Optional[float]:
        """The relative delay this timeout was created with.

        ``None`` for absolute-time timeouts (``Environment.timeout_at``);
        use :attr:`at` for the firing time, which is exact in both cases.
        """
        return self._delay

    @property
    def at(self) -> float:
        """The absolute simulated time this timeout fires at (bit-exact)."""
        return self._at

    def __repr__(self) -> str:
        if self._delay is None:
            return f"<Timeout(at={self._at}) object at {id(self):#x}>"
        return f"<Timeout({self._delay}) object at {id(self):#x}>"


class Initialize(Event):
    """Internal event used to start a new :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):  # noqa: F821
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class _InterruptEvent(Event):
    """Internal urgent event that throws :class:`Interrupt` into a process."""

    __slots__ = ()

    def __init__(self, process: "Process", cause: Any):
        super().__init__(process.env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks = [process._resume]
        self.env.schedule(self, priority=URGENT)


class Process(Event):
    """A process: a generator driven by the events it yields.

    The process is itself an event, triggered with the generator's return value
    or exception.  Its end enters the kernel queue only when awaited or failed;
    an unwatched success is processed on the spot (later waiters read it there).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator):  # noqa: F821
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process, raising :class:`Interrupt` inside it."""
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("A process is not allowed to interrupt itself")
        _InterruptEvent(self, cause)

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume the generator with the value (or exception) of ``event``."""
        env = self.env
        env._active_proc = self

        # Remove our callback from the event we were actually waiting on if
        # we are being resumed by an interrupt instead.  The common resume
        # path (target is the triggering event) skips this entirely.
        target = self._target
        if target is not None and target is not event:
            callbacks = target.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
        self._target = None

        generator = self._generator
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.args[0] if exc.args else None
                if self.callbacks:
                    env.schedule(self)
                else:
                    self.callbacks = None
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            if not isinstance(next_event, Event):
                self._ok = False
                self._value = RuntimeError(
                    f"Process yielded a non-event object: {next_event!r}"
                )
                env.schedule(self)
                break

            if next_event.callbacks is not None:
                # Event has not been processed yet: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            # Event was already processed: continue immediately with its value.
            event = next_event

        env._active_proc = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process({name}) object at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of events to values produced by a :class:`Condition`."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(str(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"

    def __iter__(self):
        return iter(self.events)

    def keys(self):
        return iter(self.events)

    def values(self):
        return (e._value for e in self.events)

    def items(self):
        return ((e, e._value) for e in self.events)

    def todict(self) -> dict:
        return {e: e._value for e in self.events}


class Condition(Event):
    """A composite event that triggers when an evaluation function says so."""

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, env, evaluate, events: Iterable[Event]):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("Cannot mix events from different environments")

        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if not self._events and not self.triggered:
            self.succeed(ConditionValue([]))

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None:
                value.events.append(event)

    def _build_value(self) -> ConditionValue:
        value = ConditionValue([])
        self._populate_value(value)
        return value

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._build_value())

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_event(events: List[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition that triggers once all of its events have triggered."""

    __slots__ = ()

    def __init__(self, env, events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers as soon as any of its events has triggered."""

    __slots__ = ()

    def __init__(self, env, events: Iterable[Event]):
        super().__init__(env, Condition.any_event, events)
