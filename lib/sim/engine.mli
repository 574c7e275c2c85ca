(** Discrete-event simulation engine.

    A single virtual clock and an event heap.  Components schedule
    closures at absolute or relative virtual times; [run] executes
    them in timestamp order (FIFO among equal timestamps, so runs are
    deterministic).  Everything in this repository — links, EFCP
    timers, routing hello timers, TCP RTOs — runs on one engine.

    The event loop is allocation-lean: popping an event boxes nothing,
    cancelled timers are reaped in bulk once they outnumber live ones,
    and timers scheduled on the {!Timer} lane sit in a coarse wheel
    until they come due, so the common cancel-before-fire pattern
    (retransmission timers on a healthy flow) never pays heap
    maintenance.  Lane choice never affects firing order — it is a
    performance hint only. *)

type t

type handle
(** A scheduled event, usable for cancellation. *)

(** Scheduling lane. [Timer] marks periodic / usually-cancelled timer
    classes (RTO, keepalive, hello) for the wheel fast lane; [Default]
    goes straight to the heap.  Semantics are identical. *)
type lane = Default | Timer

val wheel_granularity : float
(** Slot width of the [Timer]-lane wheel, in seconds.  Periodic work
    riding the wheel (snapshot timers, keepalives) cannot usefully
    tick faster than this — lint rule L118 warns on policy intervals
    below it. *)

val create : unit -> t
(** Fresh engine with the clock at 0.0 seconds. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : ?lane:lane -> t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. delay].  A negative
    delay is clamped to zero (runs "immediately", after currently
    pending same-time events). *)

val schedule_at : ?lane:lane -> t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; times before [now] are clamped to [now]. *)

val cancel : handle -> unit
(** Prevent a pending event from firing; cancelling a fired or already
    cancelled event is a no-op.  The event's closure, and whatever it
    holds, is released at once, although the cancelled entry itself
    may stay queued until it is reaped. *)

val pending : t -> int
(** Number of events still queued (including cancelled ones not yet
    reaped). *)

val executed : t -> int
(** Total events popped off the queue since [create] (cancelled events
    included) — the denominator for per-event cost accounting. *)

val run : ?until:float -> t -> unit
(** Execute events in order.  With [until], stops once the next event
    is strictly beyond that time and sets the clock to [until];
    without it, runs until the queue drains. *)

val step : t -> bool
(** Execute exactly one event; [false] if the queue was empty. *)

