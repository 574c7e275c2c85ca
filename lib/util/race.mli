(** Happens-before race detection over domain-parallel code (the
    "domain-race sanitizer" core).

    [Rina_exp.Par] hands trials and their results across several
    domains; an unsynchronized cross-domain access there is a
    determinism (and memory-safety) bug.  This module is a vector-clock
    happens-before detector for the *annotated* shared locations of
    the codebase: parallel drivers declare their fork/join structure
    ({!fork}, {!child_begin}, {!child_end}, {!join}), their
    synchronisation objects ({!acquire}, {!release} around [Atomic]
    operations and locks), and the shared cells they read and write
    ({!read}, {!write}).  Two accesses to the same cell race when
    neither happens-before the other and at least one is a write;
    every such pair is recorded.

    Everything is a no-op until {!arm} flips the global switch (one
    [Atomic.get] per call site), so annotations can stay in the hot
    path permanently — the same discipline as {!Invariant}.  Unlike
    {!Invariant}, the state here is deliberately {e cross}-domain (a
    mutex-guarded store): the whole point is to observe accesses from
    several domains against each other.

    The structured-diagnostic view ([SAN_RACE_*] codes) lives in
    [Rina_check.Sanitizer.Race]. *)

val arm : unit -> unit
(** Switch detection on and clear previously recorded state (cells,
    threads, races).  Arm {e before} forking workers. *)

val disarm : unit -> unit

val armed : unit -> bool

val clear : unit -> unit
(** Forget recorded races and cells without changing the switch. *)

(** {2 Fork/join structure} *)

type handle
(** One parent→child spawn edge. *)

val fork : unit -> handle
(** Parent side, before [Domain.spawn]: snapshot the parent's clock
    for the child and advance the parent past the fork. *)

val child_begin : handle -> unit
(** First statement inside the spawned function: the child inherits
    everything the parent did before the fork. *)

val child_end : handle -> unit
(** Last statement inside the spawned function: publish the child's
    final clock for {!join}. *)

val join : handle -> unit
(** Parent side, after [Domain.join]: everything the child did
    happens-before everything the parent does next. *)

(** {2 Synchronisation objects} *)

type sync

val sync : string -> sync
(** A named synchronisation object standing for an [Atomic.t] or a
    mutex.  An acquire/release pair through the same object creates a
    happens-before edge from the releaser to the acquirer. *)

val acquire : sync -> unit
(** Call before (or at) the synchronising read — [Atomic.get],
    [Mutex.lock], the read half of [Atomic.fetch_and_add]. *)

val release : sync -> unit
(** Call after the synchronising write — [Atomic.set], [Mutex.unlock],
    the write half of [Atomic.fetch_and_add]. *)

(** {2 Shared cells} *)

type cell

val cell : string -> cell
(** Declare one shared location (a mutable field, an array slot, a DLS
    table reached cross-domain).  The label names it in reports. *)

val read : cell -> unit
val write : cell -> unit

(** {2 Results} *)

type race = {
  site : string;  (** the cell's label *)
  kind : [ `Write_write | `Read_write | `Write_read ];
      (** earlier access, then later access *)
  first_domain : int;
  second_domain : int;
}

val races : unit -> race list
(** Distinct (site, kind) pairs recorded since the last {!arm}/{!clear},
    sorted by site then kind. *)
