(** 4-ary min-heap keyed by a float priority, with stable tie-breaking.

    The discrete-event engine needs: O(log n) insert / pop-min, and
    deterministic ordering when two events share the same timestamp
    (ties are broken by insertion order — each push consumes one
    monotonically increasing sequence number).  Entries carry an
    arbitrary payload.  Pops follow the (key, seq) order exactly, so
    the arity of the tree is invisible to callers: only its cost
    shows.

    Two access styles coexist: the boxed {!pop}/{!peek} (convenient for
    Dijkstra-style uses) and the unboxed {!top_key}/{!top_value}/
    {!drop_min} trio the event loop uses to avoid allocating an option
    and a tuple per event. *)

type 'a t

val create : filler:'a -> 'a t
(** Fresh empty heap.  [filler] occupies every slot no entry holds, so
    the heap keeps no removed entry reachable; it is never returned. *)

val length : 'a t -> int
(** Number of entries currently stored. *)

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts [v] with priority [key] and the next
    sequence number. *)

val reserve_seq : 'a t -> int
(** Consume and return the next sequence number {e without} inserting —
    for entries parked outside the heap (e.g. a timer wheel) that must
    keep their FIFO rank when they are pushed later with
    {!push_with_seq}. *)

val push_with_seq : 'a t -> key:float -> seq:int -> 'a -> unit
(** Insert with an explicit sequence number previously obtained from
    {!reserve_seq}.  The internal counter is advanced past [seq] if
    needed, so later {!push}es still get fresh numbers. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum entry, or [None] if empty.  Among
    equal keys, the entry pushed first is returned first. *)

val peek : 'a t -> (float * 'a) option
(** Minimum entry without removing it. *)

val top_key : 'a t -> float
(** Key of the minimum entry.  @raise Invalid_argument if empty. *)

val top_value : 'a t -> 'a
(** Payload of the minimum entry.  @raise Invalid_argument if empty. *)

val drop_min : 'a t -> unit
(** Remove the minimum entry.  @raise Invalid_argument if empty. *)

val compact : 'a t -> keep:('a -> bool) -> int
(** [compact h ~keep] drops every entry whose payload fails [keep] and
    rebuilds the heap in O(n); returns how many entries were removed.
    Surviving entries keep their sequence numbers, so tie-breaking
    order is unchanged. *)

val clear : 'a t -> unit
(** Drop all entries. *)
