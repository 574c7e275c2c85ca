(** Per-port path health monitoring and deterministic multipath
    striping.

    Each lower-flow attachment (an RMT port) gets a health state
    driven by keepalive probes: [Up] carries traffic, [Suspect] (after
    {!Policy.multipath.suspect_misses} consecutive unanswered probes)
    carries traffic only when no Up path remains, [Down] (after
    [down_misses]) carries nothing and is re-probed on a full-jitter
    exponential backoff.  The module is pure state — the IPC process
    owns the probe timer and the RIEP exchanges — so replays are
    byte-identical. *)

type state = Up | Suspect | Down

(** Striping label, derived from the flow's QoS cube. *)
type label = Latency | Throughput | Background

(** State transition reported by {!tick}/{!reply}: [To_up prev]
    carries the state recovered from. *)
type transition = To_up of state | To_suspect | To_down

type t

(** [create cfg ~rng] — [rng] must be a dedicated stream; jitter draws
    happen in sorted-port order. *)
val create : Policy.multipath -> rng:Rina_util.Prng.t -> t

(** Monitor armed?  [probe_interval = 0] disables the whole layer
    (legacy single-path forwarding). *)
val enabled : t -> bool

(** Drop all state for a detached port. *)
val forget : t -> Types.port_id -> unit

(** Drop all state (IPCP crash / leave). *)
val reset : t -> unit

(** One probe period elapsed on this port.  Counts the previous
    probe's miss (possibly demoting the path), then says whether to
    send a fresh probe now.  Down paths return [`Wait] between
    backed-off re-probes. *)
val tick :
  t -> Types.port_id -> now:float -> [ `Probe | `Wait ] * transition option

(** Probe reply arrived: clears misses, revives the path. *)
val reply : t -> Types.port_id -> transition option

(** Out-of-band death (carrier loss).  [true] iff this transitioned
    the path to Down — the caller runs failover exactly once. *)
val force_down : t -> Types.port_id -> now:float -> bool

val label_of_qos : Qos.t -> label
val label_index : label -> int
val mode_for : t -> label -> Policy.stripe_mode

(** [select t ~dst ~mode ~rr_key ~candidates] picks the egress port
    for one PDU.  [candidates] are [(port, cost)] pairs sorted by port
    id, pre-filtered to live attachments toward an equal-cost next
    hop.  Down paths are excluded; Suspect paths used only when no Up
    candidate remains.  [None] means every candidate is Down.
    [rr_key] partitions the round-robin cursor per traffic label. *)
val select :
  t ->
  dst:Types.address ->
  mode:Policy.stripe_mode ->
  rr_key:int ->
  candidates:(Types.port_id * float) list ->
  Types.port_id option

(** Sorted human-readable per-port state lines (for [rina_stats]). *)
val debug : t -> string list
