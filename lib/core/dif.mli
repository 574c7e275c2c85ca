(** Distributed IPC Facility management.

    A [t] is the *management view* of one DIF: its name, its policy
    set and the IPC processes created as (prospective) members.  The
    DIF itself is fully distributed — all coordination between members
    happens through RIEP over (N-1) channels; this record only helps
    experiments create members and wire them up.

    Creating a DIF (§5.1): [create] then [add_member] — the first
    member bootstraps and waits for others to join.  Adding a member
    (§5.2): [add_member] plus a channel to any existing member
    ([connect]); enrollment (authentication, address assignment, RIB
    sync) then runs in virtual time.  Stacking (§4): [stack_connect]
    turns a flow of this DIF into the (N-1) channel of a higher DIF's
    member pair. *)

type t

val create :
  Rina_sim.Engine.t ->
  ?policy:Policy.t ->
  ?qos_cubes:Qos.t list ->
  ?rank:int ->
  Types.dif_name ->
  t
(** [rank] (default 0) is this DIF's depth in a stacked arrangement —
    0 for the lowest layer — and is stamped on every flight-recorder
    event its members emit. *)

val name : t -> Types.dif_name
val policy : t -> Policy.t
val engine : t -> Rina_sim.Engine.t

val rank : t -> int
(** The depth given at {!create} — 0 for the lowest layer. *)

val add_member :
  t -> ?bootstrap:bool -> ?credentials:string -> name:string -> unit -> Ipcp.t
(** Create an IPC process for this DIF.  By default the first one
    bootstraps the DIF (address 1); later ones remain unenrolled until
    [connect]ed to a member, then enroll automatically.  [bootstrap]
    overrides the default: pass [false] when this [Dif.t] is one
    shard's management view of a DIF whose founder lives on another
    shard (the sharded engine builds one [Dif.t] per shard and only
    the founder's shard may bootstrap). *)

val members : t -> Ipcp.t list

val find_member : t -> string -> Ipcp.t option
(** By process name. *)

val connect :
  t ->
  ?cost:float ->
  ?rate_a:float ->
  ?rate_b:float ->
  Ipcp.t ->
  Ipcp.t ->
  Rina_sim.Chan.t * Rina_sim.Chan.t ->
  unit
(** Bind the two channel endpoints as ports on the two IPC processes
    (first endpoint on the first process).  Hello, enrollment and
    routing proceed from there in virtual time. *)

val stack_connect :
  lower_a:Ipcp.t ->
  lower_b:Ipcp.t ->
  upper_a:Ipcp.t ->
  upper_b:Ipcp.t ->
  ?qos_id:Types.qos_id ->
  ?cost:float ->
  ?rate:float ->
  unit ->
  unit
(** The recursion step: allocate flows in the lower DIF between the
    two upper IPC processes (each registered by name in its local
    lower member) and bind them as an (N-1) port of each upper
    process.  Two lower flows back the port — the data flow with
    [qos_id] (default reliable) and a reliable management flow, so
    control traffic cannot be starved behind data backlogs.  [rate]
    (bits/s) enables RMT shaping/scheduling on the resulting ports —
    set it at (slightly under) the lower path's bottleneck rate when
    the upper DIF should do its own multiplexing.  Runs asynchronously
    in virtual time; drive the engine to completion. *)

val run_until_converged : t -> ?max_time:float -> unit -> unit
(** Advance virtual time in hello-interval steps until every member is
    enrolled and all enrolled members share the same link-state
    database size, or [max_time] (default 120 s of virtual time from
    now) elapses.  Convenience for experiment setup. *)
