(** Policy sets: the tunable half of the mechanism/policy split.

    Every DIF instantiates the same mechanisms (EFCP, RMT, routing,
    enrollment) but with policies appropriate to its scope — the
    paper's central structural idea.  A [t] bundles the defaults a DIF
    hands to its IPC processes; per-flow values may further derive from
    the requested QoS cube. *)

(** How the EFCP sender reacts to loss. *)
type rtx_strategy =
  | Selective_repeat  (** receiver buffers out-of-order, sender retransmits gaps *)
  | Go_back_n         (** receiver discards out-of-order PDUs *)
  | No_rtx            (** sequencing only; losses are not repaired *)

type efcp = {
  window : int;        (** max outstanding PDUs (also receiver buffer) *)
  mtu : int;           (** max user bytes per PDU *)
  init_rto : float;    (** retransmission timeout before an RTT sample *)
  min_rto : float;
  max_rtx : int;       (** retries before declaring the flow broken *)
  ack_delay : float;   (** 0 = ack immediately; else aggregate for this long *)
  rtx_strategy : rtx_strategy;
  congestion_control : bool;
      (** AIMD window adaptation (slow start / additive increase,
          multiplicative decrease) on top of the credit window *)
  sack_blocks : int;
      (** max selective-ack ranges advertised per Ack PDU; 0 disables
          SACK (cumulative acks only, the pre-adversarial behaviour) *)
  reorder_window : int;
      (** receiver out-of-order buffer bound in PDUs; arrivals beyond it
          are dropped ([R_reorder_overflow]) and recovered by
          retransmission *)
  max_dup_cache : int;
      (** duplicate-suppression cache entries for unreliable unordered
          flows (reliable and in-order flows are already exactly-once by
          sequence state); 0 disables the cache *)
}

type scheduler =
  | Fifo
  | Priority_queueing  (** strict priority by QoS-cube priority *)
  | Drr of int         (** deficit round robin with the given quantum (bytes) *)

type routing = {
  hello_interval : float;  (** neighbour liveness probe period, s *)
  dead_interval : float;   (** missed-hello window before adjacency loss *)
  refresh_ticks : int;
      (** re-flood own LSA + directory every this many hello ticks
          (anti-entropy against lost management PDUs); 0 disables *)
  keepalive_interval : float;
      (** RIEP keepalive probe period per adjacency, s; 0 disables
          keepalives (dead peers are then only caught by missed
          hellos) *)
  dead_peer_timeout : float;
      (** silence window (no hello, no keepalive reply) after which an
          enrolled peer is declared dead: its adjacency is torn down
          and its LSA withdrawn from the whole DIF *)
  lsa_max_age : float;
      (** age out LSAs not refreshed for this long (s); 0 disables
          aging.  Only meaningful when [refresh_ticks > 0], otherwise
          live members would be aged out too. *)
  anti_entropy_interval : float;
      (** period (s) of the round-robin anti-entropy sweep: each tick
          pushes the full versioned LSDB + directory to one adjacent
          peer, repairing divergence that survived the flood (e.g. a
          heal-flood that was itself corrupted); 0 disables *)
}

type enrollment = {
  enroll_timeout : float;  (** per-attempt M_connect response timeout, s *)
  enroll_retries : int;
      (** extra attempts after the first before giving up until the
          next hello; 0 means single-shot *)
  retry_backoff : float;
      (** base delay for exponential backoff between attempts, s *)
}

type auth =
  | Auth_none
  | Auth_password of string  (** shared secret checked at enrollment *)

(** Flow-allocation access control. *)
type acl =
  | Allow_all
  | Allow_pairs of (string * string) list
      (** permitted (source app name, destination app name) pairs *)

(** Observability policy: how much the flight recorder keeps and how
    often live stats surface.  Consumed by [Rina_exp.Obs].  The default
    keeps everything, takes no snapshots and leaves the buffer
    unbounded — the zero-surprise debugging default; scale runs opt
    into sampling via policy. *)
type telemetry = {
  trace_sample_rate : float;
      (** deterministic head-sampling keep probability for spans, in
          (0, 1]; 1.0 traces everything ([Policy_lang] rejects
          values outside the interval) *)
  snapshot_interval : float;
      (** seconds between live telemetry snapshots (on the engine's
          [Timer] lane, which keeps each tick's exact time); 0 disables
          snapshots *)
  flight_ring_capacity : int;
      (** bound on buffered trace events — once full the newest events
          overwrite the oldest (exactly counted); 0 = unbounded *)
}

(** Aggregate congestion policy: how the DIF as a whole reacts to
    overload — the §6 argument that congestion is managed *inside* the
    layer that allocated the resource, not guessed at end to end. *)
type congestion = {
  mark_threshold : int;
      (** RMT class-queue depth at which ECN-style marking starts; 0
          disables marking (and [R_congestion] accounting) entirely *)
  mark_probability : float;
      (** probability a Dtp PDU is marked once its queue is at or over
          [mark_threshold], in \[0, 1\] ([Policy_lang] rejects other
          values); drawn from a deterministic per-RMT stream so runs
          replay byte-identically *)
  pushback : bool;
      (** when a lower-DIF flow is itself congestion-backing-off, set
          the ECN flag on upper-DIF frames transiting it so the
          (N)-EFCP's end-to-end response fires too — congestion
          propagates layer by layer instead of being absorbed *)
  admission_max_pending : int;
      (** flow-allocator admission bound: a destination IPC process
          with this many flows open answers M_create with "busy"
          instead of accepting; 0 = unlimited *)
  admission_backoff : float;
      (** base delay (s) of the requester's full-jitter exponential
          retry after a busy rejection ({!Rina_util.Backoff}) *)
}

(** How one traffic label is spread over a flow's path set. *)
type stripe_mode =
  | Primary_backup
      (** all PDUs ride the healthiest cheapest path; others carry
          traffic only after it degrades — minimises reordering, so it
          suits latency-labelled traffic *)
  | Weighted_rr
      (** deterministic weighted round-robin over every non-Down path,
          weights inverse to path cost — maximises aggregate goodput at
          the price of cross-path reordering (absorbed by EFCP's
          reorder window) *)

(** Path-resilience policy: the per-path health monitor and the
    label-driven striping discipline an IPC process applies to the
    several (N-1) flows it may hold toward the same next hop (the
    second step of Fig. 4 forwarding).  With [probe_interval = 0] (the
    default) the monitor is off and PoA choice keeps the legacy sticky
    single-path behaviour. *)
type multipath = {
  probe_interval : float;
      (** per-path keepalive probe period, s; 0 disables the monitor
          (and with it striping + fast failover) *)
  suspect_misses : int;
      (** consecutive missed probe replies before Up degrades to
          Suspect (path avoided while any Up path remains) *)
  down_misses : int;
      (** consecutive missed probe replies before the path is Down:
          excluded from striping, outstanding PDUs re-striped onto
          survivors; must be at least [suspect_misses] (lint L122) *)
  reprobe_backoff : float;
      (** base (s) of the full-jitter exponential backoff
          ({!Rina_util.Backoff}) between re-probes of a Down path *)
  latency : stripe_mode;  (** striping for latency-labelled flows *)
  throughput : stripe_mode;  (** striping for throughput-labelled flows *)
  background : stripe_mode;  (** striping for background-labelled flows *)
}

type t = {
  efcp : efcp;
  scheduler : scheduler;
  routing : routing;
  enrollment : enrollment;
  auth : auth;
  acl : acl;
  max_ttl : int;  (** initial TTL stamped on PDUs entering the DIF *)
  telemetry : telemetry;
  congestion : congestion;
  multipath : multipath;
}

val default_efcp : efcp
val default_routing : routing

val default_congestion : congestion
(** Everything off: no marking ([mark_threshold = 0]), no pushback,
    unlimited admission — overload behaviour is opt-in per DIF. *)

val default_multipath : multipath
(** Monitor off ([probe_interval = 0]): legacy sticky single-PoA
    forwarding.  When armed, Suspect after 2 misses, Down after 4,
    0.5 s re-probe backoff base; latency traffic primary-backup,
    throughput and background weighted round-robin. *)

val default : t
(** Selective-repeat EFCP (window 64, mtu 1400), FIFO scheduling, 1 s
    hellos, no authentication, allow-all ACL. *)

val efcp_for_qos : t -> Qos.t -> efcp
(** Derive the per-flow EFCP config: unreliable cubes get [No_rtx]. *)

