type rtx_strategy = Selective_repeat | Go_back_n | No_rtx

type efcp = {
  window : int;
  mtu : int;
  init_rto : float;
  min_rto : float;
  max_rtx : int;
  ack_delay : float;
  rtx_strategy : rtx_strategy;
  congestion_control : bool;
  sack_blocks : int;
  reorder_window : int;
  max_dup_cache : int;
}

type scheduler = Fifo | Priority_queueing | Drr of int

type routing = {
  hello_interval : float;
  dead_interval : float;
  refresh_ticks : int;
  keepalive_interval : float;
  dead_peer_timeout : float;
  lsa_max_age : float;
  anti_entropy_interval : float;
}

type enrollment = {
  enroll_timeout : float;
  enroll_retries : int;
  retry_backoff : float;
}

type auth = Auth_none | Auth_password of string

type acl = Allow_all | Allow_pairs of (string * string) list

type telemetry = {
  trace_sample_rate : float;  (* span keep probability, in (0, 1] *)
  snapshot_interval : float;  (* seconds between live snapshots; 0 = off *)
  flight_ring_capacity : int;  (* bound on buffered events; 0 = unbounded *)
}

type congestion = {
  mark_threshold : int;  (* queue depth that starts ECN marking; 0 = off *)
  mark_probability : float;  (* mark chance once over threshold, in [0, 1] *)
  pushback : bool;  (* propagate lower-DIF congestion to upper EFCPs *)
  admission_max_pending : int;  (* open flows before busy-reject; 0 = unlimited *)
  admission_backoff : float;  (* base of the requester's busy-retry backoff, s *)
}

type stripe_mode = Primary_backup | Weighted_rr

type multipath = {
  probe_interval : float;  (* per-path health probe period, s; 0 = monitor off *)
  suspect_misses : int;  (* consecutive missed probes before Up -> Suspect *)
  down_misses : int;  (* consecutive missed probes before -> Down *)
  reprobe_backoff : float;  (* full-jitter backoff base for re-probing Down, s *)
  latency : stripe_mode;  (* per-label striping over the path set *)
  throughput : stripe_mode;
  background : stripe_mode;
}

type t = {
  efcp : efcp;
  scheduler : scheduler;
  routing : routing;
  enrollment : enrollment;
  auth : auth;
  acl : acl;
  max_ttl : int;
  telemetry : telemetry;
  congestion : congestion;
  multipath : multipath;
}

let default_efcp =
  {
    window = 64;
    mtu = 1400;
    init_rto = 0.5;
    min_rto = 0.02;
    max_rtx = 12;
    ack_delay = 0.;
    rtx_strategy = Selective_repeat;
    congestion_control = true;
    sack_blocks = 0;
    reorder_window = 64;
    max_dup_cache = 0;
  }

let default_routing =
  {
    hello_interval = 1.0;
    dead_interval = 3.5;
    refresh_ticks = 5;
    keepalive_interval = 1.0;
    dead_peer_timeout = 3.5;
    lsa_max_age = 30.;
    anti_entropy_interval = 0.;
  }

let default_enrollment =
  { enroll_timeout = 2.0; enroll_retries = 4; retry_backoff = 0.5 }

let default_telemetry =
  { trace_sample_rate = 1.0; snapshot_interval = 0.; flight_ring_capacity = 0 }

let default_congestion =
  {
    mark_threshold = 0;
    mark_probability = 1.0;
    pushback = false;
    admission_max_pending = 0;
    admission_backoff = 0.2;
  }

let default_multipath =
  {
    probe_interval = 0.;
    suspect_misses = 2;
    down_misses = 4;
    reprobe_backoff = 0.5;
    latency = Primary_backup;
    throughput = Weighted_rr;
    background = Weighted_rr;
  }

let default =
  {
    efcp = default_efcp;
    scheduler = Fifo;
    routing = default_routing;
    enrollment = default_enrollment;
    auth = Auth_none;
    acl = Allow_all;
    max_ttl = 32;
    telemetry = default_telemetry;
    congestion = default_congestion;
    multipath = default_multipath;
  }

let efcp_for_qos t (qos : Qos.t) =
  if qos.Qos.reliable then t.efcp else { t.efcp with rtx_strategy = No_rtx }
