module Policy = Rina_core.Policy
module Policy_lang = Rina_core.Policy_lang

type topo = {
  diameter : int;
  bottleneck_bit_rate : float;
  rtt : float;
}

(* ---------- structural findings: L001-L005 ---------- *)

let structural (line, f) =
  let module P = Policy_lang in
  let error code ?hint () = Diag.error ~line code (P.message f) ?hint in
  match f with
  | P.Unknown_section _ ->
    error "L001" ~hint:("known sections: " ^ String.concat ", " P.sections) ()
  | P.Unknown_key { section; _ } ->
    let keys =
      List.filter_map (fun (s, k, _) -> if s = section then Some k else None) P.keys
    in
    error "L002"
      ~hint:(Printf.sprintf "keys valid in [%s]: %s" section (String.concat ", " keys))
      ()
  | P.Duplicate _ ->
    error "L003" ~hint:"later assignments silently override earlier ones" ()
  | P.Outside_section _ ->
    error "L004" ~hint:"open a section such as [efcp] before assigning keys" ()
  | P.Malformed _ ->
    error "L004" ~hint:"every non-comment line is a [section] header or key = value" ()
  | P.Bad_value _ -> error "L005" ()

(* ---------- cross-key rules on the resolved policy ---------- *)

let consistency (s : Policy_lang.scan) topo =
  let open Policy in
  let p = s.policy in
  let e = p.efcp and r = p.routing and c = p.congestion and mp = p.multipath in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  (* Line to pin a finding on: the latest explicitly set participant
     (0 when every participant comes from the base). *)
  let at keys = List.fold_left (fun m (sec, k) -> max m (s.set_at sec k)) 0 keys in
  let efcp k = ("efcp", k) and routing k = ("routing", k) and sched k = ("scheduler", k) in
  let auth k = ("auth", k) and cong k = ("congestion", k) and multi k = ("multipath", k) in
  let word sec k = Option.value ~default:"" (Policy_lang.value p sec k) in
  (* L101: the retransmission timer lives in [min_rto, max_rto] and
     starts at init_rto; a floor above the start is contradictory. *)
  if e.min_rto > e.init_rto then
    emit
      (Diag.error ~line:(at [ efcp "init_rto"; efcp "min_rto" ]) "L101"
         (Printf.sprintf "min_rto (%g s) exceeds init_rto (%g s)" e.min_rto e.init_rto)
         ~hint:"the RTO starts at init_rto and is clamped to at least min_rto");
  (* L102: init_rto above the hard ceiling is silently clamped. *)
  if e.init_rto > Rina_core.Efcp.max_rto then
    emit
      (Diag.warning ~line:(at [ efcp "init_rto" ]) "L102"
         (Printf.sprintf "init_rto (%g s) is above the %g s RTO ceiling and will be clamped"
            e.init_rto Rina_core.Efcp.max_rto));
  (* L103: delayed acks slower than the initial RTO guarantee spurious
     retransmissions until an RTT sample arrives. *)
  if e.ack_delay > 0. && e.ack_delay >= e.init_rto then
    emit
      (Diag.warning ~line:(at [ efcp "ack_delay"; efcp "init_rto" ]) "L103"
         (Printf.sprintf "ack_delay (%g s) is not below init_rto (%g s)" e.ack_delay
            e.init_rto)
         ~hint:"the sender times out and retransmits before the delayed ack leaves");
  (* L104: quantum is a DRR knob only. *)
  let drr = match p.scheduler with Drr _ -> true | Fifo | Priority_queueing -> false in
  if s.set_at "scheduler" "quantum" > 0 && not drr then
    emit
      (Diag.warning ~line:(at [ sched "quantum" ]) "L104"
         (Printf.sprintf "quantum is only meaningful under kind = drr (kind is %s)"
            (word "scheduler" "kind"))
         ~hint:"set kind = drr or drop the quantum line");
  (* L105: a DRR quantum below the MTU cannot release a full-size PDU
     per round; large flows starve behind small ones. *)
  (match p.scheduler with
   | Drr quantum when quantum < e.mtu ->
     emit
       (Diag.warning ~line:(at [ sched "quantum"; efcp "mtu"; sched "kind" ]) "L105"
          (Printf.sprintf "drr quantum (%d B) is smaller than the MTU (%d B)" quantum e.mtu)
          ~hint:"use a quantum of at least one MTU")
   | Drr _ | Fifo | Priority_queueing -> ());
  (* L106/L107: secret iff password authentication. *)
  if p.auth = Auth_password "" then
    emit
      (Diag.error ~line:(at [ auth "kind" ]) "L106"
         "auth kind = password requires a secret");
  if s.set_at "auth" "secret" > 0 && p.auth = Auth_none then
    emit
      (Diag.warning ~line:(at [ auth "secret" ]) "L107"
         (Printf.sprintf "secret is ignored unless auth kind = password (kind is %s)"
            (word "auth" "kind")));
  (* L108/L109: adjacency liveness needs headroom over the hello period. *)
  let hello = r.hello_interval and dead = r.dead_interval in
  if dead <= hello then
    emit
      (Diag.error ~line:(at [ routing "dead_interval"; routing "hello_interval" ]) "L108"
         (Printf.sprintf "dead_interval (%g s) is not above hello_interval (%g s)" dead
            hello)
         ~hint:"a single on-time hello cannot keep the adjacency alive")
  else if dead <= 2. *. hello then
    emit
      (Diag.warning ~line:(at [ routing "dead_interval"; routing "hello_interval" ]) "L109"
         (Printf.sprintf
            "dead_interval (%g s) is within 2x hello_interval (%g s): one lost hello \
             drops the adjacency"
            dead hello)
         ~hint:"use dead_interval > 2 x hello_interval");
  (* L111: stop-and-wait plus delayed acks serialises every PDU behind
     the ack timer. *)
  if e.window = 1 && e.ack_delay > 0. then
    emit
      (Diag.warning ~line:(at [ efcp "window"; efcp "ack_delay" ]) "L111"
         (Printf.sprintf
            "window = 1 with ack_delay = %g s adds the ack delay to every PDU's RTT"
            e.ack_delay)
         ~hint:"drop ack_delay, or open the window");
  (* L112: a keepalive period at or above the dead-peer timeout means
     every probe gap looks like death — one lost reply partitions the
     adjacency. *)
  let keepalive = r.keepalive_interval and dead_peer = r.dead_peer_timeout in
  if keepalive > 0. && keepalive >= dead_peer then
    emit
      (Diag.error
         ~line:(at [ routing "keepalive_interval"; routing "dead_peer_timeout" ])
         "L112"
         (Printf.sprintf
            "keepalive_interval (%g s) is not below dead_peer_timeout (%g s)" keepalive
            dead_peer)
         ~hint:
           "an enrolled peer is declared dead before its next keepalive is even \
            due; use dead_peer_timeout > 2 x keepalive_interval");
  (* L113: zero-retry enrollment gives up on the first lost M_connect
     and waits a whole hello period to try again. *)
  if p.enrollment.enroll_retries = 0 then
    emit
      (Diag.warning ~line:(at [ ("enrollment", "enroll_retries") ]) "L113"
         "enroll_retries = 0: a single lost enrollment exchange stalls joining \
          until the next hello"
         ~hint:"allow at least one backoff retry");
  (* L114: timer pressure.  Each periodic timer class fires about
     1/period times per simulated second (hellos and keepalives per
     adjacency, delayed acks per flow, and the retransmission timer at
     worst every min_rto).  A policy whose periods sum past ~10k
     events/s floods the event loop with timer churn and slows every
     experiment that uses it. *)
  let rate period = if period > 0. then 1. /. period else 0. in
  let timer_load = rate hello +. rate keepalive +. rate e.ack_delay +. rate e.min_rto in
  if timer_load > 10_000. then
    emit
      (Diag.warning
         ~line:
           (at
              [
                routing "hello_interval";
                routing "keepalive_interval";
                efcp "ack_delay";
                efcp "min_rto";
              ])
         "L114"
         (Printf.sprintf
            "timer settings schedule ~%.0f timer events per simulated second \
             (hello %g s, keepalive %g s, ack_delay %g s, min_rto %g s)"
            timer_load hello keepalive e.ack_delay e.min_rto)
         ~hint:
           "raise the shortest period(s); sub-millisecond timers dominate the \
            event loop (use --strict to make this failing)");
  (* L115: a reorder buffer smaller than the advertised sack-block
     budget is self-defeating — the receiver can never hold enough
     out-of-order ranges to fill its own sack advertisement, so the
     extra blocks are dead wire weight and the buffer sheds
     (R_reorder_overflow) exactly the PDUs sack was meant to save. *)
  if e.sack_blocks > 0 && e.reorder_window < e.sack_blocks then
    emit
      (Diag.error ~line:(at [ efcp "reorder_window"; efcp "sack_blocks" ]) "L115"
         (Printf.sprintf "reorder_window (%d) is below sack_blocks (%d)" e.reorder_window
            e.sack_blocks)
         ~hint:"use reorder_window >= sack_blocks (each sack block needs at \
                least one buffered PDU)");
  (* L116: anti-entropy sweeping faster than the hello clock churns
     full-database syncs against adjacencies that have not even been
     re-confirmed since the last sweep. *)
  let ae = r.anti_entropy_interval in
  if ae > 0. && ae < hello then
    emit
      (Diag.warning ~line:(at [ routing "anti_entropy_interval"; routing "hello_interval" ])
         "L116"
         (Printf.sprintf
            "anti_entropy_interval (%g s) is below hello_interval (%g s): full \
             RIB syncs outpace adjacency confirmation"
            ae hello)
         ~hint:"use anti_entropy_interval >= hello_interval");
  (* L117 is retired: trace_sample_rate's (0, 1] bound is part of the
     key table, so a bad rate is an L005. *)
  (* L118 is retired: a Timer-lane tick keeps its exact time, so a
     snapshot interval below the wheel's slot width still fires on
     time. *)
  (* L119: congestion knobs that cannot work as written.  A
     mark_threshold at or above the per-class queue capacity can never
     mark a PDU before the queue overflows, so "ECN" degrades to silent
     tail drop; admission with no backoff retries in a storm. *)
  if c.mark_threshold >= Rina_core.Rmt.queue_capacity then
    emit
      (Diag.error ~line:(at [ cong "mark_threshold" ]) "L119"
         (Printf.sprintf
            "mark_threshold (%d) is not below the per-class queue capacity (%d)"
            c.mark_threshold Rina_core.Rmt.queue_capacity)
         ~hint:"the queue overflows (tail drop) before it ever marks");
  if c.admission_max_pending > 0 && c.admission_backoff <= 0. then
    emit
      (Diag.error ~line:(at [ cong "admission_backoff"; cong "admission_max_pending" ])
         "L119"
         (Printf.sprintf
            "admission_max_pending = %d with admission_backoff = %g: busy-rejected \
             requesters would retry with no delay"
            c.admission_max_pending c.admission_backoff)
         ~hint:"use a positive admission_backoff (seconds) so retries spread out");
  (* L120: congestion features wired to a signal that is never
     generated.  Push-back re-marks upper-DIF frames when a lower flow
     is congested, and a flow only learns it is congested from marked
     acks — with marking off, neither ever fires. *)
  if c.pushback && c.mark_threshold = 0 then
    emit
      (Diag.warning ~line:(at [ cong "pushback"; cong "mark_threshold" ]) "L120"
         "pushback = on with mark_threshold = 0: no queue ever marks, so there is \
          no congestion signal to push upward"
         ~hint:"set mark_threshold > 0 (marking) or drop the pushback line");
  if c.mark_threshold > 0 && c.mark_probability = 0. then
    emit
      (Diag.warning ~line:(at [ cong "mark_threshold"; cong "mark_probability" ]) "L120"
         (Printf.sprintf
            "mark_threshold = %d with mark_probability = 0: the marking stage is \
             armed but every coin flip loses"
            c.mark_threshold)
         ~hint:"use a mark_probability in (0, 1]");
  (* L122: a path monitor that can never demote.  down_misses below
     suspect_misses means the Down threshold fires while the state
     machine still considers the path Up — Suspect is unreachable and
     the documented Up -> Suspect -> Down progression is a lie.  A
     zero reprobe_backoff on an armed monitor makes every Down path
     re-probe in a zero-delay busy loop. *)
  if mp.down_misses < mp.suspect_misses then
    emit
      (Diag.error ~line:(at [ multi "down_misses"; multi "suspect_misses" ]) "L122"
         (Printf.sprintf
            "down_misses (%d) is below suspect_misses (%d): paths jump straight to \
             Down and Suspect is unreachable"
            mp.down_misses mp.suspect_misses)
         ~hint:"keep suspect_misses <= down_misses");
  if mp.probe_interval > 0. && mp.reprobe_backoff <= 0. then
    emit
      (Diag.error ~line:(at [ multi "reprobe_backoff"; multi "probe_interval" ]) "L122"
         "reprobe_backoff = 0 with an armed monitor: Down paths re-probe in a \
          zero-delay busy loop"
         ~hint:"give reprobe_backoff a positive base, e.g. probe_interval");
  (* L123: the monitor declares a path Down no earlier than routing's
     dead-peer teardown would — fast failover adds nothing over plain
     LSA convergence. *)
  let down_after = mp.probe_interval *. float_of_int mp.down_misses in
  if mp.probe_interval > 0. && down_after >= dead_peer then
    emit
      (Diag.warning ~line:(at [ multi "probe_interval"; multi "down_misses" ]) "L123"
         (Printf.sprintf
            "probe_interval x down_misses (%g x %d = %g s) is not below \
             dead_peer_timeout (%g s): path-Down fires after routing has already \
             torn the peer down, so fast failover never beats LSA convergence"
            mp.probe_interval mp.down_misses down_after dead_peer)
         ~hint:"shrink probe_interval (or down_misses) below the dead-peer window");
  (match topo with
   | None -> ()
   | Some { diameter; bottleneck_bit_rate; rtt } ->
     (* L201: PDUs on the longest path die before arriving. *)
     if p.max_ttl < diameter then
       emit
         (Diag.error ~line:(at [ ("dif", "max_ttl") ]) "L201"
            (Printf.sprintf "max_ttl (%d) is below the topology diameter (%d hops)"
               p.max_ttl diameter)
            ~hint:"PDUs between the farthest pair are dropped as TTL-expired");
     (* L202: the send window cannot fill the pipe. *)
     let bdp = bottleneck_bit_rate /. 8. *. rtt in
     let capacity = float_of_int (e.window * e.mtu) in
     if capacity < bdp then
       emit
         (Diag.warning ~line:(at [ efcp "window"; efcp "mtu" ]) "L202"
            (Printf.sprintf
               "window x mtu (%d x %d = %.0f B) is below the bandwidth-delay product \
                (%.0f B): the flow cannot saturate the path"
               e.window e.mtu capacity bdp)
            ~hint:"raise window (or mtu) to cover bit_rate/8 x rtt"));
  !diags

let lint ?base ?topo text =
  let s = Policy_lang.scan ?base text in
  List.sort Diag.compare (List.map structural s.findings @ consistency s topo)

let clean ?base ?topo text = not (Diag.has_errors (lint ?base ?topo text))

let rules =
  let e = Diag.Error and w = Diag.Warning in
  [
    Diag.rule ~code:"L001" ~severity:e "unknown [section] in the spec";
    Diag.rule ~code:"L002" ~severity:e "unknown key for its section";
    Diag.rule ~code:"L003" ~severity:e "duplicate key (later assignment wins silently)";
    Diag.rule ~code:"L004" ~severity:e "line is neither a [section] header nor key = value";
    Diag.rule ~code:"L005" ~severity:e "value has the wrong type for its key";
    Diag.rule ~code:"L101" ~severity:e "min_rto exceeds init_rto";
    Diag.rule ~code:"L102" ~severity:w "init_rto above the RTO ceiling (clamped)";
    Diag.rule ~code:"L103" ~severity:w
      "ack_delay at or above init_rto: spurious retransmits until an RTT sample";
    Diag.rule ~code:"L104" ~severity:w "quantum set but scheduler is not drr";
    Diag.rule ~code:"L105" ~severity:w "drr quantum below the MTU starves large flows";
    Diag.rule ~code:"L106" ~severity:e "auth kind = password without a secret";
    Diag.rule ~code:"L107" ~severity:w "secret set but auth kind is not password";
    Diag.rule ~code:"L108" ~severity:e "dead_interval not above hello_interval";
    Diag.rule ~code:"L109" ~severity:w
      "dead_interval within 2x hello_interval: one lost hello drops the adjacency";
    Diag.rule ~code:"L111" ~severity:w
      "window = 1 with delayed acks adds the ack delay to every PDU's RTT";
    Diag.rule ~code:"L112" ~severity:e "keepalive_interval not below dead_peer_timeout";
    Diag.rule ~code:"L113" ~severity:w
      "enroll_retries = 0 stalls joining on a single lost exchange";
    Diag.rule ~code:"L114" ~severity:w
      "timer periods schedule more than ~10k events per simulated second";
    Diag.rule ~code:"L115" ~severity:e "reorder_window below sack_blocks";
    Diag.rule ~code:"L116" ~severity:w
      "anti_entropy_interval below hello_interval churns full RIB syncs";
    Diag.rule ~code:"L119" ~severity:e
      "congestion knobs that cannot work (mark_threshold at or above the queue \
       capacity, admission with no backoff)";
    Diag.rule ~code:"L120" ~severity:w
      "congestion feature armed without its signal (pushback without marking, \
       marking with probability 0)";
    Diag.rule ~code:"L122" ~severity:e
      "multipath monitor misconfigured (down_misses below suspect_misses, or an \
       armed monitor with reprobe_backoff = 0)";
    Diag.rule ~code:"L123" ~severity:w
      "probe_interval x down_misses not below dead_peer_timeout: fast failover \
       cannot beat routing's own dead-peer teardown";
    Diag.rule ~code:"L201" ~severity:e "max_ttl below the topology diameter";
    Diag.rule ~code:"L202" ~severity:w
      "window x mtu below the bandwidth-delay product: cannot saturate the path";
  ]
