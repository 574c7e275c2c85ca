(* The experiment steps the benches share and the library does not
   need: Fig. 2's relay, the sealed-SDU tally, RINA_TRACE/RINA_STATS
   capture and the UDP baseline of R1 and R2.  Generic steps
   (Scenario.connect, Scenario.drive_until, Topo.link_dif) live in
   Rina_exp. *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Fault = Rina_sim.Fault
module Trace = Rina_sim.Trace
module Telemetry = Rina_util.Telemetry
module Dif = Rina_core.Dif
module Ipcp = Rina_core.Ipcp
module Obs = Rina_exp.Obs
module Topo = Rina_exp.Topo
module Workload = Rina_exp.Workload

(* ---------- Fig. 2's relay ---------- *)

type relay = {
  engine : Engine.t;
  h1 : Ipcp.t;
  r : Ipcp.t;
  h2 : Ipcp.t;
  left_h1 : Ipcp.t;  (** h1's end of the left link DIF *)
  wire_l : Link.t;
  wire_r : Link.t;
}

(* H1 ==left== R ==right== H2: link DIFs "left" and "right" (policy
   [lower]) over two 10 Mb/s wires of [delay] s each, and the rank-1
   DIF "relay" (policy [upper]) with members h1, r and h2 stacked
   across them. *)
let relay ~seed ~delay ~lower ~upper =
  let engine = Engine.create () in
  let rng = Rina_util.Prng.create seed in
  let wire () = Link.create engine rng ~bit_rate:10_000_000. ~delay () in
  let wire_l = wire () in
  let wire_r = wire () in
  let la, lb = Topo.link_dif engine ~policy:lower "left" wire_l in
  let ra, rb = Topo.link_dif engine ~policy:lower "right" wire_r in
  let top = Dif.create engine ~policy:upper ~rank:1 "relay" in
  let h1 = Dif.add_member top ~name:"h1" () in
  let r = Dif.add_member top ~name:"r" () in
  let h2 = Dif.add_member top ~name:"h2" () in
  Dif.stack_connect ~lower_a:la ~lower_b:lb ~upper_a:h1 ~upper_b:r ();
  Dif.stack_connect ~lower_a:ra ~lower_b:rb ~upper_a:r ~upper_b:h2 ();
  Dif.run_until_converged top ~max_time:90. ();
  { engine; h1; r; h2; left_h1 = la; wire_l; wire_r }

(* ---------- sealed-SDU tally ---------- *)

(* Receiver-side accounting of sealed SDUs (Workload.stamp_sealed):
   exactly once, in order and uncorrupted — or counted. *)
type tally = {
  seen : (int, unit) Hashtbl.t;
  mutable arrived : int;  (** every SDU handed up *)
  mutable fresh : int;  (** first intact copy of each sequence number *)
  mutable highest : int;
  mutable dups : int;
  mutable ooo : int;
  mutable corrupt : int;
}

let tally () =
  {
    seen = Hashtbl.create 4096;
    arrived = 0;
    fresh = 0;
    highest = -1;
    dups = 0;
    ooo = 0;
    corrupt = 0;
  }

let count t sdu =
  t.arrived <- t.arrived + 1;
  match Workload.read_sealed sdu with
  | Workload.Sealed_corrupt -> t.corrupt <- t.corrupt + 1
  | Workload.Sealed_ok (_, seq) ->
    if Hashtbl.mem t.seen seq then t.dups <- t.dups + 1
    else begin
      Hashtbl.replace t.seen seq ();
      t.fresh <- t.fresh + 1;
      if seq < t.highest then t.ooo <- t.ooo + 1;
      if seq > t.highest then t.highest <- seq
    end

(* ---------- RINA_TRACE / RINA_STATS capture ----------

   RINA_TRACE=<file> saves a run's flight trace as JSONL (rina_trace
   reads it); RINA_STATS=<file> writes its telemetry registry
   (rina_stats reads it).  With neither set, a run's output is the
   same as without capture. *)

let save_trace tr = Option.iter (Trace.save_jsonl tr) (Sys.getenv_opt "RINA_TRACE")

let save_stats telemetry =
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Telemetry.to_jsonl telemetry)))
    (Sys.getenv_opt "RINA_STATS")

(* A registry for [save_stats], when RINA_STATS is set. *)
let stats_registry () =
  Option.map (fun _ -> Telemetry.create ()) (Sys.getenv_opt "RINA_STATS")

(* A trace that exists only to be captured: with neither variable set
   nothing is attached and [policy] is never called.  Otherwise
   [Obs.start] runs the trace under [policy ()], with the policy's
   snapshot timer and the [probes] (name, period, sampler) for the next
   [span] seconds.  Returns the closure that saves and detaches. *)
let observe engine ~policy ~span probes =
  if Sys.getenv_opt "RINA_TRACE" = None && Sys.getenv_opt "RINA_STATS" = None
  then fun () -> ()
  else begin
    let obs = Obs.start ~policy:(policy ()) engine in
    let until = Engine.now engine +. span in
    Obs.snapshots obs ~until;
    List.iter
      (fun (name, period, sample) ->
        Trace.probe obs.Obs.trace ~name ~period ~until sample)
      probes;
    fun () ->
      save_trace obs.Obs.trace;
      save_stats obs.Obs.telemetry;
      Obs.stop obs
  end

(* ---------- the UDP baseline of R1 and R2 ---------- *)

(* hostA -- r0 -- hostB (Topo.ip_line, 10 Mb/s wires of 5 ms) with the
   flight recorder on.  [faults plan ~t0 ~left ~right] records the
   fault schedule on the two wires before the plan is armed; [stream
   engine ~send ~until] starts a UDP sender from hostA to hostB's port
   9000 that stops at [t0 + stream_len]; every datagram hostB receives
   goes to [receive ~now].  The run lasts [drain] s past the stream.
   Returns what [stream] returned and the trace's events. *)
let udp_relay ~seed ~stream_len ~drain ~faults ~stream ~receive =
  let net =
    Topo.ip_line ~seed ~bit_rate:10_000_000. ~delay:0.005 ~routers:1 ()
  in
  let engine = net.Topo.ip_engine in
  let tr = Trace.create engine in
  Trace.attach tr;
  let u_a = Tcpip.Udp.attach net.Topo.hosts.(0) in
  let u_b = Tcpip.Udp.attach net.Topo.hosts.(1) in
  let src = Tcpip.Ip.addr_of_octets 10 1 0 1 in
  let dst = Tcpip.Ip.addr_of_octets 10 2 0 2 in
  Tcpip.Udp.listen u_b ~port:9000 (fun ~src:_ ~sport:_ body ->
      receive ~now:(Engine.now engine) body);
  let t0 = Engine.now engine in
  let plan = Fault.create () in
  faults plan ~t0 ~left:net.Topo.ip_links.(0) ~right:net.Topo.ip_links.(1);
  Fault.arm plan engine;
  let sent =
    stream engine
      ~send:(fun sdu -> Tcpip.Udp.send u_a ~src ~dst ~sport:9000 ~dport:9000 sdu)
      ~until:(t0 +. stream_len)
  in
  Engine.run ~until:(t0 +. stream_len +. drain) engine;
  let events = Trace.typed_events tr in
  Trace.close tr;
  (sent, events)
