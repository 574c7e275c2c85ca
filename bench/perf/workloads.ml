(* The benchmark's workloads.  Each builds a fresh topology on a fresh
   engine from the seed, converges it, opens its flows, and then offers
   a fixed amount of traffic measured in simulated time, so the work in
   a round does not depend on the host.  The stack is driven only
   through its public modules; a traced round additionally wraps every
   link endpoint in a {!Probe} and every application call in a span. *)

module Engine = Rina_sim.Engine
module Link = Rina_sim.Link
module Fault = Rina_sim.Fault
module Dif = Rina_core.Dif
module Ipcp = Rina_core.Ipcp
module Shim = Rina_core.Shim
module Qos = Rina_core.Qos
module Types = Rina_core.Types
module Workload = Rina_exp.Workload
module Prng = Rina_util.Prng
module Hist = Rina_util.Sketch.Hist

let bit_rate = 100_000_000.

let delay = 0.001

(* Bytes [Shim.wrap] puts in front of every frame. *)
let shim_tag = 4

(* Simulated seconds after the last offered SDU (or flow arrival) in
   which the traffic may still complete.  Not shrunk by [--smoke]: they
   are completion windows, not the size of the workload. *)
let drain = 1.0

let churn_drain = 2.0

(* Delivery bookkeeping of one application flow. *)
type flow = {
  mutable opened : float;  (** when the flow was requested or began sending *)
  mutable offered : int;  (** SDUs handed to [flow.send] *)
  mutable next : int;  (** next expected sequence number *)
  mutable good : int;  (** delivered once, intact and in order *)
  mutable bad : int;  (** delivered corrupt, twice or out of order *)
  mutable last_at : float;  (** simulated time of the latest good delivery *)
  mutable finished : bool;
  mutable failed_alloc : bool;
  mutable efcp : Rina_util.Metrics.t list;  (** both endpoints' EFCP counters *)
  mutable sender : Ipcp.flow option;  (** a long flow's sending end, closed after the drain *)
}

let new_flow () =
  {
    opened = 0.;
    offered = 0;
    next = 0;
    good = 0;
    bad = 0;
    last_at = 0.;
    finished = false;
    failed_alloc = false;
    efcp = [];
    sender = None;
  }

type net = {
  engine : Engine.t;
  rng : Prng.t;
  spans : Spans.t option;
  mutable ipcps : Ipcp.t list;
  mutable links : Link.t list;
  mutable flows : flow list;
  latency_ms : Hist.t;  (** one-way SDU latency, simulated *)
  fct_ms : Hist.t;  (** flow completion time, simulated *)
  alloc_ms : Hist.t;  (** allocation request to answer, simulated *)
  mutable delivered : int;
  mutable delivered_bytes : int;
  mutable alloc_attempts : int;
  mutable stray : int;  (** SDUs no flow can claim *)
}

type instance = {
  net : net;
  open_flows : unit -> unit;  (** the second half of set-up *)
  start : unit -> unit;  (** schedule the measured traffic *)
  run_for : float;  (** simulated seconds of the measured phase *)
}

type t = {
  name : string;
  round_s : float;
      (** wall seconds of one round on the reference host (the 2-core VM
          whose numbers README.md records); turns [--seconds] into a
          fixed round count, so every run of a workload does the same work *)
  build : seed:int -> shrink:float -> Spans.t option -> instance;
      (** a converged topology; [shrink] divides every simulated duration *)
}

let make_net ~seed spans =
  {
    engine = Engine.create ();
    rng = Prng.create seed;
    spans;
    ipcps = [];
    links = [];
    flows = [];
    latency_ms = Hist.create ();
    fct_ms = Hist.create ();
    alloc_ms = Hist.create ();
    delivered = 0;
    delivered_bytes = 0;
    alloc_attempts = 0;
    stray = 0;
  }

(* ---------- application side ---------- *)

let traced_send net (flow : Ipcp.flow) =
  match net.spans with
  | None -> flow.Ipcp.send
  | Some sp -> fun sdu -> Spans.span sp Spans.App_send (fun () -> flow.Ipcp.send sdu)

let on_receive net (flow : Ipcp.flow) handler =
  flow.Ipcp.set_on_receive
    (match net.spans with
     | None -> handler
     | Some sp -> fun sdu -> Spans.span sp Spans.App_rx (fun () -> handler sdu))

let close net (flow : Ipcp.flow) = Spans.opt net.spans Spans.Mgmt_close flow.Ipcp.close

let deliver net fr ~sent sdu =
  let now = Engine.now net.engine in
  fr.next <- fr.next + 1;
  fr.good <- fr.good + 1;
  fr.last_at <- now;
  net.delivered <- net.delivered + 1;
  net.delivered_bytes <- net.delivered_bytes + Bytes.length sdu;
  Hist.add net.latency_ms ((now -. sent) *. 1000.)

let complete net fr =
  fr.finished <- true;
  Hist.add net.fct_ms ((fr.last_at -. fr.opened) *. 1000.)

let sealed_sink net fr sdu =
  match Workload.read_sealed sdu with
  | Workload.Sealed_ok (sent, seq) when seq = fr.next -> deliver net fr ~sent sdu
  | Workload.Sealed_ok _ | Workload.Sealed_corrupt -> fr.bad <- fr.bad + 1

let allocate net ipcp ~src ~dst k =
  net.alloc_attempts <- net.alloc_attempts + 1;
  let t0 = Engine.now net.engine in
  let on_result r =
    (match r with
     | Ok _ -> Hist.add net.alloc_ms ((Engine.now net.engine -. t0) *. 1000.)
     | Error _ -> ());
    k r
  in
  Spans.opt net.spans Spans.Mgmt_alloc (fun () ->
      Ipcp.allocate_flow ipcp ~src:(Types.apn src) ~dst:(Types.apn dst)
        ~qos_id:Qos.reliable.Qos.id ~on_result)

let drive net ~timeout cond =
  let deadline = Engine.now net.engine +. timeout in
  while (not (cond ())) && Engine.now net.engine < deadline do
    Engine.run ~until:(Engine.now net.engine +. 0.05) net.engine
  done

(* After the drain: a long flow whose every offered SDU arrived is
   complete; close it. *)
let settle net =
  List.iter
    (fun fr ->
      if (not fr.finished) && fr.offered > 0 && fr.good = fr.offered && fr.bad = 0
      then begin
        complete net fr;
        Option.iter (close net) fr.sender
      end)
    net.flows

(* Failed operations: every offered SDU not delivered exactly once,
   intact and in order; every allocation that returned [Error]; every
   flow still unfinished with nothing else against it; every SDU no
   flow could claim. *)
let failed net =
  List.fold_left
    (fun acc fr ->
      if fr.failed_alloc then acc + 1
      else
        let lost = min fr.offered (fr.offered - fr.good + fr.bad) in
        acc + lost + if fr.finished || lost > 0 then 0 else 1)
    net.stray net.flows

let offered net = List.fold_left (fun acc fr -> acc + fr.offered) 0 net.flows

(* ---------- topology ---------- *)

let member net dif name =
  let m = Dif.add_member dif ~name () in
  net.ipcps <- m :: net.ipcps;
  m

let new_link net =
  let l = Link.create net.engine net.rng ~bit_rate ~delay () in
  net.links <- l :: net.links;
  l

(* Two members of a single-rank DIF joined by a bare link. *)
let connect net dif a b =
  let l = new_link net in
  let ea = Link.endpoint_a l and eb = Link.endpoint_b l in
  (match net.spans with
   | None -> Dif.connect dif a b (ea, eb)
   | Some sp ->
     Dif.connect dif a b
       (Probe.chan sp ~owner:a ~tag:0 ea, Probe.chan sp ~owner:b ~tag:0 eb));
  l

(* Two members joined by a shim-wrapped link: the bottom of a stack. *)
let connect_shim net dif a b =
  let l = new_link net in
  let wrap e =
    let e = match net.spans with None -> e | Some sp -> Probe.chan sp ~tag:shim_tag e in
    Shim.wrap ~dif:(Dif.name dif) e
  in
  Dif.connect dif a b (wrap (Link.endpoint_a l), wrap (Link.endpoint_b l))

let chain net ?(rank = 0) name ~n =
  let dif = Dif.create net.engine ~rank name in
  (dif, Array.init n (fun i -> member net dif (Printf.sprintf "%s.%d" name i)))

(* A DIF whose consecutive members ride flows of the lower DIFs given
   as [(lower_a, lower_b)] pairs. *)
let stacked net ~rank name over =
  let dif, m = chain net ~rank name ~n:(List.length over + 1) in
  List.iteri
    (fun i (lower_a, lower_b) ->
      Dif.stack_connect ~lower_a ~lower_b ~upper_a:m.(i) ~upper_b:m.(i + 1) ())
    over;
  Dif.run_until_converged dif ~max_time:90. ();
  m

(* One rank-0 DIF per wire. *)
let wires net n =
  List.init n (fun i ->
      let dif, m = chain net (Printf.sprintf "wire%d" i) ~n:2 in
      connect_shim net dif m.(0) m.(1);
      Dif.run_until_converged dif ();
      (m.(0), m.(1)))

(* ---------- long-lived constant-rate flows ---------- *)

let cbr net fr flow ~size ~per_s ~until =
  let send = traced_send net flow in
  let interval = 1. /. per_s in
  let rec tick () =
    let now = Engine.now net.engine in
    if now < until then begin
      send (Workload.stamp_sealed ~now ~seq:fr.offered ~size);
      fr.offered <- fr.offered + 1;
      ignore (Engine.schedule net.engine ~delay:interval tick)
    end
  in
  fr.opened <- Engine.now net.engine;
  tick ()

(* One reliable flow per (source, destination) pair, each offering
   [size]-byte sealed SDUs at [per_s] for [duration] simulated
   seconds. *)
let long_flows net ~pairs ~size ~per_s ~duration =
  let opened = ref [] in
  let open_flows () =
    let pending = ref 0 in
    let requests =
      List.mapi
        (fun k (src, dst) ->
          let fr = new_flow () in
          net.flows <- net.flows @ [ fr ];
          let sink = Printf.sprintf "sink%d" k and source = Printf.sprintf "source%d" k in
          Ipcp.register_app dst (Types.apn sink) ~on_flow:(fun flow ->
              fr.efcp <- flow.Ipcp.flow_metrics () :: fr.efcp;
              on_receive net flow (sealed_sink net fr));
          Ipcp.register_app src (Types.apn source) ~on_flow:(fun _ -> ());
          let answer = ref None in
          incr pending;
          allocate net src ~src:source ~dst:sink (fun r ->
              decr pending;
              answer := Some r);
          (fr, answer))
        pairs
    in
    drive net ~timeout:30. (fun () -> !pending = 0);
    opened :=
      List.map
        (fun (fr, answer) ->
          match !answer with
          | Some (Ok flow) ->
            fr.efcp <- flow.Ipcp.flow_metrics () :: fr.efcp;
            fr.sender <- Some flow;
            (fr, flow)
          | Some (Error e) -> failwith ("flow allocation failed during set-up: " ^ e)
          | None -> failwith "flow allocation unanswered during set-up")
        requests
  in
  let start () =
    let until = Engine.now net.engine +. duration in
    List.iter (fun (fr, flow) -> cbr net fr flow ~size ~per_s ~until) !opened
  in
  { net; open_flows; start; run_for = duration +. drain }

(* 64 B SDUs: fixed per-PDU cost (events, EFCP acks and timers, relay
   decisions) dominates. *)
let relay_small =
  {
    name = "relay_small";
    round_s = 2.5;
    build =
      (fun ~seed ~shrink spans ->
        let net = make_net ~seed spans in
        let dif, n = chain net "relay" ~n:6 in
        for i = 0 to 4 do
          ignore (connect net dif n.(i) n.(i + 1))
        done;
        Dif.run_until_converged dif ();
        long_flows net
          ~pairs:[ (n.(0), n.(5)); (n.(5), n.(0)); (n.(1), n.(4)); (n.(4), n.(1)) ]
          ~size:64 ~per_s:1500. ~duration:(25. /. shrink));
  }

(* 8192 B SDUs delimited into 6 PDUs: per-byte cost (CRC, copies,
   delimiting) dominates. *)
let bulk_large =
  {
    name = "bulk_large";
    round_s = 3.0;
    build =
      (fun ~seed ~shrink spans ->
        let net = make_net ~seed spans in
        let dif, n = chain net "bulk" ~n:3 in
        ignore (connect net dif n.(0) n.(1));
        ignore (connect net dif n.(1) n.(2));
        Dif.run_until_converged dif ();
        long_flows net ~pairs:[ (n.(0), n.(2)) ] ~size:8192
          ~per_s:(60e6 /. (8192. *. 8.)) ~duration:(12. /. shrink));
  }

(* The same 1200 B, 10 Mb/s stream over the same 4 shim-wrapped wires,
   through 1, 2 or 3 ranks of DIFs.  Depth 3 is the paper's recursion
   (the examples/recursive_internet.ml shape): a link DIF per wire, two
   regional DIFs, one internet DIF. *)
let recursion ~depth =
  {
    name = Printf.sprintf "depth%d" depth;
    round_s = 0.9 *. float_of_int depth;
    build =
      (fun ~seed ~shrink spans ->
        let net = make_net ~seed spans in
        let src, dst =
          match depth with
          | 1 ->
            let dif, n = chain net "flat" ~n:5 in
            for i = 0 to 3 do
              connect_shim net dif n.(i) n.(i + 1)
            done;
            Dif.run_until_converged dif ();
            (n.(0), n.(4))
          | 2 ->
            let m = stacked net ~rank:1 "net" (wires net 4) in
            (m.(0), m.(4))
          | _ ->
            let w = Array.of_list (wires net 4) in
            let access = stacked net ~rank:1 "access" [ w.(0); w.(1) ] in
            let transit = stacked net ~rank:1 "transit" [ w.(2); w.(3) ] in
            let inet =
              stacked net ~rank:2 "inet" [ (access.(0), access.(2)); (transit.(0), transit.(2)) ]
            in
            (inet.(0), inet.(2))
        in
        long_flows net ~pairs:[ (src, dst) ] ~size:1200 ~per_s:(10e6 /. 9600.)
          ~duration:(10. /. shrink));
  }

(* Every SDU is encoded, sealed and carried by EFCP at each of 3 ranks:
   the only workload where the marginal cost of recursion shows. *)
let stack3 =
  {
    (recursion ~depth:3) with
    name = "stack3";
    round_s = 2.7;
  }

(* ---------- flow churn ---------- *)

let churn_nodes = 48

let churn_sdu = 1000

(* Payload bytes per flow-stamped SDU: the stamp's header and CRC
   trailer take 24. *)
let churn_payload = churn_sdu - 24

(* Hop counts between every pair of [n] nodes joined by the [edges]
   (keys [(a, b)]), by breadth-first search from each node. *)
let hop_counts n edges =
  let adj = Array.make n [] in
  Hashtbl.iter
    (fun (a, b) () ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edges;
  Array.init n (fun src ->
      let dist = Array.make n (-1) in
      let queue = Queue.create () in
      dist.(src) <- 0;
      Queue.push src queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun v ->
            if dist.(v) < 0 then begin
              dist.(v) <- dist.(u) + 1;
              Queue.push v queue
            end)
          adj.(u)
      done;
      dist)

(* Flow arrivals, Pareto sizes and link flaps: allocation, directory,
   routing and EFCP set-up dominate. *)
let churn =
  {
    name = "churn";
    round_s = 3.7;
    build =
      (fun ~seed ~shrink spans ->
        let net = make_net ~seed spans in
        let pair_rng = Prng.split net.rng in
        let arrival_rng = Prng.split net.rng in
        let size_rng = Prng.split net.rng in
        let flap_rng = Prng.split net.rng in
        let n = churn_nodes in
        let dif, nodes = chain net "churn" ~n in
        (* A spanning chain plus random extra edges up to average degree
           3, like Topo.random_graph; only extra edges flap, so the
           graph stays connected.  The graph is part of the workload, not
           of its inputs: it comes from a fixed seed, because per-seed
           graphs moved allocation per SDU by 5% between seeds. *)
        let graph_rng = Prng.create churn_nodes in
        let have = Hashtbl.create 128 in
        let add a b = Hashtbl.replace have (min a b, max a b) () in
        for i = 0 to n - 2 do
          add i (i + 1);
          ignore (connect net dif nodes.(i) nodes.(i + 1))
        done;
        let extra = ref [] in
        while Hashtbl.length have < n * 3 / 2 do
          let a = Prng.int graph_rng n and b = Prng.int graph_rng n in
          if a <> b && not (Hashtbl.mem have (min a b, max a b)) then begin
            add a b;
            extra := connect net dif nodes.(a) nodes.(b) :: !extra
          end
        done;
        let extra = Array.of_list (List.rev !extra) in
        Dif.run_until_converged dif ~max_time:(30. +. (2. *. float_of_int n)) ();
        let by_id = Hashtbl.create 4096 in
        let sink flow sdu =
          match Workload.read_flow sdu with
          | None -> net.stray <- net.stray + 1
          | Some fs -> (
            match Hashtbl.find_opt by_id fs.Workload.fs_flow with
            | None -> net.stray <- net.stray + 1
            | Some fr ->
              if fs.Workload.fs_seq <> fr.next then fr.bad <- fr.bad + 1
              else begin
                if fr.next = 0 then fr.efcp <- flow.Ipcp.flow_metrics () :: fr.efcp;
                deliver net fr ~sent:fs.Workload.fs_sent sdu;
                if fs.Workload.fs_fin then begin
                  complete net fr;
                  close net flow
                end
              end)
        in
        let open_flows () =
          Array.iteri
            (fun i ip ->
              Ipcp.register_app ip (Types.apn (Printf.sprintf "srv%d" i))
                ~on_flow:(fun flow -> on_receive net flow (sink flow));
              Ipcp.register_app ip (Types.apn (Printf.sprintf "cli%d" i)) ~on_flow:(fun _ -> ()))
            nodes;
          (* let the directory entries flood before the first request *)
          Engine.run ~until:(Engine.now net.engine +. 2.) net.engine
        in
        let arrivals_for = 5. /. shrink in
        (* Seeds should compare like with like, so the seed decides when
           each flow arrives, between which pair and with which size, but
           not how much traffic there is: exactly 1000 flows per second
           at sorted uniform times (a Poisson process conditioned on its
           count), and one Pareto draw (alpha 1.2, 2 KB minimum, 200 KB
           cap) per equal-probability stratum, shuffled. *)
        let count = int_of_float (1000. *. arrivals_for) in
        let times = Array.init count (fun _ -> Prng.float arrival_rng arrivals_for) in
        Array.sort Float.compare times;
        let sizes =
          Array.init count (fun k ->
              let u = (float_of_int k +. Prng.float size_rng 1.) /. float_of_int count in
              min 204_800 (int_of_float (2048. *. ((1. -. u) ** (-1. /. 1.2)))))
        in
        Prng.shuffle size_rng sizes;
        (* Pairs are drawn the same way: a few hundred large flows carry
           most SDUs, so their path lengths alone moved allocation and
           throughput per SDU by about 1% between seeds.  Flows taken
           largest first walk the pairs, sorted by hop count, along a
           golden-ratio sequence from a seeded phase; within one hop
           count the seed orders the pairs. *)
        let pair_of =
          let hops = hop_counts n have in
          let pairs =
            Array.of_list
              (List.concat_map
                 (fun s -> List.filter_map (fun d -> if d = s then None else Some (s, d)) (List.init n Fun.id))
                 (List.init n Fun.id))
          in
          Prng.shuffle pair_rng pairs;
          Array.stable_sort (fun (a, b) (c, d) -> compare hops.(a).(b) hops.(c).(d)) pairs;
          let by_size = Array.init count Fun.id in
          Array.stable_sort (fun i j -> compare sizes.(j) sizes.(i)) by_size;
          let phase = Prng.float pair_rng 1. and golden = (Float.sqrt 5. -. 1.) /. 2. in
          let pair_of = Array.make count (0, 0) in
          Array.iteri
            (fun rank id ->
              let u = Float.rem (phase +. (float_of_int rank *. golden)) 1. in
              pair_of.(id) <- pairs.(int_of_float (u *. float_of_int (Array.length pairs))))
            by_size;
          pair_of
        in
        let arrive id () =
          let src, dst = pair_of.(id) in
          let fr = new_flow () in
          fr.opened <- Engine.now net.engine;
          Hashtbl.replace by_id id fr;
          net.flows <- fr :: net.flows;
          allocate net nodes.(src) ~src:(Printf.sprintf "cli%d" src)
            ~dst:(Printf.sprintf "srv%d" dst) (function
            | Error _ -> fr.failed_alloc <- true
            | Ok flow ->
              fr.efcp <- flow.Ipcp.flow_metrics () :: fr.efcp;
              let send = traced_send net flow in
              let now = Engine.now net.engine in
              let sdus = (sizes.(id) + churn_payload - 1) / churn_payload in
              for seq = 0 to sdus - 1 do
                send (Workload.stamp_flow ~now ~flow:id ~seq ~fin:(seq = sdus - 1) ~size:churn_sdu);
                fr.offered <- fr.offered + 1
              done)
        in
        let start () =
          let t0 = Engine.now net.engine in
          Array.iteri
            (fun id t -> ignore (Engine.schedule_at net.engine ~time:(t0 +. t) (arrive id)))
            times;
          let plan = Fault.create () in
          let period = 2. /. shrink in
          let k = ref 1 in
          while float_of_int !k *. period < arrivals_for do
            let at = t0 +. (float_of_int !k *. period) in
            Fault.link_down plan ~at ~until:(at +. (0.5 /. shrink)) (Prng.pick flap_rng extra);
            incr k
          done;
          Fault.arm plan net.engine
        in
        { net; open_flows; start; run_for = arrivals_for +. churn_drain });
  }

let all = [ relay_small; bulk_large; stack3; churn ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
