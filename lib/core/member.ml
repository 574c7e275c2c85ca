module Chan = Rina_sim.Chan
module Engine = Rina_sim.Engine
module Metrics = Rina_util.Metrics
module Flight = Rina_util.Flight
module Invariant = Rina_util.Invariant

type flow = {
  port_id : Types.port_id;
  qos : Qos.t;
  remote_app : Types.apn;
  send : bytes -> unit;
  set_on_receive : (bytes -> unit) -> unit;
  set_on_error : (string -> unit) -> unit;
  close : unit -> unit;
  flow_metrics : unit -> Metrics.t;
  congested : unit -> bool;
}

(* Per-flow endpoint state held by the IPC process. *)
type flow_state = {
  fs_port : Types.port_id;
  fs_local_cep : Types.cep_id;
  fs_remote_cep : Types.cep_id;
  fs_remote_addr : Types.address;
  fs_local_app : Types.apn;
  fs_remote_app : Types.apn;
  fs_qos : Qos.t;
  fs_efcp : Efcp.t;
  fs_reasm : Delimiting.reassembler;
  mutable fs_on_receive : bytes -> unit;
  mutable fs_on_error : string -> unit;
  mutable fs_closed : bool;
}

type app_reg = { ar_name : Types.apn; ar_on_flow : flow -> unit }

(* Management view of an RMT port. *)
type nport = {
  np_id : Types.port_id;
  np_chan : Chan.t;
  np_cost : float;
  mutable np_peer : Types.address;  (* 0 until the peer's hello *)
  mutable np_last_hello : float;
  mutable np_last_seen : float;
      (* any proof of life: hello, keepalive probe or reply.  Drives
         the dead-peer declaration, which is stricter than mere
         adjacency expiry: it withdraws the peer's LSA DIF-wide. *)
}

type enroll_state = E_none | E_pending of Types.port_id

type request = {
  rq_class : string;  (* the object class its reply must carry *)
  rq_timeout : Engine.handle;
  rq_reply : Riep.t -> unit;
}

(* The RIEP requests this member is waiting on, keyed by invoke id. *)
type requests = {
  outstanding : (int, request) Hashtbl.t;
  mutable next_invoke : int;
}

type t = {
  engine : Engine.t;
  name : Types.apn;
  dif : Types.dif_name;
  policy : Policy.t;
  credentials : string;
  qos_cubes : Qos.t list;
  rib : Rib.t;
  rmt : Rmt.t;
  lsdb : Routing.t;
  metrics : Metrics.t;
  flight : Flight.recorder;  (* the engine's *)
  rank : int;  (* DIF rank stamped on flight-recorder events *)
  nports : (Types.port_id, nport) Hashtbl.t;
  flows : (Types.cep_id, flow_state) Hashtbl.t;
  apps : (string, app_reg) Hashtbl.t;
  requests : requests;
  mutable address : Types.address;
  mutable enrolled : bool;
  mutable enroll_state : enroll_state;
  mutable next_cep : int;
  mutable next_flow_port : int;
  mutable next_hops : Routing.next_hops;
  mutable ecmp_hops : (Types.address, Types.address list * float) Hashtbl.t;
      (* equal-cost first hops per destination; maintained only while
         the multipath monitor is armed (policy probe_interval > 0) *)
  mutable routes_version : int;
  mutable routes_address : Types.address;
      (* the LSDB's graph version and our address when [next_hops] was
         computed; -1 when it never was *)
  mutable chosen_poa : (Types.address, Types.port_id) Hashtbl.t;
  mutable own_lsa_seq : int;
  mutable last_adjacency : (Types.address * float) list;
  mutable recompute_scheduled : bool;
  mutable enrolled_hooks : (unit -> unit) list;
  mutable hello_ticks : int;
  mutable ae_round : int;
      (* round-robin cursor of the anti-entropy sweep over adjacent
         ports *)
  mutable auto_enroll : bool;
      (* join automatically when a member's hello is seen; cleared by
         [leave] so a deliberate departure sticks *)
  mutable isolation_watchers : (bool -> unit) list;
      (* fired with [true] = attached when the live-adjacency set flips
         between empty and non-empty *)
  mutable was_attached : bool;
  mutable up : bool;
      (* false between [crash] and [restart]: timers keep rescheduling
         but their bodies no-op, and the ingress filter drops
         everything *)
  rng : Rina_util.Prng.t;
      (* private stream for enrollment backoff jitter; seeded from the
         (dif, name) pair so runs stay deterministic *)
  mpath : Multipath.t;
      (* per-port path health + striping state; inert (every path Up,
         no probes) unless policy [multipath] arms the monitor *)
}

let create engine ~credentials ~qos_cubes ~rank ~name ~dif ~policy =
  let rec t =
    lazy
      {
        engine;
        name;
        dif;
        policy;
        credentials;
        qos_cubes;
        rib = Rib.create ();
        rmt =
          Rmt.create engine
            ~own_address:(fun () -> (Lazy.force t).address)
            ~scheduler:policy.Policy.scheduler
            ~congestion:policy.Policy.congestion ~label:("rmt:" ^ dif) ~rank ();
        lsdb = Routing.create ();
        metrics = Metrics.create ();
        flight = Engine.flight engine;
        rank;
        nports = Hashtbl.create 8;
        flows = Hashtbl.create 16;
        apps = Hashtbl.create 8;
        requests = { outstanding = Hashtbl.create 8; next_invoke = 1 };
        address = Types.no_address;
        enrolled = false;
        enroll_state = E_none;
        next_cep = 1;
        next_flow_port = 1;
        next_hops = Hashtbl.create 1;
        chosen_poa = Hashtbl.create 8;
        own_lsa_seq = 0;
        last_adjacency = [];
        recompute_scheduled = false;
        enrolled_hooks = [];
        hello_ticks = 0;
        ae_round = 0;
        auto_enroll = true;
        isolation_watchers = [];
        was_attached = false;
        up = true;
        rng =
          Rina_util.Prng.create
            (Hashtbl.hash (dif, Types.apn_to_string name, "ipcp-backoff"));
        ecmp_hops = Hashtbl.create 1;
        routes_version = -1;
        routes_address = Types.no_address;
        mpath =
          Multipath.create policy.Policy.multipath
            ~rng:
              (Rina_util.Prng.create
                 (Hashtbl.hash (dif, Types.apn_to_string name, "multipath")));
      }
  in
  Lazy.force t

let flight_comp t = t.dif ^ ":" ^ Types.apn_to_string t.name

(* The member's own events; call under [Flight.on t.flight]. *)
let flight_emit t ~flow kind =
  Flight.emit_to t.flight ~component:(flight_comp t) ~flow ~rank:t.rank kind

(* The RIB and the LSDB hold no engine, so the member observes their
   changes itself.  Every RIB write is emitted and checked: SAN_RIB_PATH
   flags an object name that is not an absolute slash-separated path,
   since a relative, empty or slash-doubled one silently partitions the
   namespace ([Rib.children] and prefix scans never see it).  Deletes
   and accepted LSAs are emitted too. *)
let rib_written t path =
  let c = Engine.checks t.engine in
  (if Invariant.enabled c then
     match String.split_on_char '/' path with
     | "" :: (_ :: _ as names) when not (List.mem "" names) -> ()
     | _ ->
       Invariant.record c ~code:"SAN_RIB_PATH"
         (Printf.sprintf "malformed RIB object name %S" path));
  if Flight.on t.flight then
    Flight.emit_to t.flight ~component:"rib" (Flight.Custom "rib_write")

let rib_write t path value =
  rib_written t path;
  Rib.write t.rib path value

let rib_delete t path =
  let deleted = Rib.delete t.rib path in
  if deleted && Flight.on t.flight then
    Flight.emit_to t.flight ~component:"rib" (Flight.Custom "rib_delete");
  deleted

(* An accepted LSA is a routing-state change: its event carries the
   origin as the flow field and the LSA sequence number. *)
let install_lsa t (lsa : Routing.Lsa.t) =
  let accepted = Routing.install ~now:(Engine.now t.engine) t.lsdb lsa in
  if accepted && Flight.on t.flight then
    Flight.emit_to t.flight ~component:"routing" ~flow:lsa.origin ~seq:lsa.seq
      Flight.Route_update;
  accepted

let qos_cube t id =
  match Qos.find t.qos_cubes id with Some q -> q | None -> Qos.best_effort

(* ---------- port / adjacency helpers ---------- *)

let nport_alive t np =
  np.np_chan.Chan.is_up ()
  && Engine.now t.engine -. np.np_last_hello <= t.policy.Policy.routing.Policy.dead_interval

(* A live adjacency: a known peer behind a port that still lives. *)
let adjacent t np = np.np_peer > 0 && nport_alive t np

(* Live (neighbour, cost) pairs, one entry per distinct peer (cheapest
   point of attachment). *)
let adjacency_set t =
  let best : (Types.address, float) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ np ->
      if adjacent t np then
        match Hashtbl.find_opt best np.np_peer with
        | Some c when c <= np.np_cost -> ()
        | Some _ | None -> Hashtbl.replace best np.np_peer np.np_cost)
    t.nports;
  Hashtbl.fold (fun addr cost acc -> (addr, cost) :: acc) best []
  |> List.sort compare

(* [adjacency_set t <> []] without building the set: a flow-backed
   channel of an upper DIF asks this per PDU. *)
let has_live_adjacency t =
  Hashtbl.fold (fun _ np live -> live || adjacent t np) t.nports false

(* No live sticky point of attachment to [peer]: choose the live port
   with the lowest id (port ids start at 1), accounting a local
   failover when there was a sticky choice to lose. *)
let rechoose_port t peer =
  let lowest =
    Hashtbl.fold
      (fun _ np best ->
        if np.np_peer = peer && nport_alive t np && (best = 0 || np.np_id < best)
        then np.np_id
        else best)
      t.nports 0
  in
  if lowest = 0 then begin
    Hashtbl.remove t.chosen_poa peer;
    None
  end
  else begin
    if Hashtbl.mem t.chosen_poa peer then begin
      (* Previous point of attachment died: local failover, no routing
         update needed beyond this hop. *)
      if Flight.on t.flight then flight_emit t ~flow:peer Flight.Handoff;
      Metrics.incr t.metrics "local_reroute"
    end;
    Hashtbl.replace t.chosen_poa peer lowest;
    Some lowest
  end

(* Second routing step (Fig. 4): choose the point of attachment to a
   neighbour among possibly several ports, with stickiness so we can
   count genuine failovers.  While the sticky port lives it is the
   answer, which is what the scan would return; the scan runs only
   on first use and after it dies. *)
let port_to_peer t peer =
  match Hashtbl.find t.chosen_poa peer with
  | p -> (
    match Hashtbl.find t.nports p with
    | np when np.np_peer = peer && nport_alive t np -> Some p
    | _ -> rechoose_port t peer
    | exception Not_found -> rechoose_port t peer)
  | exception Not_found -> rechoose_port t peer

(* Legacy single-path forwarding: one next hop, one sticky point of
   attachment.  Still the whole story when the multipath monitor is
   disarmed; the label-aware dispatch lives in [forward]. *)
let forward_single t (pdu : Pdu.t) =
  match Hashtbl.find t.next_hops pdu.Pdu.dst_addr with
  | next_hop, _ -> port_to_peer t next_hop
  | exception Not_found -> None

(* ---------- multipath forwarding ---------- *)

(* Candidate path set toward [dst]: the live ports attached to each
   equal-cost next hop, (port, cost) sorted by port id.  Falls back to
   the single-path table while an SPF with ECMP data is still
   pending. *)
let multipath_candidates t dst =
  let hops =
    match Hashtbl.find_opt t.ecmp_hops dst with
    | Some (fhs, _) when fhs <> [] -> fhs
    | Some _ | None -> (
      match Hashtbl.find_opt t.next_hops dst with
      | Some (nh, _) -> [ nh ]
      | None -> [])
  in
  if hops = [] then []
  else
    Hashtbl.fold
      (fun _ np acc ->
        if List.mem np.np_peer hops && nport_alive t np then
          (np.np_id, np.np_cost) :: acc
        else acc)
      t.nports []
    |> List.sort compare

(* rr_key 3 = management traffic: its cursor never interleaves with
   the data labels (0..2), and mgmt always rides primary-backup so
   RIEP exchanges stay ordered. *)
let forward t (pdu : Pdu.t) =
  if not (Multipath.enabled t.mpath) then forward_single t pdu
  else
    match multipath_candidates t pdu.Pdu.dst_addr with
    | [] -> None
    | candidates ->
      let mode, rr_key =
        match pdu.Pdu.pdu_type with
        | Pdu.Mgmt | Pdu.Hello -> (Policy.Primary_backup, 3)
        | Pdu.Dtp | Pdu.Ack ->
          let label = Multipath.label_of_qos (qos_cube t pdu.Pdu.qos_id) in
          (Multipath.mode_for t.mpath label, Multipath.label_index label)
      in
      Multipath.select t.mpath ~dst:pdu.Pdu.dst_addr ~mode ~rr_key ~candidates

(* The drop-reason refinement installed into the RMT: a routed
   destination whose entire candidate set is Down is a path-down drop,
   not a no-route one. *)
let unroutable_reason t (pdu : Pdu.t) =
  if
    Multipath.enabled t.mpath
    && multipath_candidates t pdu.Pdu.dst_addr <> []
  then Flight.R_path_down
  else Flight.R_no_route

(* ---------- management PDU transmission ---------- *)

(* The PDU carrying [msg], counted and recorded as sent. *)
let mgmt_pdu t ~dst msg =
  Metrics.incr t.metrics "mgmt_tx";
  if Flight.on t.flight then
    flight_emit t ~flow:0 (Flight.Custom ("riep_tx:" ^ Riep.trace_label msg));
  Pdu.make ~pdu_type:Pdu.Mgmt ~dst_addr:dst ~src_addr:t.address
    ~ttl:t.policy.Policy.max_ttl (Riep.encode msg)

let send_mgmt t ~dst msg =
  ignore (Rmt.send t.rmt (mgmt_pdu t ~dst msg) : Types.port_id option)

let send_mgmt_on_port t ~port msg =
  Rmt.send_on_port t.rmt port (mgmt_pdu t ~dst:Types.no_address msg)

let adjacent_ports t =
  Hashtbl.fold (fun _ np acc -> if adjacent t np then np :: acc else acc) t.nports []

(* Send [msg] to every live adjacency but [except_port] (the one it
   came in on), bumping the [tally] counter once per copy. *)
let flood t ?except_port ?tally msg =
  List.iter
    (fun np ->
      match except_port with
      | Some p when p = np.np_id -> ()
      | Some _ | None ->
        (match tally with Some c -> Metrics.incr t.metrics c | None -> ());
        send_mgmt_on_port t ~port:np.np_id msg)
    (adjacent_ports t)

(* ---------- outstanding requests ---------- *)

let fresh_invoke t =
  let invoke = t.requests.next_invoke in
  t.requests.next_invoke <- invoke + 1;
  invoke

let await t invoke ~obj_class ~delay ~on_timeout reply =
  let timeout =
    Engine.schedule t.engine ~delay (fun () ->
        if Hashtbl.mem t.requests.outstanding invoke then begin
          Hashtbl.remove t.requests.outstanding invoke;
          on_timeout ()
        end)
  in
  Hashtbl.replace t.requests.outstanding invoke
    { rq_class = obj_class; rq_timeout = timeout; rq_reply = reply }

let answer t (msg : Riep.t) =
  match Hashtbl.find_opt t.requests.outstanding msg.Riep.invoke_id with
  | Some rq when String.equal rq.rq_class msg.Riep.obj_class ->
    Hashtbl.remove t.requests.outstanding msg.Riep.invoke_id;
    Engine.cancel rq.rq_timeout;
    rq.rq_reply msg
  | Some _ | None -> ()

let cancel_requests t =
  Hashtbl.iter (fun _ rq -> Engine.cancel rq.rq_timeout) t.requests.outstanding;
  Hashtbl.reset t.requests.outstanding
