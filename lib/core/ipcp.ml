module Chan = Rina_sim.Chan
module Engine = Rina_sim.Engine
module Metrics = Rina_util.Metrics
module Flight = Rina_util.Flight
module Invariant = Rina_util.Invariant
module W = Rina_util.Codec.Writer
module R = Rina_util.Codec.Reader

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

type pending_alloc = {
  pa_on_result : (flow, string) result -> unit;
  pa_local_cep : Types.cep_id;
  pa_port : Types.port_id;
  pa_qos : Qos.t;
  pa_src_app : Types.apn;
  pa_dst_app : Types.apn;
  pa_dst_addr : Types.address;
  pa_timeout : Engine.handle;
  pa_on_busy : unit -> unit;
      (* result-4 (admission busy) handler: schedules a backed-off
         re-request instead of surfacing an error *)
}

type app_reg = { ar_name : Types.apn; ar_on_flow : flow -> unit }

(* Management view of an RMT port. *)
type nport = {
  np_id : Types.port_id;
  np_chan : Chan.t;
  np_cost : float;
  mutable np_peer : Types.address;  (* 0 until the peer's hello *)
  mutable np_peer_name : string;
  mutable np_last_hello : float;
  mutable np_last_seen : float;
      (* any proof of life: hello, keepalive probe or reply.  Drives
         the dead-peer declaration, which is stricter than mere
         adjacency expiry: it withdraws the peer's LSA DIF-wide. *)
}

type enroll_state = E_none | E_pending of Types.port_id

(* A member waiting for the namespace manager to grant an address for
   a joiner it is admitting. *)
type pending_grant = {
  pg_port : Types.port_id;
  pg_invoke : int;  (* invoke id of the joiner's M_CONNECT *)
  pg_timeout : Engine.handle;
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
  pending : (int, pending_alloc) Hashtbl.t;
  pending_grants : (int, pending_grant) Hashtbl.t;
  mutable address : Types.address;
  mutable enrolled : bool;
  mutable enroll_state : enroll_state;
  mutable next_cep : int;
  mutable next_flow_port : int;
  mutable next_invoke : int;
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

(* ---------- small codecs for management payloads ---------- *)

(* Identity announcements carry a token proving knowledge of the DIF's
   shared secret, so an outsider cannot claim a member address and get
   past the ingress filter.  (A real deployment would use a MAC; the
   *structure* — membership gates the data plane — is what §6.1
   claims.)  With [Auth_none] the token is trivially forgeable, which
   faithfully models a public DIF with weak joining requirements. *)
let hello_token t ~name ~addr =
  let secret =
    match t.policy.Policy.auth with
    | Policy.Auth_none -> ""
    | Policy.Auth_password s -> s
  in
  Sdu_protection.crc32
    (Bytes.of_string (Printf.sprintf "%s|%s|%d" secret name addr))

let encode_hello t =
  let w = W.create () in
  let name = Types.apn_to_string t.name in
  W.string w name;
  W.u32 w t.address;
  W.u32 w (hello_token t ~name ~addr:t.address);
  W.contents w

let decode_hello data =
  try
    let r = R.create data in
    let name = R.string r in
    let addr = R.u32 r in
    let token = R.u32 r in
    R.expect_end r;
    Ok (name, addr, token)
  with R.Decode_error msg -> Error msg

type flow_req = {
  fr_src_app : Types.apn;
  fr_dst_app : Types.apn;
  fr_qos_id : Types.qos_id;
  fr_src_addr : Types.address;
  fr_src_cep : Types.cep_id;
}

let encode_flow_req fr =
  let w = W.create () in
  W.string w (Types.apn_to_string fr.fr_src_app);
  W.string w (Types.apn_to_string fr.fr_dst_app);
  W.u16 w fr.fr_qos_id;
  W.u32 w fr.fr_src_addr;
  W.u32 w fr.fr_src_cep;
  W.contents w

let decode_flow_req data =
  try
    let r = R.create data in
    let fr_src_app = Types.apn_of_string (R.string r) in
    let fr_dst_app = Types.apn_of_string (R.string r) in
    let fr_qos_id = R.u16 r in
    let fr_src_addr = R.u32 r in
    let fr_src_cep = R.u32 r in
    R.expect_end r;
    Ok { fr_src_app; fr_dst_app; fr_qos_id; fr_src_addr; fr_src_cep }
  with R.Decode_error msg -> Error msg

(* ---------- the directory ---------- *)

let dir_path apn = "/dir/" ^ Types.apn_to_string apn

let in_dir path = String.starts_with ~prefix:"/dir/" path

(* The replicated directory entries, sorted by path.  A prefix scan,
   not [Rib.children]: directory paths are /dir/<name>/<instance> —
   two levels below /dir — so a one-level listing would miss every
   entry. *)
let dir_entries t = List.filter (fun (path, _) -> in_dir path) (Rib.dump t.rib)

(* Enrollment snapshot: address grant plus the member's replicated
   state (directory + link-state DB). *)
let encode_snapshot t ~granted =
  let w = W.create () in
  W.u32 w granted;
  let entries = dir_entries t in
  W.u16 w (List.length entries);
  List.iter
    (fun (path, v) ->
      W.string w path;
      Rib.encode_value w v)
    entries;
  let lsas = Routing.all t.lsdb in
  W.u16 w (List.length lsas);
  List.iter (fun lsa -> W.bytes w (Routing.Lsa.encode lsa)) lsas;
  W.contents w

let decode_snapshot data =
  try
    let r = R.create data in
    let granted = R.u32 r in
    let n = R.u16 r in
    let entries =
      List.init n (fun _ ->
          let path = R.string r in
          let v = Rib.decode_value r in
          (path, v))
    in
    let m = R.u16 r in
    let lsas =
      List.init m (fun _ ->
          match Routing.Lsa.decode (R.bytes r) with
          | Ok lsa -> lsa
          | Error msg -> raise (R.Decode_error msg))
    in
    R.expect_end r;
    Ok (granted, entries, lsas)
  with R.Decode_error msg -> Error msg

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
   disarmed; the label-aware dispatch lives below [qos_cube]. *)
let forward_single t (pdu : Pdu.t) =
  match Hashtbl.find t.next_hops pdu.Pdu.dst_addr with
  | next_hop, _ -> port_to_peer t next_hop
  | exception Not_found -> None

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

(* ---------- flooding ---------- *)

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

let lsa_msg lsa =
  Riep.make ~opcode:Riep.M_write ~obj_class:"lsa"
    ~obj_name:(string_of_int lsa.Routing.Lsa.origin)
    ~obj_value:(Rib.V_bytes (Routing.Lsa.encode lsa))
    ()

(* Versioned RIB updates: floods are stamped with the (origin, version)
   pair the local store holds for the path, so replicas can reject
   stale and duplicate copies.  Paths never written through the
   versioned API carry (0, 0), which receivers treat with the legacy
   accept-if-value-differs rule. *)
let rib_write_msg t path value =
  let origin, version =
    match Rib.version_of t.rib path with Some ov -> ov | None -> (0, 0)
  in
  Riep.make ~opcode:Riep.M_write ~obj_class:"rib" ~obj_name:path
    ~obj_value:value ~version ~origin ()

let flood_rib_write t ?except_port path value =
  flood t ?except_port
    ?tally:(if in_dir path then Some "dir_tx" else None)
    (rib_write_msg t path value)

let flood_rib_delete t ?except_port path =
  flood t ?except_port
    (Riep.make ~opcode:Riep.M_delete ~obj_class:"rib" ~obj_name:path ())

(* ---------- link-state origination and withdrawal ---------- *)

let schedule_recompute t =
  if not t.recompute_scheduled then begin
    t.recompute_scheduled <- true;
    ignore
      (Engine.schedule t.engine ~delay:0. (fun () ->
           t.recompute_scheduled <- false;
           (* A refresh re-floods an unchanged graph; the tables computed
              from it still hold (RFC 2328 section 13.2). *)
           let version = Routing.graph_version t.lsdb in
           if version <> t.routes_version || t.address <> t.routes_address
           then begin
             t.routes_version <- version;
             t.routes_address <- t.address;
             t.next_hops <- Routing.spf t.lsdb ~source:t.address;
             if Multipath.enabled t.mpath then
               t.ecmp_hops <- Routing.spf_multi t.lsdb ~source:t.address
           end;
           Metrics.incr t.metrics "spf_runs"))
  end

(* Our own LSA, under the next sequence number: installed locally and
   flooded to every live adjacency. *)
let originate_lsa t neighbors =
  t.own_lsa_seq <- t.own_lsa_seq + 1;
  let lsa = { Routing.Lsa.origin = t.address; seq = t.own_lsa_seq; neighbors } in
  ignore (install_lsa t lsa);
  flood t ~tally:"lsa_tx" (lsa_msg lsa)

let rebuild_own_lsa t =
  if t.enrolled then begin
    let adj = adjacency_set t in
    let attached = adj <> [] in
    if attached <> t.was_attached then begin
      t.was_attached <- attached;
      (* This process just lost (or regained) all points of attachment;
         flows through it are dead (alive) — tell local holders of
         flow-backed channels (mobility's "controlled link failure"). *)
      List.iter (fun f -> f attached) t.isolation_watchers
    end;
    if adj <> t.last_adjacency then begin
      t.last_adjacency <- adj;
      originate_lsa t adj;
      schedule_recompute t
    end
  end

(* LSA withdrawal, when an origin is declared dead (by the dead-peer
   timeout), aged out or withdrawn by a neighbour, so stale
   reachability does not linger in every member's database until the
   heat death of the simulation.  [withdraw] is idempotent, so the
   flood terminates exactly like LSA flooding does: the second copy
   finds nothing to remove and is not propagated. *)
let withdraw_lsa t ?except_port ~tally origin =
  if Routing.withdraw t.lsdb origin then begin
    Metrics.incr t.metrics tally;
    flood t ?except_port ~tally:"lsa_withdraw_tx"
      (Riep.make ~opcode:Riep.M_delete ~obj_class:"lsa"
         ~obj_name:(string_of_int origin) ());
    schedule_recompute t
  end

(* ---------- hello protocol ---------- *)

let send_hello t np =
  Rmt.send_on_port t.rmt np.np_id
    (Pdu.make ~pdu_type:Pdu.Hello ~dst_addr:Types.no_address ~src_addr:t.address
       (encode_hello t))

(* Database exchange on adjacency establishment: a freshly-risen
   adjacency may separate two parts of the DIF that hold different
   state (enrollment races, mobility re-attachment), so push our whole
   LSDB and directory to the new peer. *)
let sync_peer t np =
  if t.enrolled then begin
    List.iter
      (fun lsa ->
        Metrics.incr t.metrics "lsa_tx";
        send_mgmt_on_port t ~port:np.np_id (lsa_msg lsa))
      (Routing.all t.lsdb);
    List.iter
      (fun (path, v) ->
        Metrics.incr t.metrics "dir_tx";
        send_mgmt_on_port t ~port:np.np_id (rib_write_msg t path v))
      (dir_entries t)
  end

(* One M_connect attempt plus its timeout; on expiry, back off
   exponentially (jitter from the process-private PRNG) and try again
   up to [enroll_retries] times before giving up until the next
   hello. *)
let rec enroll_attempt t np ~attempt =
  send_mgmt_on_port t ~port:np.np_id
    (Riep.make ~opcode:Riep.M_connect ~obj_class:"enrollment"
       ~obj_name:(Types.apn_to_string t.name)
       ~obj_value:(Rib.V_str t.credentials) ());
  let en = t.policy.Policy.enrollment in
  ignore
    (Engine.schedule t.engine ~delay:en.Policy.enroll_timeout (fun () ->
         match t.enroll_state with
         | E_pending p when p = np.np_id && not t.enrolled ->
           Metrics.incr t.metrics "enroll_timeout";
           if attempt < en.Policy.enroll_retries && t.up then begin
             Metrics.incr t.metrics "enroll_retries";
             let delay =
               Rina_util.Backoff.delay_for ~rng:t.rng
                 ~base:(Float.max 1e-6 en.Policy.retry_backoff)
                 attempt
             in
             ignore
               (Engine.schedule t.engine ~delay (fun () ->
                    match t.enroll_state with
                    | E_pending p when p = np.np_id && not t.enrolled && t.up ->
                      enroll_attempt t np ~attempt:(attempt + 1)
                    | E_pending _ | E_none -> ()))
           end
           else
             (* Out of retries; a later hello will start over. *)
             t.enroll_state <- E_none
         | E_pending _ | E_none -> ()))

and start_enrollment t np =
  if t.auto_enroll && t.enroll_state = E_none && not t.enrolled then begin
    t.enroll_state <- E_pending np.np_id;
    enroll_attempt t np ~attempt:0
  end

and handle_hello t port_id (pdu : Pdu.t) =
  match Hashtbl.find_opt t.nports port_id with
  | None -> ()
  | Some np -> (
    match decode_hello (Pdu.bytes_of_view pdu.Pdu.payload) with
    | Error _ -> Metrics.incr t.metrics "bad_hello"
    | Ok (peer_name, peer_addr, token)
      when peer_addr > 0 && token <> hello_token t ~name:peer_name ~addr:peer_addr
      ->
      ignore peer_name;
      Metrics.incr t.metrics "hello_rejected"
    | Ok (peer_name, peer_addr, _) ->
      np.np_last_hello <- Engine.now t.engine;
      np.np_last_seen <- Engine.now t.engine;
      np.np_peer_name <- peer_name;
      if np.np_peer <> peer_addr then begin
        np.np_peer <- peer_addr;
        (* Refresh our own LSA first so the database pushed to the new
           peer already contains the adjacency that just formed. *)
        rebuild_own_lsa t;
        if peer_addr > 0 then sync_peer t np
      end
      else rebuild_own_lsa t;
      if (not t.enrolled) && peer_addr > 0 then start_enrollment t np)

(* ---------- enrollment (member side) ---------- *)

(* The namespace manager: the DIF's founding member (address 1) is
   the single allocator, so concurrent enrollments through different
   members can never be granted the same address.  (The paper's §6.1:
   management applications assign internal addresses; replicating the
   allocator is a policy refinement left out here.) *)
let namespace_manager_addr = 1

let local_grant t =
  let next_free =
    match Rib.read_int t.rib "/dif/next_free" with Some n -> n | None -> 2
  in
  rib_write t "/dif/next_free" (Rib.V_int (next_free + 1));
  next_free

let finish_admission t port_id ~invoke ~granted =
  Metrics.incr t.metrics "enroll_accepted";
  send_mgmt_on_port t ~port:port_id
    (Riep.make ~opcode:Riep.M_connect_r ~obj_class:"enrollment" ~invoke_id:invoke
       ~result:0
       ~obj_value:(Rib.V_bytes (encode_snapshot t ~granted))
       ())

let deny_admission t port_id ~invoke reason =
  Metrics.incr t.metrics "enroll_denied";
  send_mgmt_on_port t ~port:port_id
    (Riep.make ~opcode:Riep.M_connect_r ~obj_class:"enrollment" ~invoke_id:invoke
       ~result:1 ~result_reason:reason ())

let handle_connect t port_id (msg : Riep.t) =
  if not t.enrolled then () (* cannot admit anyone *)
  else begin
    let presented =
      match msg.Riep.obj_value with Some (Rib.V_str s) -> Some s | Some _ | None -> None
    in
    let authenticated =
      match t.policy.Policy.auth with
      | Policy.Auth_none -> true
      | Policy.Auth_password secret -> (
        match presented with Some s -> String.equal s secret | None -> false)
    in
    if not authenticated then
      deny_admission t port_id ~invoke:msg.Riep.invoke_id "authentication failed"
    else if t.address = namespace_manager_addr then
      finish_admission t port_id ~invoke:msg.Riep.invoke_id ~granted:(local_grant t)
    else begin
      (* Ask the namespace manager for an address over routed
         management; the joiner retries enrollment if this times out
         (e.g. before our route to the manager converges). *)
      let invoke = t.next_invoke in
      t.next_invoke <- t.next_invoke + 1;
      let timeout =
        Engine.schedule t.engine ~delay:1.5 (fun () ->
            if Hashtbl.mem t.pending_grants invoke then begin
              Hashtbl.remove t.pending_grants invoke;
              Metrics.incr t.metrics "grant_timeout"
            end)
      in
      Hashtbl.replace t.pending_grants invoke
        { pg_port = port_id; pg_invoke = msg.Riep.invoke_id; pg_timeout = timeout };
      send_mgmt t ~dst:namespace_manager_addr
        (Riep.make ~opcode:Riep.M_read ~obj_class:"addr-alloc"
           ~obj_name:msg.Riep.obj_name ~invoke_id:invoke ())
    end
  end

(* Namespace-manager side of an address request. *)
let handle_addr_alloc t (msg : Riep.t) ~from_addr =
  if t.address = namespace_manager_addr then begin
    let granted = local_grant t in
    Metrics.incr t.metrics "addr_granted";
    send_mgmt t ~dst:from_addr
      (Riep.make ~opcode:Riep.M_read_r ~obj_class:"addr-alloc"
         ~obj_name:msg.Riep.obj_name ~invoke_id:msg.Riep.invoke_id
         ~obj_value:(Rib.V_int granted) ())
  end

(* The reply to our address request, matched by invoke id.  It arrives
   routed, so only a holder of the DIF's hello token can forge one; even
   so, only an address the wire format can carry is a grant. *)
let handle_addr_alloc_r t (msg : Riep.t) =
  match Hashtbl.find_opt t.pending_grants msg.Riep.invoke_id with
  | None -> ()
  | Some pg -> (
    Hashtbl.remove t.pending_grants msg.Riep.invoke_id;
    Engine.cancel pg.pg_timeout;
    match msg.Riep.obj_value with
    | Some (Rib.V_int granted) when granted >= 1 && granted <= 0xFFFFFFFF ->
      finish_admission t pg.pg_port ~invoke:pg.pg_invoke ~granted
    | Some _ | None -> deny_admission t pg.pg_port ~invoke:pg.pg_invoke "allocation failed")

(* ---------- enrollment (joiner side) ---------- *)

let run_enrolled_hooks t =
  let hooks = List.rev t.enrolled_hooks in
  t.enrolled_hooks <- [];
  List.iter (fun f -> f ()) hooks

let handle_connect_r t port_id (msg : Riep.t) =
  match t.enroll_state with
  | E_none -> ()
  | E_pending p when p <> port_id -> ()
  | E_pending _ ->
    if msg.Riep.result <> 0 then begin
      t.enroll_state <- E_none;
      Metrics.incr t.metrics "enroll_rejected"
    end
    else begin
      match msg.Riep.obj_value with
      | Some (Rib.V_bytes data) -> (
        match decode_snapshot data with
        | Error _ ->
          t.enroll_state <- E_none;
          Metrics.incr t.metrics "enroll_bad_snapshot"
        | Ok (granted, entries, lsas) ->
          t.address <- granted;
          List.iter (fun (path, v) -> rib_write t path v) entries;
          List.iter
            (fun lsa -> ignore (install_lsa t lsa))
            lsas;
          t.enrolled <- true;
          t.enroll_state <- E_none;
          Metrics.incr t.metrics "enrolled";
          (* Announce the new address on every port so adjacencies form. *)
          Hashtbl.iter (fun _ np -> send_hello t np) t.nports;
          rebuild_own_lsa t;
          schedule_recompute t;
          run_enrolled_hooks t)
      | Some _ | None ->
        t.enroll_state <- E_none;
        Metrics.incr t.metrics "enroll_bad_snapshot"
    end

(* ---------- flows: helpers shared by both endpoints ---------- *)

let qos_cube t id =
  match Qos.find t.qos_cubes id with Some q -> q | None -> Qos.best_effort

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

let make_flow_state t ~port ~local_cep ~remote_cep ~remote_addr ~local_app
    ~remote_app ~qos =
  let efcp_cfg = Policy.efcp_for_qos t.policy qos in
  let efcp_cfg =
    if qos.Qos.reliable then efcp_cfg
    else { efcp_cfg with Policy.rtx_strategy = Policy.No_rtx }
  in
  let reasm = Delimiting.create_reassembler () in
  let fs_ref = ref None in
  let send_pdu pdu =
    let pdu =
      { pdu with Pdu.dst_addr = remote_addr; src_addr = t.address }
    in
    (* The egress port becomes EFCP's path tag, so failover can
       re-stripe exactly the PDUs stranded on a dead path. *)
    match Rmt.send t.rmt pdu with Some port -> port | None -> 0
  in
  let deliver payload =
    match !fs_ref with
    | None -> ()
    | Some fs -> (
      match Delimiting.push fs.fs_reasm payload with
      | Some sdu -> if not fs.fs_closed then fs.fs_on_receive sdu
      | None -> ())
  in
  let on_error reason =
    Metrics.incr t.metrics "flow_errors";
    if Flight.on t.flight then
      flight_emit t ~flow:local_cep (Flight.Custom "flow_abort");
    (* Abort: tear the local endpoint down and surface the reason to
       whoever holds the flow.  The peer is not notified — if it were
       reachable the retransmissions would not have exhausted. *)
    match !fs_ref with
    | None -> ()
    | Some fs ->
      let notify = fs.fs_on_error in
      if not fs.fs_closed then begin
        fs.fs_closed <- true;
        Efcp.close fs.fs_efcp;
        Hashtbl.remove t.flows fs.fs_local_cep
      end;
      notify reason
  in
  (* Span keys are address-qualified so per-PDU trace ids join with
     the events relays compute from decoded PDUs ({!Pdu.flow_key}):
     outgoing PDUs are addressed to (remote_addr, remote_cep), incoming
     ones to (our address, local_cep). *)
  let span_keys =
    ( (remote_addr lsl 16) lor (remote_cep land 0xFFFF),
      (t.address lsl 16) lor (local_cep land 0xFFFF) )
  in
  let efcp =
    Efcp.create t.engine ~config:efcp_cfg ~in_order:qos.Qos.in_order
      ~local_cep ~remote_cep ~qos_id:qos.Qos.id ~span_keys ~rank:t.rank
      ~send_pdu ~deliver ~on_error ()
  in
  let fs =
    {
      fs_port = port;
      fs_local_cep = local_cep;
      fs_remote_cep = remote_cep;
      fs_remote_addr = remote_addr;
      fs_local_app = local_app;
      fs_remote_app = remote_app;
      fs_qos = qos;
      fs_efcp = efcp;
      fs_reasm = reasm;
      fs_on_receive = (fun _ -> ());
      fs_on_error = (fun _ -> ());
      fs_closed = false;
    }
  in
  fs_ref := Some fs;
  Hashtbl.replace t.flows local_cep fs;
  fs

let close_flow_state t fs ~notify_peer =
  if not fs.fs_closed then begin
    fs.fs_closed <- true;
    Efcp.close fs.fs_efcp;
    Hashtbl.remove t.flows fs.fs_local_cep;
    if notify_peer then
      send_mgmt t ~dst:fs.fs_remote_addr
        (Riep.make ~opcode:Riep.M_delete ~obj_class:"flow"
           ~obj_value:(Rib.V_int fs.fs_remote_cep) ())
  end

let flow_of_state t fs =
  let mtu = t.policy.Policy.efcp.Policy.mtu in
  {
    port_id = fs.fs_port;
    qos = fs.fs_qos;
    remote_app = fs.fs_remote_app;
    send =
      (fun sdu ->
        (* The delimiting boundary: one event per application SDU,
           before fragmentation assigns per-PDU spans downstream. *)
        if Flight.on t.flight then
          Flight.emit_to t.flight ~component:(flight_comp t)
            ~flow:fs.fs_local_cep ~rank:t.rank ~size:(Bytes.length sdu)
            (Flight.Custom "sdu");
        List.iter (Efcp.send fs.fs_efcp) (Delimiting.fragment ~mtu sdu));
    set_on_receive = (fun f -> fs.fs_on_receive <- f);
    set_on_error = (fun f -> fs.fs_on_error <- f);
    close = (fun () -> close_flow_state t fs ~notify_peer:true);
    flow_metrics = (fun () -> Efcp.metrics fs.fs_efcp);
    congested = (fun () -> Efcp.congested fs.fs_efcp);
  }

(* ---------- flow allocator: destination side ---------- *)

let acl_allows t ~src_app ~dst_app =
  match t.policy.Policy.acl with
  | Policy.Allow_all -> true
  | Policy.Allow_pairs pairs ->
    List.exists
      (fun (s, d) ->
        String.equal s src_app.Types.ap_name && String.equal d dst_app.Types.ap_name)
      pairs

(* The value of a successful flow response: the responder's cep. *)
let cep_value cep =
  let w = W.create () in
  W.u32 w cep;
  Rib.V_bytes (W.contents w)

(* Answer a decoded flow request [fr] carried by [msg]. *)
let accept_flow t (msg : Riep.t) fr =
  let reply ~result ~reason value =
    send_mgmt t ~dst:fr.fr_src_addr
      (Riep.make ~opcode:Riep.M_create_r ~obj_class:"flow"
         ~invoke_id:msg.Riep.invoke_id ~result ~result_reason:reason
         ?obj_value:value ())
  in
  match Hashtbl.find_opt t.apps (Types.apn_to_string fr.fr_dst_app) with
  | None ->
    Metrics.incr t.metrics "alloc_no_app";
    reply ~result:2 ~reason:"application not registered here" None
  | Some reg ->
    if not (acl_allows t ~src_app:fr.fr_src_app ~dst_app:fr.fr_dst_app) then begin
      Metrics.incr t.metrics "alloc_denied_acl";
      reply ~result:3 ~reason:"access denied" None
    end
    else begin
      (* Idempotence against retransmitted requests: if this
         (remote address, remote cep) already has a flow, repeat
         the earlier answer instead of allocating a second one. *)
      let existing =
        Hashtbl.fold
          (fun _ fs acc ->
            if fs.fs_remote_addr = fr.fr_src_addr && fs.fs_remote_cep = fr.fr_src_cep
            then Some fs
            else acc)
          t.flows None
      in
      match existing with
      | Some fs -> reply ~result:0 ~reason:"" (Some (cep_value fs.fs_local_cep))
      | None ->
        let max_pending =
          t.policy.Policy.congestion.Policy.admission_max_pending
        in
        if max_pending > 0 && Hashtbl.length t.flows >= max_pending then begin
          (* Admission control: a flash crowd queues at the requester
             (deterministic backoff retry) instead of stampeding an
             overloaded destination.  Result 4 = busy, retryable —
             unlike 2/3, which are permanent. *)
          Metrics.incr t.metrics "alloc_busy_rejected";
          reply ~result:4 ~reason:"busy: admission limit reached" None
        end
        else begin
          let local_cep = t.next_cep in
          t.next_cep <- t.next_cep + 1;
          let port = t.next_flow_port in
          t.next_flow_port <- t.next_flow_port + 1;
          let qos = qos_cube t fr.fr_qos_id in
          let fs =
            make_flow_state t ~port ~local_cep ~remote_cep:fr.fr_src_cep
              ~remote_addr:fr.fr_src_addr ~local_app:fr.fr_dst_app
              ~remote_app:fr.fr_src_app ~qos
          in
          Metrics.incr t.metrics "flows_accepted";
          reply ~result:0 ~reason:"" (Some (cep_value local_cep));
          reg.ar_on_flow (flow_of_state t fs)
        end
    end

let handle_flow_create t (msg : Riep.t) =
  match msg.Riep.obj_value with
  | Some (Rib.V_bytes data) -> (
    match decode_flow_req data with
    | Ok fr -> accept_flow t msg fr
    | Error _ -> Metrics.incr t.metrics "bad_flow_req")
  | Some _ | None -> Metrics.incr t.metrics "bad_flow_req"

(* ---------- flow allocator: requester side ---------- *)

let handle_flow_create_r t (msg : Riep.t) =
  match Hashtbl.find_opt t.pending msg.Riep.invoke_id with
  | None -> ()
  | Some pa ->
    Hashtbl.remove t.pending msg.Riep.invoke_id;
    Engine.cancel pa.pa_timeout;
    if msg.Riep.result = 4 then pa.pa_on_busy ()
    else if msg.Riep.result <> 0 then begin
      Metrics.incr t.metrics "alloc_failed";
      pa.pa_on_result (Error msg.Riep.result_reason)
    end
    else begin
      match msg.Riep.obj_value with
      | Some (Rib.V_bytes data) -> (
        try
          let r = R.create data in
          let remote_cep = R.u32 r in
          R.expect_end r;
          let fs =
            make_flow_state t ~port:pa.pa_port ~local_cep:pa.pa_local_cep
              ~remote_cep ~remote_addr:pa.pa_dst_addr ~local_app:pa.pa_src_app
              ~remote_app:pa.pa_dst_app ~qos:pa.pa_qos
          in
          Metrics.incr t.metrics "flows_allocated";
          pa.pa_on_result (Ok (flow_of_state t fs))
        with R.Decode_error msg -> pa.pa_on_result (Error msg))
      | Some _ | None -> pa.pa_on_result (Error "malformed flow response")
    end

let handle_flow_delete t (msg : Riep.t) =
  match msg.Riep.obj_value with
  | Some (Rib.V_int cep) -> (
    match Hashtbl.find_opt t.flows cep with
    | Some fs -> close_flow_state t fs ~notify_peer:false
    | None -> ())
  | Some _ | None -> ()

(* ---------- management dispatch ---------- *)

let handle_rib_write t from_port (msg : Riep.t) =
  match msg.Riep.obj_value with
  | None -> ()
  | Some value ->
    if msg.Riep.version = 0 && msg.Riep.origin = 0 then begin
      (* Unversioned (legacy) update: accept iff the value differs. *)
      let accept =
        match Rib.read t.rib msg.Riep.obj_name with
        | Some existing -> not (Rib.value_equal existing value)
        | None -> true
      in
      if accept then begin
        rib_write t msg.Riep.obj_name value;
        flood_rib_write t ?except_port:from_port msg.Riep.obj_name value
      end
    end
    else
      match
        Rib.accept_remote t.rib msg.Riep.obj_name value ~origin:msg.Riep.origin
          ~ver:msg.Riep.version
      with
      | Rib.Accepted { value_changed } ->
        (* Version-only installs (a refresh re-flood of a value we
           already hold) are absorbed silently — re-flooding them would
           turn every periodic refresh into a DIF-wide storm. *)
        if value_changed then begin
          rib_written t msg.Riep.obj_name;
          flood_rib_write t ?except_port:from_port msg.Riep.obj_name value
        end
      | Rib.Duplicate -> Metrics.incr t.metrics "rib_dup_rejected"
      | Rib.Stale -> (
        Metrics.incr t.metrics "rib_stale_rejected";
        (* Rumor correction: the sender is behind — push our newer
           state straight back so a corrupted or partitioned flood
           cannot leave it divergent until the next full sync. *)
        match (from_port, Rib.read t.rib msg.Riep.obj_name) with
        | Some port, Some v ->
          send_mgmt_on_port t ~port (rib_write_msg t msg.Riep.obj_name v)
        | _, _ -> ())

let handle_rib_delete t from_port (msg : Riep.t) =
  if rib_delete t msg.Riep.obj_name then
    flood_rib_delete t ?except_port:from_port msg.Riep.obj_name

let handle_lsa t from_port (msg : Riep.t) =
  match msg.Riep.obj_value with
  | Some (Rib.V_bytes data) -> (
    match Routing.Lsa.decode data with
    | Error _ -> Metrics.incr t.metrics "bad_lsa"
    | Ok lsa ->
      if install_lsa t lsa then begin
        Metrics.incr t.metrics "lsa_rx_new";
        flood t ?except_port:from_port ~tally:"lsa_tx" (lsa_msg lsa);
        schedule_recompute t
      end)
  | Some _ | None -> Metrics.incr t.metrics "bad_lsa"

(* A node receiving a withdrawal of its *own* origin is alive by
   definition and defends itself with a fresh, higher-sequence LSA. *)
let handle_lsa_delete t from_port (msg : Riep.t) =
  match int_of_string_opt msg.Riep.obj_name with
  | None -> Metrics.incr t.metrics "bad_lsa"
  | Some origin ->
    if t.enrolled && origin = t.address then begin
      Metrics.incr t.metrics "lsa_defended";
      originate_lsa t t.last_adjacency
    end
    else withdraw_lsa t ?except_port:from_port ~tally:"lsa_withdrawn" origin

(* ---------- keepalives / dead-peer detection ---------- *)

let touch_port t port_id =
  match Hashtbl.find_opt t.nports port_id with
  | Some np -> np.np_last_seen <- Engine.now t.engine
  | None -> ()

(* A keepalive or path probe: proof of life, answered in kind. *)
let answer_probe t port_id (msg : Riep.t) =
  touch_port t port_id;
  send_mgmt_on_port t ~port:port_id
    (Riep.make ~opcode:Riep.M_read_r ~obj_class:msg.Riep.obj_class
       ~invoke_id:msg.Riep.invoke_id ())

(* ---------- multipath: path health probing and fast failover ---------- *)

(* Fast failover off a path that just went Down: in-flight PDUs whose
   last copy rode it are re-striped onto the surviving paths *now*
   (forwarding already excludes the dead port), without waiting for
   keepalive dead-peer declaration or LSA flooding.  EFCP's reorder
   window absorbs the resequencing at the far end. *)
let failover_from t np =
  Hashtbl.remove t.chosen_poa np.np_peer;
  if Flight.on t.flight then flight_emit t ~flow:np.np_id Flight.Handoff;
  Metrics.incr t.metrics "failovers";
  let stranded =
    Hashtbl.fold
      (fun _ fs acc -> acc + Efcp.repath fs.fs_efcp ~dead_path:np.np_id)
      t.flows 0
  in
  if stranded > 0 then Metrics.add t.metrics "repath_pdus" stranded

let note_path_transition t np = function
  | None -> ()
  | Some tr ->
    let name =
      match tr with
      | Multipath.To_up _ -> "path_up"
      | Multipath.To_suspect -> "path_suspect"
      | Multipath.To_down -> "path_down"
    in
    Metrics.incr t.metrics name;
    if Flight.on t.flight then flight_emit t ~flow:np.np_id (Flight.Custom name);
    (match tr with Multipath.To_down -> failover_from t np | _ -> ())

let handle_path_probe_r t port_id (_ : Riep.t) =
  touch_port t port_id;
  match Hashtbl.find_opt t.nports port_id with
  | None -> ()
  | Some np -> note_path_transition t np (Multipath.reply t.mpath port_id)

(* One probe period: walk the attachments in port order (the jitter
   stream is consumed per-port, so the order is part of the
   determinism contract), account misses, demote/revive paths, launch
   the next round of probes. *)
let multipath_tick t =
  if t.up && t.enrolled then begin
    let now = Engine.now t.engine in
    let nps =
      Hashtbl.fold (fun _ np acc -> np :: acc) t.nports []
      |> List.sort (fun a b -> compare a.np_id b.np_id)
    in
    List.iter
      (fun np ->
        if np.np_peer > 0 && np.np_chan.Chan.is_up () then begin
          let action, tr = Multipath.tick t.mpath np.np_id ~now in
          note_path_transition t np tr;
          match action with
          | `Probe ->
            Metrics.incr t.metrics "path_probe_tx";
            send_mgmt_on_port t ~port:np.np_id
              (Riep.make ~opcode:Riep.M_read ~obj_class:"path-probe"
                 ~obj_name:(string_of_int np.np_id) ())
          | `Wait -> ()
        end)
      nps
  end

(* Declare the peer behind [np] dead: tear down the local adjacency
   view and withdraw the peer's LSA DIF-wide (unless another live port
   still reaches the same peer — multihoming). *)
let declare_peer_dead t np =
  let dead = np.np_peer in
  Metrics.incr t.metrics "peer_declared_dead";
  if Flight.on t.flight then flight_emit t ~flow:dead (Flight.Custom "peer_dead");
  np.np_peer <- 0;
  np.np_peer_name <- "";
  Hashtbl.remove t.chosen_poa dead;
  Multipath.forget t.mpath np.np_id;
  rebuild_own_lsa t;
  let still_reachable =
    Hashtbl.fold
      (fun _ other acc -> acc || (other.np_peer = dead && nport_alive t other))
      t.nports false
  in
  if not still_reachable then withdraw_lsa t ~tally:"lsa_withdrawn" dead

let keepalive_tick t =
  if t.up && t.enrolled then
    let routing = t.policy.Policy.routing in
    let now = Engine.now t.engine in
    Hashtbl.iter
      (fun _ np ->
        if np.np_peer > 0 && np.np_chan.Chan.is_up () then
          if now -. np.np_last_seen > routing.Policy.dead_peer_timeout then
            declare_peer_dead t np
          else begin
            if now -. np.np_last_seen > routing.Policy.keepalive_interval then
              Metrics.incr t.metrics "keepalive_miss";
            Metrics.incr t.metrics "keepalive_tx";
            send_mgmt_on_port t ~port:np.np_id
              (Riep.make ~opcode:Riep.M_read ~obj_class:"keepalive"
                 ~obj_name:(string_of_int t.address) ())
          end)
      t.nports

(* Periodic anti-entropy: every tick, push the full versioned LSDB and
   directory to one adjacent peer, round-robin over ports sorted by id
   (deterministic).  Flood repair is epidemic — rumor correction plus
   this sweep guarantee reconvergence even when the heal-time flood was
   itself corrupted, because versioned state always flows from the
   newer replica to the older one eventually. *)
let anti_entropy_tick t =
  if t.up && t.enrolled then
    let ports = List.sort (fun a b -> compare a.np_id b.np_id) (adjacent_ports t) in
    match ports with
    | [] -> ()
    | _ :: _ ->
      let np = List.nth ports (t.ae_round mod List.length ports) in
      t.ae_round <- t.ae_round + 1;
      Metrics.incr t.metrics "anti_entropy_runs";
      sync_peer t np

(* Neighbour-scope exchanges (hellos, enrollment, keepalives and path
   probes) concern the port they came in on; without one there is
   nothing to answer. *)
let on_port t from_port x handle =
  match from_port with Some port -> handle t port x | None -> ()

(* The allocators' messages (address grants and flow set-up and
   tear-down) are always sent routed, and the ingress filter admits a
   routed frame only from a port whose peer sent a valid hello.  A
   neighbour-scope one passes the filter from any port, so it can only
   be forged. *)
let routed t (pdu : Pdu.t) x handle =
  if pdu.Pdu.dst_addr <> Types.no_address then handle t x
  else Metrics.incr t.metrics "unrouted_alloc_dropped"

let handle_mgmt t from_port (pdu : Pdu.t) =
  match Riep.decode (Pdu.bytes_of_view pdu.Pdu.payload) with
  | Error _ -> Metrics.incr t.metrics "bad_mgmt"
  | Ok msg -> (
    Metrics.incr t.metrics "mgmt_rx";
    if Flight.on t.flight then
      flight_emit t ~flow:0 (Flight.Custom ("riep_rx:" ^ Riep.trace_label msg));
    match (msg.Riep.opcode, msg.Riep.obj_class) with
    | Riep.M_connect, "enrollment" -> on_port t from_port msg handle_connect
    | Riep.M_connect_r, "enrollment" -> on_port t from_port msg handle_connect_r
    | Riep.M_write, "rib" -> handle_rib_write t from_port msg
    | Riep.M_delete, "rib" -> handle_rib_delete t from_port msg
    | Riep.M_write, "lsa" -> handle_lsa t from_port msg
    | Riep.M_delete, "lsa" -> handle_lsa_delete t from_port msg
    | Riep.M_read, ("keepalive" | "path-probe") -> on_port t from_port msg answer_probe
    | Riep.M_read_r, "keepalive" ->
      on_port t from_port msg (fun t port _ -> touch_port t port)
    | Riep.M_read_r, "path-probe" -> on_port t from_port msg handle_path_probe_r
    | Riep.M_read, "addr-alloc" ->
      routed t pdu msg (handle_addr_alloc ~from_addr:pdu.Pdu.src_addr)
    | Riep.M_read_r, "addr-alloc" -> routed t pdu msg handle_addr_alloc_r
    | Riep.M_create, "flow" -> routed t pdu msg handle_flow_create
    | Riep.M_create_r, "flow" -> routed t pdu msg handle_flow_create_r
    | Riep.M_delete, "flow" -> routed t pdu msg handle_flow_delete
    | _, _ -> Metrics.incr t.metrics "mgmt_unhandled")

let handle_data t (pdu : Pdu.t) =
  match Hashtbl.find_opt t.flows pdu.Pdu.dst_cep with
  | Some fs -> Efcp.handle_pdu fs.fs_efcp pdu
  | None -> Metrics.incr t.metrics "unknown_cep"

let deliver_up t from_port (pdu : Pdu.t) =
  match pdu.Pdu.pdu_type with
  | Pdu.Hello -> on_port t from_port pdu handle_hello
  | Pdu.Mgmt -> handle_mgmt t from_port pdu
  | Pdu.Dtp | Pdu.Ack -> handle_data t pdu

(* PDUs from ports whose peer is not an authenticated member are
   dropped, except the neighbour-scope traffic needed to become one.
   A crashed process receives nothing at all. *)
let ingress_allowed t port_id (pdu : Pdu.t) =
  t.up
  &&
  match pdu.Pdu.pdu_type with
  | Pdu.Hello -> true
  | Pdu.Mgmt when pdu.Pdu.dst_addr = Types.no_address -> true
  | Pdu.Mgmt | Pdu.Dtp | Pdu.Ack -> (
    match Hashtbl.find_opt t.nports port_id with
    | Some np -> np.np_peer > 0
    | None -> false)

(* ---------- periodic maintenance ---------- *)

(* Every [refresh_ticks] hello ticks (a routing policy; 0 disables),
   re-flood our own LSA (with a seq bump so it passes install filters)
   and re-publish our directory entries: anti-entropy against lost
   management PDUs. *)
let refresh_state t =
  if t.enrolled then begin
    originate_lsa t t.last_adjacency;
    Hashtbl.iter
      (fun _ reg ->
        let path = dir_path reg.ar_name in
        match Rib.read t.rib path with
        | Some v -> flood_rib_write t path v
        | None -> ())
      t.apps
  end

(* LSA aging: origins that have not refreshed within [lsa_max_age] are
   presumed dead and withdrawn.  Gated on [refresh_ticks > 0] — with
   refresh off, live members never re-install and would be aged out
   too. *)
let age_lsdb t =
  let r = t.policy.Policy.routing in
  if
    t.enrolled && r.Policy.lsa_max_age > 0. && r.Policy.refresh_ticks > 0
  then
    List.iter
      (fun origin ->
        if origin <> t.address then withdraw_lsa t ~tally:"lsa_aged_out" origin)
      (Routing.expired t.lsdb ~now:(Engine.now t.engine)
         ~max_age:r.Policy.lsa_max_age)

let hello_tick t =
  if t.up then begin
    t.hello_ticks <- t.hello_ticks + 1;
    Hashtbl.iter
      (fun _ np -> if np.np_chan.Chan.is_up () then send_hello t np)
      t.nports;
    (* Hello expiry may have silently killed adjacencies. *)
    rebuild_own_lsa t;
    (let ticks = t.policy.Policy.routing.Policy.refresh_ticks in
     if ticks > 0 && t.hello_ticks mod ticks = 0 then refresh_state t);
    age_lsdb t
  end

(* Run [tick t] every [interval] seconds of virtual time on the timer
   lane, the first time one interval from now; a tick whose interval
   is not positive is never armed.  Ticks keep running while the
   process is down: their bodies check [t.up]. *)
let every t interval tick =
  if interval > 0. then begin
    let rec arm () =
      ignore (Engine.schedule ~lane:Engine.Timer t.engine ~delay:interval fire)
    and fire () =
      tick t;
      arm ()
    in
    arm ()
  end

(* ---------- construction ---------- *)

let create engine ?(credentials = "") ?(qos_cubes = Qos.standard_cubes)
    ?(rank = 0) ~name ~dif ~policy () =
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
        pending = Hashtbl.create 8;
        pending_grants = Hashtbl.create 4;
        address = Types.no_address;
        enrolled = false;
        enroll_state = E_none;
        next_cep = 1;
        next_flow_port = 1;
        next_invoke = 1;
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
  let t = Lazy.force t in
  Rmt.set_deliver t.rmt (fun from_port pdu -> deliver_up t from_port pdu);
  Rmt.set_forwarding t.rmt (fun pdu -> forward t pdu);
  Rmt.set_drop_reason t.rmt (fun pdu -> unroutable_reason t pdu);
  Rmt.set_ingress_filter t.rmt (fun port pdu -> ingress_allowed t port pdu);
  Rmt.set_classify t.rmt (fun pdu ->
      (* Layer-management traffic always rides the top class so data
         backlogs cannot starve hellos and routing updates.  Data is
         class-differentiated only when the DIF's scheduling policy
         differentiates; under FIFO everything shares one queue. *)
      match pdu.Pdu.pdu_type with
      | Pdu.Mgmt | Pdu.Hello -> 7
      | Pdu.Dtp | Pdu.Ack -> (
        match t.policy.Policy.scheduler with
        | Policy.Fifo -> 0
        | Policy.Priority_queueing | Policy.Drr _ -> (
          match Qos.find t.qos_cubes pdu.Pdu.qos_id with
          | Some q -> min 6 q.Qos.priority
          | None -> 0)));
  let routing = policy.Policy.routing in
  every t routing.Policy.hello_interval hello_tick;
  every t routing.Policy.keepalive_interval keepalive_tick;
  every t routing.Policy.anti_entropy_interval anti_entropy_tick;
  every t policy.Policy.multipath.Policy.probe_interval multipath_tick;
  t

let bootstrap t =
  if t.enrolled then invalid_arg "Ipcp.bootstrap: already enrolled";
  t.address <- 1;
  t.enrolled <- true;
  rib_write t "/dif/next_free" (Rib.V_int 2);
  t.own_lsa_seq <- 1;
  ignore (install_lsa t { Routing.Lsa.origin = 1; seq = 1; neighbors = [] });
  run_enrolled_hooks t

let bind_port t ?(cost = 1.0) ?rate chan =
  if not (Routing.valid_cost cost) then
    invalid_arg "Ipcp.bind_port: cost must be finite and non-negative";
  let port_id = Rmt.add_port t.rmt ?rate chan in
  let np =
    {
      np_id = port_id;
      np_chan = chan;
      np_cost = cost;
      np_peer = 0;
      np_peer_name = "";
      np_last_hello = Engine.now t.engine;
      np_last_seen = Engine.now t.engine;
    }
  in
  Hashtbl.replace t.nports port_id np;
  chan.Chan.on_carrier (fun up ->
      Metrics.incr t.metrics (if up then "carrier_up" else "carrier_down");
      if up then send_hello t np;
      (* Carrier loss is an out-of-band path-death signal: no need to
         burn probe misses discovering what the link layer just said. *)
      if
        (not up) && Multipath.enabled t.mpath && np.np_peer > 0
        && Multipath.force_down t.mpath np.np_id ~now:(Engine.now t.engine)
      then note_path_transition t np (Some Multipath.To_down);
      rebuild_own_lsa t);
  if chan.Chan.is_up () then send_hello t np;
  port_id

let close_all_flows t ~notify_peer =
  let flows = Hashtbl.fold (fun _ fs acc -> fs :: acc) t.flows [] in
  List.iter (fun fs -> close_flow_state t fs ~notify_peer) flows

(* Forget membership: address, enrollment, adjacencies and routes.
   Ports survive physically; their management view is reset so that
   hello-driven identity discovery (and a possible re-enrollment)
   restarts from scratch. *)
let forget_membership t =
  t.enrolled <- false;
  t.enroll_state <- E_none;
  t.address <- Types.no_address;
  t.last_adjacency <- [];
  Hashtbl.iter
    (fun _ np ->
      np.np_peer <- 0;
      np.np_peer_name <- "")
    t.nports;
  t.next_hops <- Hashtbl.create 1;
  t.ecmp_hops <- Hashtbl.create 1;
  t.routes_version <- -1;
  Hashtbl.reset t.chosen_poa;
  Multipath.reset t.mpath

let leave t =
  if t.enrolled then begin
    (* Withdraw every published name. *)
    Hashtbl.iter
      (fun _ reg ->
        let path = dir_path reg.ar_name in
        if rib_delete t path then flood_rib_delete t path)
      t.apps;
    close_all_flows t ~notify_peer:true;
    (* A final LSA with no neighbours: the two-way check then severs
       every edge to this node in everyone's SPF. *)
    originate_lsa t [];
    Metrics.incr t.metrics "left_dif";
    t.auto_enroll <- false;
    forget_membership t
  end

let publish_app t apn =
  let path = dir_path apn in
  rib_written t path;
  ignore (Rib.write_owned t.rib path (Rib.V_int t.address) ~origin:t.address);
  flood_rib_write t path (Rib.V_int t.address)

(* ---------- crash / restart ---------- *)

(* A crash is [leave] minus every courtesy: no withdrawal floods, no
   flow teardown messages, no final LSA.  All volatile state vanishes;
   the rest of the DIF must *detect* the death (keepalive timeout, LSA
   aging) rather than being told about it. *)
let crash t =
  if t.up then begin
    t.up <- false;
    Metrics.incr t.metrics "crashes";
    if Flight.on t.flight then flight_emit t ~flow:0 (Flight.Custom "crash");
    close_all_flows t ~notify_peer:false;
    Hashtbl.iter (fun _ pa -> Engine.cancel pa.pa_timeout) t.pending;
    Hashtbl.reset t.pending;
    Hashtbl.iter (fun _ pg -> Engine.cancel pg.pg_timeout) t.pending_grants;
    Hashtbl.reset t.pending_grants;
    Rib.clear t.rib;
    Routing.clear t.lsdb;
    t.own_lsa_seq <- 0;
    forget_membership t;
    if t.was_attached then begin
      t.was_attached <- false;
      List.iter (fun f -> f false) t.isolation_watchers
    end
  end

let restart t =
  if not t.up then begin
    t.up <- true;
    Metrics.incr t.metrics "restarts";
    if Flight.on t.flight then flight_emit t ~flow:0 (Flight.Custom "restart");
    t.auto_enroll <- true;
    (* Registered applications survive the reboot (they live above the
       IPC process); republish their directory entries once
       re-enrollment lands. *)
    Hashtbl.iter
      (fun _ reg ->
        let apn = reg.ar_name in
        t.enrolled_hooks <- (fun () -> publish_app t apn) :: t.enrolled_hooks)
      t.apps;
    Hashtbl.iter
      (fun _ np ->
        np.np_last_hello <- Engine.now t.engine;
        np.np_last_seen <- Engine.now t.engine;
        if np.np_chan.Chan.is_up () then send_hello t np)
      t.nports
  end

let is_up t = t.up

(* ---------- application interface ---------- *)

let on_enrolled t f =
  if t.enrolled then f () else t.enrolled_hooks <- f :: t.enrolled_hooks

let register_app t apn ~on_flow =
  Hashtbl.replace t.apps (Types.apn_to_string apn)
    { ar_name = apn; ar_on_flow = on_flow };
  on_enrolled t (fun () -> publish_app t apn)

let unregister_app t apn =
  Hashtbl.remove t.apps (Types.apn_to_string apn);
  if t.enrolled then begin
    ignore (rib_delete t (dir_path apn));
    flood_rib_delete t (dir_path apn)
  end

let resolve_name t apn = Rib.read_int t.rib (dir_path apn)

let registered_apps t =
  Hashtbl.fold (fun _ reg acc -> reg.ar_name :: acc) t.apps []
  |> List.sort Types.apn_compare

let allocate_flow t ~src ~dst ~qos_id ~on_result =
  if not t.enrolled then on_result (Error "IPC process not enrolled in any DIF")
  else begin
    (* The directory may still be synchronising; retry resolution a few
       times before giving up. *)
    let attempts = ref 0 in
    let rec try_resolve () =
      match resolve_name t dst with
      | Some addr -> request addr
      | None ->
        incr attempts;
        if !attempts > 25 then begin
          Metrics.incr t.metrics "alloc_name_not_found";
          on_result (Error ("destination name not found: " ^ Types.apn_to_string dst))
        end
        else ignore (Engine.schedule t.engine ~delay:0.2 (fun () -> try_resolve ()))
    and request addr =
      let local_cep = t.next_cep in
      t.next_cep <- t.next_cep + 1;
      let port = t.next_flow_port in
      t.next_flow_port <- t.next_flow_port + 1;
      let invoke = t.next_invoke in
      t.next_invoke <- t.next_invoke + 1;
      let qos = qos_cube t qos_id in
      let req =
        {
          fr_src_app = src;
          fr_dst_app = dst;
          fr_qos_id = qos_id;
          fr_src_addr = t.address;
          fr_src_cep = local_cep;
        }
      in
      let transmit () =
        Metrics.incr t.metrics "alloc_requests";
        send_mgmt t ~dst:addr
          (Riep.make ~opcode:Riep.M_create ~obj_class:"flow" ~invoke_id:invoke
             ~obj_value:(Rib.V_bytes (encode_flow_req req)) ())
      in
      (* Management PDUs are unreliable; retransmit the request a few
         times (the destination is idempotent). *)
      let busy_attempts = ref 0 in
      let rec arm_timeout tries =
        Engine.schedule t.engine ~delay:1.2 (fun () ->
            match Hashtbl.find_opt t.pending invoke with
            | None -> ()
            | Some pa ->
              if tries <= 0 then begin
                Hashtbl.remove t.pending invoke;
                Metrics.incr t.metrics "alloc_timeout";
                pa.pa_on_result (Error "flow allocation timed out")
              end
              else begin
                Metrics.incr t.metrics "alloc_retries";
                transmit ();
                Hashtbl.replace t.pending invoke
                  { pa with pa_timeout = arm_timeout (tries - 1) }
              end)
      (* Busy rejection (result 4): the destination's admission limit
         is a transient condition, so re-request after a full-jitter
         exponential backoff drawn from this process's private
         deterministic stream — a flash crowd of requesters thereby
         spreads out instead of hammering in lockstep. *)
      and on_busy () =
        incr busy_attempts;
        Metrics.incr t.metrics "alloc_busy";
        if !busy_attempts > 100 then begin
          Metrics.incr t.metrics "alloc_failed";
          on_result (Error "flow allocation rejected: destination busy")
        end
        else begin
          let base =
            Float.max 0.01 t.policy.Policy.congestion.Policy.admission_backoff
          in
          let delay =
            Rina_util.Backoff.delay_for ~rng:t.rng ~base !busy_attempts
          in
          ignore
            (Engine.schedule t.engine ~delay (fun () ->
                 if not (Hashtbl.mem t.pending invoke) then begin
                   Hashtbl.replace t.pending invoke (make_pending ());
                   transmit ()
                 end))
        end
      and make_pending () =
        {
          pa_on_result = on_result;
          pa_local_cep = local_cep;
          pa_port = port;
          pa_qos = qos;
          pa_src_app = src;
          pa_dst_app = dst;
          pa_dst_addr = addr;
          pa_timeout = arm_timeout 6;
          pa_on_busy = on_busy;
        }
      in
      Hashtbl.replace t.pending invoke (make_pending ());
      transmit ()
    in
    try_resolve ()
  end

let chan_of_flow t (flow : flow) : Chan.t =
  {
    Chan.send = flow.send;
    set_receiver = flow.set_on_receive;
    is_up = (fun () -> has_live_adjacency t);
    on_carrier = (fun f -> t.isolation_watchers <- f :: t.isolation_watchers);
  }

(* ---------- instrumentation ---------- *)

let set_auto_enroll t b = t.auto_enroll <- b

let name t = t.name

let engine t = t.engine

let dif_name t = t.dif

let is_enrolled t = t.enrolled

let address t = t.address

let neighbors t =
  let by_peer : (Types.address, Types.port_id list) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ np ->
      if adjacent t np then
        Hashtbl.replace by_peer np.np_peer
          (np.np_id
           :: (match Hashtbl.find_opt by_peer np.np_peer with
               | Some l -> l
               | None -> [])))
    t.nports;
  Hashtbl.fold (fun peer ports acc -> (peer, List.sort compare ports) :: acc) by_peer []
  |> List.sort compare

let routing_table t =
  Hashtbl.fold (fun dst (nh, cost) acc -> (dst, nh, cost) :: acc) t.next_hops []
  |> List.sort compare

let path_health t = Multipath.debug t.mpath

let rib t = t.rib

let metrics t = t.metrics

let rmt_metrics t = Rmt.metrics t.rmt

let rmt_queue_depth t =
  List.fold_left
    (fun acc port -> acc + Rmt.queue_depth t.rmt port)
    0 (Rmt.ports t.rmt)

(* EFCP window occupancy for the flight-recorder probes: one triple per
   open flow. *)
let flow_stats t =
  Hashtbl.fold
    (fun cep fs acc ->
      (cep, Efcp.in_flight fs.fs_efcp, Efcp.backlog fs.fs_efcp) :: acc)
    t.flows []
  |> List.sort compare

let policy t = t.policy

let lsdb_size t = Routing.size t.lsdb

let debug_flows t =
  Hashtbl.fold
    (fun cep fs acc ->
      Printf.sprintf "cep=%d %s<->%s(@%d) qos=%d %s" cep
        (Types.apn_to_string fs.fs_local_app)
        (Types.apn_to_string fs.fs_remote_app)
        fs.fs_remote_addr fs.fs_qos.Qos.id
        (Efcp.debug fs.fs_efcp)
      :: acc)
    t.flows []
  |> List.sort compare
