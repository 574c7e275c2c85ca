open Member

type t = Member.t

type flow = Member.flow = {
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

(* ---------- management dispatch ---------- *)

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
    | Riep.M_connect, "enrollment" -> on_port t from_port msg Enrollment.handle_connect
    | Riep.M_connect_r, "enrollment" -> on_port t from_port msg Enrollment.handle_connect_r
    | Riep.M_write, "rib" -> Routing_dir.handle_rib_write t from_port msg
    | Riep.M_delete, "rib" -> Routing_dir.handle_rib_delete t from_port msg
    | Riep.M_write, "lsa" -> Routing_dir.handle_lsa t from_port msg
    | Riep.M_delete, "lsa" -> Routing_dir.handle_lsa_delete t from_port msg
    | Riep.M_read, ("keepalive" | "path-probe") ->
      on_port t from_port msg Liveness.answer_probe
    | Riep.M_read_r, "keepalive" ->
      on_port t from_port msg (fun t port _ -> Liveness.touch_port t port)
    | Riep.M_read_r, "path-probe" -> on_port t from_port msg Liveness.handle_path_probe_r
    | Riep.M_read, "addr-alloc" ->
      routed t pdu msg (Enrollment.handle_addr_alloc ~from_addr:pdu.Pdu.src_addr)
    | Riep.M_read_r, "addr-alloc" | Riep.M_create_r, "flow" -> routed t pdu msg answer
    | Riep.M_create, "flow" -> routed t pdu msg Flow_alloc.handle_flow_create
    | Riep.M_delete, "flow" -> routed t pdu msg Flow_alloc.handle_flow_delete
    | _, _ -> Metrics.incr t.metrics "mgmt_unhandled")

let handle_data t (pdu : Pdu.t) =
  match Hashtbl.find_opt t.flows pdu.Pdu.dst_cep with
  | Some fs -> Efcp.handle_pdu fs.fs_efcp pdu
  | None -> Metrics.incr t.metrics "unknown_cep"

let deliver_up t from_port (pdu : Pdu.t) =
  match pdu.Pdu.pdu_type with
  | Pdu.Hello -> on_port t from_port pdu Liveness.handle_hello
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
  let t = Member.create engine ~credentials ~qos_cubes ~rank ~name ~dif ~policy in
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
  every t routing.Policy.hello_interval Liveness.hello_tick;
  every t routing.Policy.keepalive_interval Liveness.keepalive_tick;
  every t routing.Policy.anti_entropy_interval Routing_dir.anti_entropy_tick;
  every t policy.Policy.multipath.Policy.probe_interval Liveness.multipath_tick;
  t

(* ---------- lifecycle ---------- *)

let bootstrap t =
  if t.enrolled then invalid_arg "Ipcp.bootstrap: already enrolled";
  t.address <- 1;
  t.enrolled <- true;
  rib_write t "/dif/next_free" (Rib.V_int 2);
  t.own_lsa_seq <- 1;
  ignore (install_lsa t { Routing.Lsa.origin = 1; seq = 1; neighbors = [] });
  Enrollment.run_enrolled_hooks t

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
      np_last_hello = Engine.now t.engine;
      np_last_seen = Engine.now t.engine;
    }
  in
  Hashtbl.replace t.nports port_id np;
  chan.Chan.on_carrier (Liveness.carrier t np);
  if chan.Chan.is_up () then Enrollment.send_hello t np;
  port_id

(* Forget membership: address, enrollment, adjacencies and routes.
   Ports survive physically; their management view is reset so that
   hello-driven identity discovery (and a possible re-enrollment)
   restarts from scratch. *)
let forget_membership t =
  t.enrolled <- false;
  t.enroll_state <- E_none;
  t.address <- Types.no_address;
  t.last_adjacency <- [];
  Hashtbl.iter (fun _ np -> np.np_peer <- 0) t.nports;
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
        let path = Routing_dir.dir_path reg.ar_name in
        if rib_delete t path then Routing_dir.flood_rib_delete t path)
      t.apps;
    Flow_alloc.close_all_flows t ~notify_peer:true;
    (* A final LSA with no neighbours: the two-way check then severs
       every edge to this node in everyone's SPF. *)
    Routing_dir.originate_lsa t [];
    Metrics.incr t.metrics "left_dif";
    t.auto_enroll <- false;
    forget_membership t
  end

(* A crash is [leave] minus every courtesy: no withdrawal floods, no
   flow teardown messages, no final LSA.  All volatile state vanishes;
   the rest of the DIF must *detect* the death (keepalive timeout, LSA
   aging) rather than being told about it. *)
let crash t =
  if t.up then begin
    t.up <- false;
    Metrics.incr t.metrics "crashes";
    if Flight.on t.flight then flight_emit t ~flow:0 (Flight.Custom "crash");
    Flow_alloc.close_all_flows t ~notify_peer:false;
    cancel_requests t;
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
        t.enrolled_hooks <- (fun () -> Routing_dir.publish_app t apn) :: t.enrolled_hooks)
      t.apps;
    Hashtbl.iter
      (fun _ np ->
        np.np_last_hello <- Engine.now t.engine;
        np.np_last_seen <- Engine.now t.engine;
        if np.np_chan.Chan.is_up () then Enrollment.send_hello t np)
      t.nports
  end

let is_up t = t.up

let set_auto_enroll t b = t.auto_enroll <- b

(* ---------- application interface ---------- *)

let on_enrolled t f =
  if t.enrolled then f () else t.enrolled_hooks <- f :: t.enrolled_hooks

let register_app t apn ~on_flow =
  Hashtbl.replace t.apps (Types.apn_to_string apn)
    { ar_name = apn; ar_on_flow = on_flow };
  on_enrolled t (fun () -> Routing_dir.publish_app t apn)

let unregister_app t apn =
  Hashtbl.remove t.apps (Types.apn_to_string apn);
  if t.enrolled then begin
    ignore (rib_delete t (Routing_dir.dir_path apn));
    Routing_dir.flood_rib_delete t (Routing_dir.dir_path apn)
  end

let resolve_name t apn = Rib.read_int t.rib (Routing_dir.dir_path apn)

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
      | Some addr -> Flow_alloc.request t ~src ~dst ~qos_id ~on_result addr
      | None ->
        incr attempts;
        if !attempts > 25 then begin
          Metrics.incr t.metrics "alloc_name_not_found";
          on_result (Error ("destination name not found: " ^ Types.apn_to_string dst))
        end
        else ignore (Engine.schedule t.engine ~delay:0.2 (fun () -> try_resolve ()))
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

let name t = t.name

let engine t = t.engine

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
