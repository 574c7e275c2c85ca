open Member

(* ---------- the directory ---------- *)

let dir_path apn = "/dir/" ^ Types.apn_to_string apn

let in_dir path = String.starts_with ~prefix:"/dir/" path

(* The replicated directory entries, sorted by path.  A prefix scan,
   not [Rib.children]: directory paths are /dir/<name>/<instance> —
   two levels below /dir — so a one-level listing would miss every
   entry. *)
let dir_entries t = List.filter (fun (path, _) -> in_dir path) (Rib.dump t.rib)

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

(* Every RIB object a member floods is a directory entry. *)
let flood_rib_write t ?except_port path value =
  flood t ?except_port ~tally:"dir_tx" (rib_write_msg t path value)

let flood_rib_delete t ?except_port path =
  flood t ?except_port
    (Riep.make ~opcode:Riep.M_delete ~obj_class:"rib" ~obj_name:path ())

let publish_app t apn =
  let path = dir_path apn in
  rib_written t path;
  ignore (Rib.write_owned t.rib path (Rib.V_int t.address) ~origin:t.address);
  flood_rib_write t path (Rib.V_int t.address)

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

(* ---------- received updates ---------- *)

(* A peer may write or delete only directory entries: the rest of the
   RIB, such as the namespace manager's /dif/next_free, is local
   state, and a neighbour-scope write passes the ingress filter from
   any port. *)
let handle_rib_write t from_port (msg : Riep.t) =
  match msg.Riep.obj_value with
  | None -> ()
  | Some _ when not (in_dir msg.Riep.obj_name) -> Metrics.incr t.metrics "mgmt_unhandled"
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
  if not (in_dir msg.Riep.obj_name) then Metrics.incr t.metrics "mgmt_unhandled"
  else if rib_delete t msg.Riep.obj_name then
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
