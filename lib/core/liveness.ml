open Member

(* ---------- hello protocol ---------- *)

let handle_hello t port_id (pdu : Pdu.t) =
  match Hashtbl.find_opt t.nports port_id with
  | None -> ()
  | Some np -> (
    match Enrollment.decode_hello (Pdu.bytes_of_view pdu.Pdu.payload) with
    | Error _ -> Metrics.incr t.metrics "bad_hello"
    | Ok (peer_name, peer_addr, token)
      when peer_addr > 0
           && token <> Enrollment.hello_token t ~name:peer_name ~addr:peer_addr ->
      Metrics.incr t.metrics "hello_rejected"
    | Ok (_, peer_addr, _) ->
      np.np_last_hello <- Engine.now t.engine;
      np.np_last_seen <- Engine.now t.engine;
      if np.np_peer <> peer_addr then begin
        np.np_peer <- peer_addr;
        (* Refresh our own LSA first so the database pushed to the new
           peer already contains the adjacency that just formed. *)
        Routing_dir.rebuild_own_lsa t;
        if peer_addr > 0 then Routing_dir.sync_peer t np
      end
      else Routing_dir.rebuild_own_lsa t;
      if (not t.enrolled) && peer_addr > 0 then Enrollment.start_enrollment t np)

let hello_tick t =
  if t.up then begin
    t.hello_ticks <- t.hello_ticks + 1;
    Hashtbl.iter
      (fun _ np -> if np.np_chan.Chan.is_up () then Enrollment.send_hello t np)
      t.nports;
    (* Hello expiry may have silently killed adjacencies. *)
    Routing_dir.rebuild_own_lsa t;
    (let ticks = t.policy.Policy.routing.Policy.refresh_ticks in
     if ticks > 0 && t.hello_ticks mod ticks = 0 then Routing_dir.refresh_state t);
    Routing_dir.age_lsdb t
  end

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

(* Carrier loss is an out-of-band path-death signal: no need to burn
   probe misses discovering what the link layer just said. *)
let carrier t np up =
  Metrics.incr t.metrics (if up then "carrier_up" else "carrier_down");
  if up then Enrollment.send_hello t np;
  if
    (not up) && Multipath.enabled t.mpath && np.np_peer > 0
    && Multipath.force_down t.mpath np.np_id ~now:(Engine.now t.engine)
  then note_path_transition t np (Some Multipath.To_down);
  Routing_dir.rebuild_own_lsa t

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
  Hashtbl.remove t.chosen_poa dead;
  Multipath.forget t.mpath np.np_id;
  Routing_dir.rebuild_own_lsa t;
  let still_reachable =
    Hashtbl.fold
      (fun _ other acc -> acc || (other.np_peer = dead && nport_alive t other))
      t.nports false
  in
  if not still_reachable then Routing_dir.withdraw_lsa t ~tally:"lsa_withdrawn" dead

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
