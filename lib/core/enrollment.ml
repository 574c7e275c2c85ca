open Member
module W = Rina_util.Codec.Writer
module R = Rina_util.Codec.Reader

(* ---------- hello and snapshot codecs ---------- *)

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

let encode_hello ~name ~addr ~token =
  let w = W.create () in
  W.string w name;
  W.u32 w addr;
  W.u32 w token;
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

(* Enrollment snapshot: address grant plus the member's replicated
   state (directory + link-state DB). *)
let encode_snapshot ~granted ~entries ~lsas =
  let w = W.create () in
  W.u32 w granted;
  W.u16 w (List.length entries);
  List.iter
    (fun (path, v) ->
      W.string w path;
      Rib.encode_value w v)
    entries;
  W.u16 w (List.length lsas);
  List.iter (fun lsa -> W.bytes w (Routing.Lsa.encode lsa)) lsas;
  W.contents w

let decode_snapshot data =
  try
    let r = R.create data in
    let granted = R.u32 r in
    if granted = Types.no_address then raise (R.Decode_error "granted address 0");
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

let send_hello t np =
  let name = Types.apn_to_string t.name in
  Rmt.send_on_port t.rmt np.np_id
    (Pdu.make ~pdu_type:Pdu.Hello ~dst_addr:Types.no_address ~src_addr:t.address
       (encode_hello ~name ~addr:t.address
          ~token:(hello_token t ~name ~addr:t.address)))

(* ---------- admission (member side) ---------- *)

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
  let snapshot =
    encode_snapshot ~granted ~entries:(Routing_dir.dir_entries t)
      ~lsas:(Routing.all t.lsdb)
  in
  send_mgmt_on_port t ~port:port_id
    (Riep.make ~opcode:Riep.M_connect_r ~obj_class:"enrollment" ~invoke_id:invoke
       ~result:0 ~obj_value:(Rib.V_bytes snapshot) ())

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
         (e.g. before our route to the manager converges).  The reply
         arrives routed, so only a holder of the DIF's hello token can
         forge one; even so, only an address the wire format can carry
         is a grant. *)
      let joiner = msg.Riep.invoke_id in
      let invoke = fresh_invoke t in
      await t invoke ~obj_class:"addr-alloc" ~delay:1.5
        ~on_timeout:(fun () -> Metrics.incr t.metrics "grant_timeout")
        (fun reply ->
          match reply.Riep.obj_value with
          | Some (Rib.V_int granted) when granted >= 1 && granted <= 0xFFFFFFFF ->
            finish_admission t port_id ~invoke:joiner ~granted
          | Some _ | None -> deny_admission t port_id ~invoke:joiner "allocation failed");
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

(* ---------- joining (joiner side) ---------- *)

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
          Routing_dir.rebuild_own_lsa t;
          Routing_dir.schedule_recompute t;
          run_enrolled_hooks t)
      | Some _ | None ->
        t.enroll_state <- E_none;
        Metrics.incr t.metrics "enroll_bad_snapshot"
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

let start_enrollment t np =
  if t.auto_enroll && t.enroll_state = E_none && not t.enrolled then begin
    t.enroll_state <- E_pending np.np_id;
    enroll_attempt t np ~attempt:0
  end
