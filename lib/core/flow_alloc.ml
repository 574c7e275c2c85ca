open Member
module W = Rina_util.Codec.Writer
module R = Rina_util.Codec.Reader

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

(* ---------- flow state, shared by both endpoints ---------- *)

let make_flow_state t ~port ~local_cep ~remote_cep ~remote_addr ~local_app
    ~remote_app ~qos =
  let efcp_cfg = Policy.efcp_for_qos t.policy qos in
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

let close_all_flows t ~notify_peer =
  let flows = Hashtbl.fold (fun _ fs acc -> fs :: acc) t.flows [] in
  List.iter (fun fs -> close_flow_state t fs ~notify_peer) flows

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

(* ---------- destination side ---------- *)

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

let handle_flow_delete t (msg : Riep.t) =
  match msg.Riep.obj_value with
  | Some (Rib.V_int cep) -> (
    match Hashtbl.find_opt t.flows cep with
    | Some fs -> close_flow_state t fs ~notify_peer:false
    | None -> ())
  | Some _ | None -> ()

(* ---------- requester side ---------- *)

let request t ~src ~dst ~qos_id ~on_result addr =
  let local_cep = t.next_cep in
  t.next_cep <- t.next_cep + 1;
  let port = t.next_flow_port in
  t.next_flow_port <- t.next_flow_port + 1;
  let invoke = fresh_invoke t in
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
  let rec await_reply tries =
    await t invoke ~obj_class:"flow" ~delay:1.2
      ~on_timeout:(fun () ->
        if tries <= 0 then begin
          Metrics.incr t.metrics "alloc_timeout";
          on_result (Error "flow allocation timed out")
        end
        else begin
          Metrics.incr t.metrics "alloc_retries";
          transmit ();
          await_reply (tries - 1)
        end)
      on_reply
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
             await_reply 6;
             transmit ()))
    end
  and on_reply (msg : Riep.t) =
    if msg.Riep.result = 4 then on_busy ()
    else if msg.Riep.result <> 0 then begin
      Metrics.incr t.metrics "alloc_failed";
      on_result (Error msg.Riep.result_reason)
    end
    else begin
      match msg.Riep.obj_value with
      | Some (Rib.V_bytes data) -> (
        try
          let r = R.create data in
          let remote_cep = R.u32 r in
          R.expect_end r;
          let fs =
            make_flow_state t ~port ~local_cep ~remote_cep ~remote_addr:addr
              ~local_app:src ~remote_app:dst ~qos
          in
          Metrics.incr t.metrics "flows_allocated";
          on_result (Ok (flow_of_state t fs))
        with R.Decode_error msg -> on_result (Error msg))
      | Some _ | None -> on_result (Error "malformed flow response")
    end
  in
  await_reply 6;
  transmit ()
