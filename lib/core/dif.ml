type t = {
  engine : Rina_sim.Engine.t;
  name : Types.dif_name;
  policy : Policy.t;
  qos_cubes : Qos.t list;
  rank : int;
  mutable members : Ipcp.t list;
}

let create engine ?(policy = Policy.default) ?(qos_cubes = Qos.standard_cubes)
    ?(rank = 0) name =
  { engine; name; policy; qos_cubes; rank; members = [] }

let name t = t.name

let policy t = t.policy

let engine t = t.engine

let rank t = t.rank

let add_member t ?bootstrap ?credentials ~name () =
  let ipcp =
    Ipcp.create t.engine ?credentials ~qos_cubes:t.qos_cubes
      ~rank:t.rank ~name:(Types.apn name) ~dif:t.name ~policy:t.policy ()
  in
  let boot =
    match bootstrap with Some b -> b | None -> t.members = []
  in
  if boot then Ipcp.bootstrap ipcp;
  t.members <- t.members @ [ ipcp ];
  ipcp

let members t = t.members

let find_member t name =
  List.find_opt
    (fun m -> String.equal (Ipcp.name m).Types.ap_name name)
    t.members

let connect _t ?cost ?rate_a ?rate_b a b (chan_a, chan_b) =
  ignore (Ipcp.bind_port a ?cost ?rate:rate_a chan_a);
  ignore (Ipcp.bind_port b ?cost ?rate:rate_b chan_b)

(* A port of an upper DIF is backed by TWO flows of the lower DIF: the
   data flow with the requested QoS, and a reliable management flow so
   that hellos, routing updates and enrollment can never be starved or
   lost behind a data backlog (one (N-1) flow per traffic class, as
   the architecture intends).  The split keys on the PDU-type byte of
   the upper DIF's wire format. *)
let combined_chan ~owner ~data ~mgmt : Rina_sim.Chan.t =
  let data_c = Ipcp.chan_of_flow owner data
  and mgmt_c = Ipcp.chan_of_flow owner mgmt in
  let stats = Rina_util.Metrics.create () in
  let pushback = (Ipcp.policy owner).Policy.congestion.Policy.pushback in
  let is_management frame =
    (* frame = encoded PDU + CRC trailer; byte 0 version, byte 1 type
       (2 = Mgmt, 3 = Hello). *)
    Bytes.length frame > 1
    &&
    let ty = Char.code (Bytes.get frame 1) in
    ty = 2 || ty = 3
  in
  {
    Rina_sim.Chan.send =
      (fun frame ->
        Rina_util.Metrics.incr stats "tx";
        if is_management frame then mgmt_c.Rina_sim.Chan.send frame
        else begin
          (* Push-back across the layer boundary (§6): the bytes here
             are a complete upper-DIF frame about to transit this
             lower flow, so when the lower flow is itself under
             congestion pressure, stamp the ECN flag on upper Dtp
             frames in place (+ CRC reseal).  The upper receiver's
             EFCP then echoes it end to end and the upper *sender*
             backs off — congestion in an (N-1)-DIF slows the (N)-DIF
             sources instead of just growing this flow's backlog. *)
          if
            pushback
            && Bytes.length frame > Pdu.header_size
            && Pdu.Peek.is_dtp frame
            && (not (Pdu.frame_has_ecn frame))
            && data.Ipcp.congested ()
          then begin
            Pdu.mark_ecn_frame frame;
            Rina_util.Metrics.incr stats "pushback_marked";
            let r = Rina_util.Flight.cur () in
            if Rina_util.Flight.on r then
              Rina_util.Flight.emit_to r
                ~component:("pushback@" ^ Types.apn_to_string (Ipcp.name owner))
                ~size:(Bytes.length frame)
                (Rina_util.Flight.Custom "pushback_mark")
          end;
          data_c.Rina_sim.Chan.send frame
        end);
    set_receiver =
      (fun f ->
        data_c.Rina_sim.Chan.set_receiver f;
        mgmt_c.Rina_sim.Chan.set_receiver f);
    is_up = data_c.Rina_sim.Chan.is_up;
    on_carrier = data_c.Rina_sim.Chan.on_carrier;
    stats;
  }

let stack_connect ~lower_a ~lower_b ~upper_a ~upper_b ?(qos_id = Qos.reliable.Qos.id)
    ?cost ?rate () =
  let sub name role = Types.apn (Types.apn_to_string name ^ ":" ^ role) in
  let a_name = Ipcp.name upper_a and b_name = Ipcp.name upper_b in
  (* The far side: collect both flows, then bind the combined port. *)
  let b_data = ref None and b_mgmt = ref None in
  let b_try_bind () =
    match (!b_data, !b_mgmt) with
    | Some data, Some mgmt ->
      ignore (Ipcp.bind_port upper_b ?cost ?rate (combined_chan ~owner:lower_b ~data ~mgmt))
    | (Some _ | None), (Some _ | None) -> ()
  in
  Ipcp.register_app lower_b (sub b_name "data") ~on_flow:(fun flow ->
      b_data := Some flow;
      b_try_bind ());
  Ipcp.register_app lower_b (sub b_name "mgmt") ~on_flow:(fun flow ->
      b_mgmt := Some flow;
      b_try_bind ());
  (* The near side: the upper IPCP is an application of the lower DIF. *)
  Ipcp.register_app lower_a (sub a_name "data") ~on_flow:(fun _ -> ());
  Ipcp.register_app lower_a (sub a_name "mgmt") ~on_flow:(fun _ -> ());
  let a_data = ref None and a_mgmt = ref None in
  let a_try_bind () =
    match (!a_data, !a_mgmt) with
    | Some data, Some mgmt ->
      ignore (Ipcp.bind_port upper_a ?cost ?rate (combined_chan ~owner:lower_a ~data ~mgmt))
    | (Some _ | None), (Some _ | None) -> ()
  in
  Ipcp.on_enrolled lower_a (fun () ->
      Ipcp.allocate_flow lower_a ~src:(sub a_name "data") ~dst:(sub b_name "data")
        ~qos_id
        ~on_result:(function
          | Ok flow ->
            a_data := Some flow;
            a_try_bind ()
          | Error _ -> ());
      Ipcp.allocate_flow lower_a ~src:(sub a_name "mgmt") ~dst:(sub b_name "mgmt")
        ~qos_id:Qos.reliable.Qos.id
        ~on_result:(function
          | Ok flow ->
            a_mgmt := Some flow;
            a_try_bind ()
          | Error _ -> ()))

let run_until_converged t ?(max_time = 120.) () =
  let deadline = Rina_sim.Engine.now t.engine +. max_time in
  let step = t.policy.Policy.routing.Policy.hello_interval in
  let converged () =
    List.for_all Ipcp.is_enrolled t.members
    &&
    match t.members with
    | [] -> true
    | first :: rest ->
      let n = Ipcp.lsdb_size first in
      n >= List.length t.members && List.for_all (fun m -> Ipcp.lsdb_size m = n) rest
  in
  let rec loop () =
    if (not (converged ())) && Rina_sim.Engine.now t.engine < deadline then begin
      Rina_sim.Engine.run ~until:(Rina_sim.Engine.now t.engine +. step) t.engine;
      loop ()
    end
  in
  loop ();
  (* Let any outstanding SPF recomputations and floods settle. *)
  Rina_sim.Engine.run ~until:(Rina_sim.Engine.now t.engine +. (2. *. step)) t.engine
