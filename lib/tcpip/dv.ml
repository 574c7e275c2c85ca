module W = Rina_util.Codec.Writer
module R = Rina_util.Codec.Reader
module Metrics = Rina_util.Metrics

let infinity_metric = 16

type t = {
  node : Node.t;
  period : float;
  metrics : Metrics.t;
}

let encode_table entries =
  let w = W.create () in
  W.u16 w (List.length entries);
  List.iter
    (fun ((p : Ip.prefix), metric) ->
      W.u32 w p.Ip.network;
      W.u8 w p.Ip.length;
      W.u8 w metric)
    entries;
  W.contents w

let decode_table data =
  try
    let r = R.create data in
    let n = R.u16 r in
    let entries =
      List.init n (fun _ ->
          let network = R.u32 r in
          let length = R.u8 r in
          let metric = R.u8 r in
          (Ip.prefix network length, metric))
    in
    R.expect_end r;
    Ok entries
  with R.Decode_error msg -> Error msg

(* Advertise the full table on one interface, applying split horizon:
   routes learned from a neighbour are not advertised back out the
   interface that reaches it. *)
let advertise t if_id =
  match Node.iface_addr t.node if_id with
  | None -> ()
  | Some my_addr ->
    let entries =
      List.filter_map
        (fun (prefix, (r : Node.route)) ->
          if r.Node.rt_if = if_id && r.Node.rt_learned_from <> None then None
          else Some (prefix, min infinity_metric r.Node.rt_metric))
        (Node.routes t.node)
    in
    Metrics.incr t.metrics "adv_sent";
    Node.send_on_iface t.node if_id
      (Packet.make ~src:my_addr ~dst:Node.broadcast_addr ~proto:Packet.P_rip ~ttl:1
         (encode_table entries))

let advertise_all t = List.iter (advertise t) (Node.iface_ids t.node)

let expire_routes t =
  let now = Rina_sim.Engine.now (Node.engine t.node) in
  let stale =
    List.filter
      (fun ((_ : Ip.prefix), (r : Node.route)) -> r.Node.rt_expires < now)
      (Node.routes t.node)
  in
  List.iter
    (fun (prefix, _) ->
      ignore (Node.remove_route t.node prefix);
      Metrics.incr t.metrics "routes_expired")
    stale;
  stale <> []

let handle_update t pkt ~in_if =
  match decode_table pkt.Packet.payload with
  | Error _ -> Metrics.incr t.metrics "bad_update"
  | Ok entries ->
    let now = Rina_sim.Engine.now (Node.engine t.node) in
    let changed = ref false in
    List.iter
      (fun (prefix, metric) ->
        let candidate = min infinity_metric (metric + 1) in
        let current = List.assoc_opt prefix (Node.routes t.node) in
        match current with
        | Some r when r.Node.rt_learned_from = Some pkt.Packet.src ->
          (* Update from the current next hop: always believe it. *)
          if candidate >= infinity_metric then begin
            ignore (Node.remove_route t.node prefix);
            changed := true
          end
          else begin
            if r.Node.rt_metric <> candidate then changed := true;
            Node.install_route t.node prefix
              {
                r with
                Node.rt_metric = candidate;
                rt_expires = now +. (3.5 *. t.period);
              }
          end
        | Some r when r.Node.rt_learned_from = None -> ignore r (* static/connected wins *)
        | Some r when candidate < r.Node.rt_metric ->
          Node.install_route t.node prefix
            {
              Node.rt_if = in_if;
              rt_next_hop = Some pkt.Packet.src;
              rt_metric = candidate;
              rt_learned_from = Some pkt.Packet.src;
              rt_expires = now +. (3.5 *. t.period);
            };
          Metrics.incr t.metrics "routes_learned";
          changed := true
        | Some _ -> ()
        | None ->
          if candidate < infinity_metric then begin
            Node.install_route t.node prefix
              {
                Node.rt_if = in_if;
                rt_next_hop = Some pkt.Packet.src;
                rt_metric = candidate;
                rt_learned_from = Some pkt.Packet.src;
                rt_expires = now +. (3.5 *. t.period);
              };
            Metrics.incr t.metrics "routes_learned";
            changed := true
          end)
      entries;
    (* Triggered update on change speeds convergence. *)
    if !changed then advertise_all t

let start node ?(period = 5.0) () =
  let t = { node; period; metrics = Metrics.create () } in
  Node.set_proto_handler node Packet.P_rip (fun pkt ~in_if ->
      handle_update t pkt ~in_if);
  Node.on_iface_change node (fun if_id up ->
      if up then advertise_all t
      else begin
        (* Carrier loss invalidates every route using the interface;
           triggered updates propagate the withdrawal. *)
        let dead =
          List.filter
            (fun ((_ : Ip.prefix), (r : Node.route)) ->
              r.Node.rt_if = if_id && r.Node.rt_learned_from <> None)
            (Node.routes t.node)
        in
        List.iter (fun (prefix, _) -> ignore (Node.remove_route t.node prefix)) dead;
        if dead <> [] then advertise_all t
      end);
  let rec tick () =
    ignore (expire_routes t);
    advertise_all t;
    ignore
      (Rina_sim.Engine.schedule ~lane:Rina_sim.Engine.Timer (Node.engine node)
         ~delay:period tick)
  in
  ignore (Rina_sim.Engine.schedule (Node.engine node) ~delay:0.01 tick);
  t

let advertisements_sent t = Metrics.get t.metrics "adv_sent"
