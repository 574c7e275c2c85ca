(* The timing interposer a traced round puts between each Link endpoint
   and the IPC process (or shim) that binds it.  Sending a frame is a
   [link.tx] span; handing an arriving frame up is an [ipcp.rx] span,
   split into relay and local by the frame's destination address
   against the receiving process's own.  Untraced rounds install none. *)

module Chan = Rina_sim.Chan
module Pdu = Rina_core.Pdu
module Ipcp = Rina_core.Ipcp

(* [tag] is the number of bytes a shim prefixes to each frame. *)
let pdu_id frame ~tag =
  if Bytes.length frame < tag + Pdu.header_size then 0
  else Pdu.Peek.span (if tag = 0 then frame else Bytes.sub frame tag Pdu.header_size)

let rx_kind owner ~tag frame =
  match owner with
  | Some ipcp when tag = 0 && Bytes.length frame >= Pdu.header_size ->
    let dst = Pdu.Peek.dst_addr frame in
    if dst <> 0 && dst <> Ipcp.address ipcp then Spans.Ipcp_rx_relay
    else Spans.Ipcp_rx_local
  | Some _ | None -> Spans.Ipcp_rx_local

let chan sp ?owner ~tag (c : Chan.t) : Chan.t =
  {
    c with
    Chan.send =
      (fun frame ->
        Spans.span sp Spans.Link_tx ~id:(pdu_id frame ~tag) (fun () -> c.Chan.send frame));
    set_receiver =
      (fun f ->
        c.Chan.set_receiver (fun frame ->
            Spans.span sp (rx_kind owner ~tag frame) ~id:(pdu_id frame ~tag) (fun () ->
                f frame)));
  }
