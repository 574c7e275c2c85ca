type node = { id : int; mutable x : float; mutable y : float }

type radio = {
  local : node;
  remote : node;
  range : float;
  edge_loss : float;
  comp : string;  (* flight-recorder component name *)
  flight : Rina_util.Flight.recorder;  (* the engine's *)
  mutable receiver : bytes -> unit;
  mutable watchers : (bool -> unit) list;
  mutable was_up : bool;
  mutable busy_until : float;
}

type t = {
  engine : Engine.t;
  rng : Rina_util.Prng.t;
  bit_rate : float;
  base_delay : float;
  mutable next_id : int;
  mutable radios : radio list;
}

let create engine rng ~bit_rate ~base_delay =
  if bit_rate <= 0. then invalid_arg "Medium.create: bit_rate must be positive";
  if base_delay < 0. then invalid_arg "Medium.create: base_delay must be non-negative";
  { engine; rng; bit_rate; base_delay; next_id = 0; radios = [] }

let add_node t ~x ~y =
  let node = { id = t.next_id; x; y } in
  t.next_id <- t.next_id + 1;
  node

let position node = (node.x, node.y)

let distance a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let radio_up r = distance r.local r.remote <= r.range

let set_position t node ~x ~y =
  node.x <- x;
  node.y <- y;
  let touched r = r.local.id = node.id || r.remote.id = node.id in
  List.iter
    (fun r ->
      if touched r then begin
        let up = radio_up r in
        if up <> r.was_up then begin
          r.was_up <- up;
          List.iter (fun f -> f up) r.watchers
        end
      end)
    t.radios

(* Loss grows quadratically from 0 at zero distance to [edge_loss] at
   the range boundary. *)
let loss_probability r =
  let d = distance r.local r.remote in
  if d > r.range then 1.0
  else begin
    let frac = d /. r.range in
    r.edge_loss *. frac *. frac
  end

(* Find the peer radio (remote's channel back to local) to deliver
   into; channels are registered pairwise by the experiment. *)
let peer_of t r =
  List.find_opt
    (fun other -> other.local.id = r.remote.id && other.remote.id = r.local.id)
    t.radios

let[@inline] flight_drop r reason size =
  if Rina_util.Flight.on r.flight then
    Rina_util.Flight.emit_to r.flight ~component:r.comp ~size
      (Rina_util.Flight.Pdu_dropped reason)

let transmit t r frame =
  if not (radio_up r) then
    flight_drop r Rina_util.Flight.R_link_down (Bytes.length frame)
  else begin
    if Rina_util.Flight.on r.flight then
      Rina_util.Flight.emit_to r.flight ~component:r.comp
        ~size:(Bytes.length frame) Rina_util.Flight.Pdu_sent;
    let now = Engine.now t.engine in
    let start = Float.max now r.busy_until in
    let ser = float_of_int (8 * Bytes.length frame) /. t.bit_rate in
    r.busy_until <- start +. ser;
    let arrival = start +. ser +. t.base_delay in
    ignore
      (Engine.schedule_at t.engine ~time:arrival (fun () ->
           if not (radio_up r) then
             flight_drop r Rina_util.Flight.R_link_down (Bytes.length frame)
           else if Rina_util.Prng.bernoulli t.rng (loss_probability r) then
             flight_drop r Rina_util.Flight.R_loss (Bytes.length frame)
           else begin
             if Rina_util.Flight.on r.flight then
               Rina_util.Flight.emit_to r.flight ~component:r.comp
                 ~size:(Bytes.length frame) Rina_util.Flight.Pdu_recvd;
             match peer_of t r with
             | Some peer -> peer.receiver frame
             | None -> r.receiver frame
           end))
  end

let channel t ~local ~remote ~range ?(edge_loss = 0.3) () : Chan.t =
  if range <= 0. then invalid_arg "Medium.channel: range must be positive";
  let r =
    {
      local;
      remote;
      range;
      edge_loss;
      comp = Printf.sprintf "radio.%d-%d" local.id remote.id;
      flight = Engine.flight t.engine;
      receiver = (fun _ -> ());
      watchers = [];
      was_up = false;
      busy_until = 0.;
    }
  in
  r.was_up <- radio_up r;
  t.radios <- r :: t.radios;
  {
    Chan.send = (fun frame -> transmit t r frame);
    set_receiver = (fun f -> r.receiver <- f);
    is_up = (fun () -> radio_up r);
    on_carrier = (fun f -> r.watchers <- f :: r.watchers);
  }
