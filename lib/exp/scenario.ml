module Engine = Rina_sim.Engine
module Ipcp = Rina_core.Ipcp
module Types = Rina_core.Types

let drive_until engine ?(step = 0.05) ~timeout cond =
  let deadline = Engine.now engine +. timeout in
  while (not (cond ())) && Engine.now engine < deadline do
    Engine.run ~until:(Engine.now engine +. step) engine
  done

let connect engine ~src:(src, src_app) ~dst:(dst, dst_app) ~qos_id ~on_flow =
  Ipcp.register_app dst dst_app ~on_flow;
  Ipcp.register_app src src_app ~on_flow:(fun _ -> ());
  let result = ref None in
  Ipcp.allocate_flow src ~src:src_app ~dst:dst_app ~qos_id ~on_result:(fun r ->
      result := Some r);
  drive_until engine ~timeout:30. (fun () -> !result <> None);
  Option.value !result ~default:(Error "allocation never resolved")

let open_flow (net : Topo.rina_net) ~src ~dst ~qos_id ?sink () =
  let engine = net.Topo.engine in
  let on_flow (flow : Ipcp.flow) =
    Option.iter
      (fun s ->
        flow.Ipcp.set_on_receive (fun sdu ->
            Workload.on_sdu s ~now:(Engine.now engine) sdu))
      sink
  in
  let t0 = Engine.now engine in
  connect engine
    ~src:(net.Topo.nodes.(src), Types.apn (Printf.sprintf "client-n%d" src))
    ~dst:(net.Topo.nodes.(dst), Types.apn (Printf.sprintf "sink-n%d" dst))
    ~qos_id ~on_flow
  |> Result.map (fun flow -> (flow, Engine.now engine -. t0))

(* ---------- chaos hooks ----------

   Node-level faults the simulation layer cannot express on its own:
   [Rina_sim.Fault] knows links, we know IPC processes and topology
   indexes, so the closures are built here. *)

(* A node crash is fail-stop: besides killing the IPC process, every
   frame already in flight toward it on an incident link — including
   mangler holdbacks — must die (R_endpoint_crash) rather than arrive
   at the restarted process with its fresh address. *)
let crash_ipcp (net : Topo.rina_net) node =
  Ipcp.crash net.Topo.nodes.(node);
  Array.iteri
    (fun i (a, b) ->
      if a = node then Rina_sim.Link.crash_endpoint net.Topo.links.(i) `A
      else if b = node then Rina_sim.Link.crash_endpoint net.Topo.links.(i) `B)
    net.Topo.edges

let straddling_links (net : Topo.rina_net) ~group =
  let inside = Array.make (Array.length net.Topo.nodes) false in
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length inside then
        invalid_arg "Scenario.straddling_links: node index out of range";
      inside.(i) <- true)
    group;
  let out = ref [] in
  Array.iteri
    (fun i (a, b) ->
      if inside.(a) <> inside.(b) then out := net.Topo.links.(i) :: !out)
    net.Topo.edges;
  List.rev !out

let partition (net : Topo.rina_net) plan ~at ~until ~group =
  let links = straddling_links net ~group in
  let label =
    Printf.sprintf "partition-%s"
      (String.concat "," (List.map string_of_int group))
  in
  Rina_sim.Fault.window plan ~at ~until ~label
    ~apply:(fun () ->
      List.iter (fun l -> Rina_sim.Link.set_up l false) links)
    ~heal:(fun () -> List.iter (fun l -> Rina_sim.Link.set_up l true) links)

let random_plan (net : Topo.rina_net) ?(protect = [ 0 ]) ~rng ~horizon ~faults
    () =
  if horizon <= 0. then invalid_arg "Scenario.random_plan: horizon <= 0";
  let plan = Rina_sim.Fault.create () in
  let n_links = Array.length net.Topo.links in
  if n_links = 0 then invalid_arg "Scenario.random_plan: no links";
  let crashable =
    Array.of_list
      (List.filter
         (fun i -> not (List.mem i protect))
         (List.init (Array.length net.Topo.nodes) (fun i -> i)))
  in
  let t0 = Engine.now net.Topo.engine in
  let kinds = if Array.length crashable = 0 then 3 else 4 in
  for k = 1 to faults do
    let at = t0 +. Rina_util.Prng.uniform_in rng 0.02 (0.65 *. horizon) in
    let dur =
      Rina_util.Prng.uniform_in rng (0.05 *. horizon) (0.25 *. horizon)
    in
    let until = Float.min (at +. dur) (t0 +. (0.9 *. horizon)) in
    let until = if until <= at then at +. (0.05 *. horizon) else until in
    match Rina_util.Prng.int rng kinds with
    | 0 ->
      let li = Rina_util.Prng.int rng n_links in
      Rina_sim.Fault.link_down plan ~at ~until
        ~label:(Printf.sprintf "flap%d-l%d" k li)
        net.Topo.links.(li)
    | 1 ->
      let li = Rina_util.Prng.int rng n_links in
      Rina_sim.Fault.link_blackhole plan ~at ~until
        ~label:(Printf.sprintf "blackhole%d-l%d" k li)
        net.Topo.links.(li)
    | 2 ->
      let li = Rina_util.Prng.int rng n_links in
      Rina_sim.Fault.link_degrade plan ~at ~until
        ~label:(Printf.sprintf "degrade%d-l%d" k li)
        ~rate_factor:0.1
        ~loss:(Rina_sim.Loss.Bernoulli 0.2)
        net.Topo.links.(li)
    | _ ->
      let node = Rina_util.Prng.pick rng crashable in
      Rina_sim.Fault.window plan ~at ~until
        ~label:(Printf.sprintf "crash%d-n%d" k node)
        ~apply:(fun () -> crash_ipcp net node)
        ~heal:(fun () -> Ipcp.restart net.Topo.nodes.(node))
  done;
  plan

let sum_metric (net : Topo.rina_net) name =
  Array.fold_left
    (fun acc node -> acc + Rina_util.Metrics.get (Ipcp.metrics node) name)
    0 net.Topo.nodes

let sum_rmt_metric (net : Topo.rina_net) name =
  Array.fold_left
    (fun acc node -> acc + Rina_util.Metrics.get (Ipcp.rmt_metrics node) name)
    0 net.Topo.nodes
