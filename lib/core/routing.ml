module Lsa = struct
  type t = {
    origin : Types.address;
    seq : int;
    neighbors : (Types.address * float) list;
  }

  let encode t =
    let module W = Rina_util.Codec.Writer in
    let w = W.create () in
    W.u32 w t.origin;
    W.u32 w t.seq;
    W.u16 w (List.length t.neighbors);
    List.iter
      (fun (addr, cost) ->
        W.u32 w addr;
        W.f64 w cost)
      t.neighbors;
    W.contents w

  let decode data =
    let module R = Rina_util.Codec.Reader in
    try
      let r = R.create data in
      let origin = R.u32 r in
      let seq = R.u32 r in
      let n = R.u16 r in
      let neighbors =
        List.init n (fun _ ->
            let addr = R.u32 r in
            let cost = R.f64 r in
            (addr, cost))
      in
      R.expect_end r;
      Ok { origin; seq; neighbors }
    with R.Decode_error msg -> Error msg

  let pp fmt t =
    Format.fprintf fmt "LSA(%d seq=%d: %s)" t.origin t.seq
      (String.concat ","
         (List.map (fun (a, c) -> Printf.sprintf "%d/%.1f" a c) t.neighbors))
end

type t = {
  db : (Types.address, Lsa.t) Hashtbl.t;
  (* virtual time each origin's LSA was last installed/refreshed;
     drives aging.  An origin absent here was installed by a caller
     that never passes ~now (age 0 forever). *)
  installed_at : (Types.address, float) Hashtbl.t;
}

let create () = { db = Hashtbl.create 32; installed_at = Hashtbl.create 32 }

let install ?(now = 0.) t (lsa : Lsa.t) =
  match Hashtbl.find_opt t.db lsa.Lsa.origin with
  | Some existing when existing.Lsa.seq > lsa.Lsa.seq -> false
  | Some existing when existing.Lsa.seq = lsa.Lsa.seq ->
    (* Duplicate: not a change (don't re-flood), but the origin proved
       itself alive, so refresh its age. *)
    Hashtbl.replace t.installed_at lsa.Lsa.origin now;
    false
  | Some _ | None ->
    Hashtbl.replace t.db lsa.Lsa.origin lsa;
    Hashtbl.replace t.installed_at lsa.Lsa.origin now;
    (* An accepted LSA is a routing-state change: events carry the
       origin as the flow field and the LSA sequence number. *)
    if Rina_util.Flight.enabled () then
      Rina_util.Flight.emit ~component:"routing" ~flow:lsa.Lsa.origin
        ~seq:lsa.Lsa.seq Rina_util.Flight.Route_update;
    true

let withdraw t origin =
  if Hashtbl.mem t.db origin then begin
    Hashtbl.remove t.db origin;
    Hashtbl.remove t.installed_at origin;
    true
  end
  else false

let expired t ~now ~max_age =
  if max_age <= 0. then []
  else
    Hashtbl.fold
      (fun origin _ acc ->
        let at =
          match Hashtbl.find_opt t.installed_at origin with
          | Some at -> at
          | None -> 0.
        in
        if now -. at > max_age then origin :: acc else acc)
      t.db []
    |> List.sort compare

let clear t =
  Hashtbl.reset t.db;
  Hashtbl.reset t.installed_at

let lsa_of t origin = Hashtbl.find_opt t.db origin

let origins t =
  Hashtbl.fold (fun origin _ acc -> origin :: acc) t.db [] |> List.sort compare

let all t = Hashtbl.fold (fun _ lsa acc -> lsa :: acc) t.db []

type next_hops = (Types.address, Types.address * float) Hashtbl.t

(* Edge a->b with cost c is usable only if b also advertises a (the
   cost used is a's view). *)
let usable_neighbors t (lsa : Lsa.t) =
  List.filter
    (fun (b, _) ->
      match Hashtbl.find_opt t.db b with
      | None -> false
      | Some back -> List.exists (fun (a, _) -> a = lsa.Lsa.origin) back.Lsa.neighbors)
    lsa.Lsa.neighbors

(* The heap's filler for the slots SPF's (node, first hop) entries vacate. *)
let no_hop = (Types.no_address, Types.no_address)

let spf t ~source =
  let result : next_hops = Hashtbl.create 32 in
  match Hashtbl.find_opt t.db source with
  | None -> result
  | Some _ ->
    (* Dijkstra; heap entries carry (node, first_hop on the path). *)
    let heap = Rina_util.Heap.create ~filler:no_hop in
    let dist : (Types.address, float) Hashtbl.t = Hashtbl.create 32 in
    Hashtbl.replace dist source 0.;
    Rina_util.Heap.push heap 0. (source, Types.no_address);
    let finished : (Types.address, unit) Hashtbl.t = Hashtbl.create 32 in
    let continue = ref true in
    while !continue do
      match Rina_util.Heap.pop heap with
      | None -> continue := false
      | Some (cost, (node, first_hop)) ->
        if not (Hashtbl.mem finished node) then begin
          Hashtbl.replace finished node ();
          if node <> source then Hashtbl.replace result node (first_hop, cost);
          match Hashtbl.find_opt t.db node with
          | None -> ()
          | Some lsa ->
            List.iter
              (fun (next, edge_cost) ->
                if not (Hashtbl.mem finished next) then begin
                  let ncost = cost +. edge_cost in
                  let better =
                    match Hashtbl.find_opt dist next with
                    | None -> true
                    | Some d -> ncost < d
                  in
                  if better then begin
                    Hashtbl.replace dist next ncost;
                    let fh = if node = source then next else first_hop in
                    Rina_util.Heap.push heap ncost (next, fh)
                  end
                end)
              (usable_neighbors t lsa)
        end
    done;
    result

(* Equal-cost variant for multipath striping: per destination, the
   sorted set of first hops that start a shortest path, plus the cost.
   Dijkstra with first-hop sets merged on cost ties during relaxation;
   ties discovered only between two already-equal finished nodes are
   not chased (a predecessor-DAG pass could find more, but partial
   ECMP is fine — what matters is that the result is deterministic). *)
let spf_multi t ~source =
  let result : (Types.address, Types.address list * float) Hashtbl.t =
    Hashtbl.create 32
  in
  match Hashtbl.find_opt t.db source with
  | None -> result
  | Some _ ->
    let heap = Rina_util.Heap.create ~filler:Types.no_address in
    let dist : (Types.address, float) Hashtbl.t = Hashtbl.create 32 in
    let fhs : (Types.address, Types.address list) Hashtbl.t =
      Hashtbl.create 32
    in
    Hashtbl.replace dist source 0.;
    Rina_util.Heap.push heap 0. source;
    let finished : (Types.address, unit) Hashtbl.t = Hashtbl.create 32 in
    let continue = ref true in
    while !continue do
      match Rina_util.Heap.pop heap with
      | None -> continue := false
      | Some (cost, node) ->
        if not (Hashtbl.mem finished node) then begin
          Hashtbl.replace finished node ();
          if node <> source then
            Hashtbl.replace result node
              ( (match Hashtbl.find_opt fhs node with
                | Some l -> List.sort_uniq compare l
                | None -> []),
                cost );
          match Hashtbl.find_opt t.db node with
          | None -> ()
          | Some lsa ->
            List.iter
              (fun (next, edge_cost) ->
                if not (Hashtbl.mem finished next) then begin
                  let ncost = cost +. edge_cost in
                  let nfh =
                    if node = source then [ next ]
                    else
                      match Hashtbl.find_opt fhs node with
                      | Some l -> l
                      | None -> []
                  in
                  match Hashtbl.find_opt dist next with
                  | Some d when ncost > d -> ()
                  | Some d when ncost = d ->
                    let cur =
                      match Hashtbl.find_opt fhs next with
                      | Some l -> l
                      | None -> []
                    in
                    Hashtbl.replace fhs next
                      (List.sort_uniq compare (nfh @ cur))
                  | Some _ | None ->
                    Hashtbl.replace dist next ncost;
                    Hashtbl.replace fhs next nfh;
                    Rina_util.Heap.push heap ncost next
                end)
              (usable_neighbors t lsa)
        end
    done;
    result

let size t = Hashtbl.length t.db
