(* Dijkstra needs non-negative edge weights, and a NaN cost poisons
   every route through it. *)
let valid_cost c = Float.is_finite c && c >= 0.

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
            if not (valid_cost cost) then
              raise (R.Decode_error (Printf.sprintf "bad cost %g" cost));
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

(* The database plus a dense index of every address it mentions, which
   SPF runs over.  Each address has a slot; the per-slot arrays hold
   whether its LSA is installed, that LSA's neighbours as slots with
   their costs (in LSA order), and the LSA's age stamp.  A slot is
   referenced by its own installed LSA and by every neighbour entry of an
   installed LSA that names it; it returns to [free] when the last
   reference goes, so the index stays the size of the database however
   many addresses come and go. *)
type t = {
  db : (Types.address, Lsa.t) Hashtbl.t;
  index : (Types.address, int) Hashtbl.t;
  mutable version : int;
  mutable addr : Types.address array;
  mutable has_lsa : bool array;
  mutable nbrs : int array array;
  mutable costs : float array array;
  mutable refs : int array;
  mutable stamp : float array;
      (* virtual time the slot's LSA was last installed or refreshed;
         drives aging *)
  mutable used : int;  (* slots handed out so far, live or in [free] *)
  mutable free : int list;
}

let create () =
  {
    db = Hashtbl.create 32;
    index = Hashtbl.create 32;
    version = 0;
    addr = [||];
    has_lsa = [||];
    nbrs = [||];
    costs = [||];
    refs = [||];
    stamp = [||];
    used = 0;
    free = [];
  }

let graph_version t = t.version

let index_size t = t.used

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let slot_for t addr =
  match Hashtbl.find_opt t.index addr with
  | Some s -> s
  | None ->
    let s =
      match t.free with
      | s :: rest ->
        t.free <- rest;
        s
      | [] ->
        let cap = Array.length t.addr in
        if t.used = cap then begin
          let n = if cap = 0 then 16 else 2 * cap in
          t.addr <- extend t.addr n Types.no_address;
          t.has_lsa <- extend t.has_lsa n false;
          t.nbrs <- extend t.nbrs n [||];
          t.costs <- extend t.costs n [||];
          t.refs <- extend t.refs n 0;
          t.stamp <- extend t.stamp n 0.
        end;
        t.used <- t.used + 1;
        t.used - 1
    in
    t.addr.(s) <- addr;
    Hashtbl.replace t.index addr s;
    s

let unref t s =
  t.refs.(s) <- t.refs.(s) - 1;
  if t.refs.(s) = 0 then begin
    Hashtbl.remove t.index t.addr.(s);
    t.free <- s :: t.free
  end

(* The one graph change: slot [s] now lists [neighbors].  New references
   are taken before old ones are dropped, so an address named by both
   lists keeps its slot. *)
let set_neighbors t s neighbors =
  let old = t.nbrs.(s) in
  let nbrs = Array.of_list (List.map (fun (a, _) -> slot_for t a) neighbors) in
  Array.iter (fun b -> t.refs.(b) <- t.refs.(b) + 1) nbrs;
  t.nbrs.(s) <- nbrs;
  t.costs.(s) <- Array.of_list (List.map snd neighbors);
  Array.iter (unref t) old;
  t.version <- t.version + 1

let same_neighbors =
  List.equal (fun (a, c) (b, d) -> a = b && Float.equal c d)

let install ?(now = 0.) t (lsa : Lsa.t) =
  let origin = lsa.Lsa.origin in
  match Hashtbl.find_opt t.db origin with
  | Some existing when existing.Lsa.seq > lsa.Lsa.seq -> false
  | Some existing when existing.Lsa.seq = lsa.Lsa.seq ->
    (* Duplicate: not a change (don't re-flood), but the origin proved
       itself alive, so refresh its age. *)
    t.stamp.(Hashtbl.find t.index origin) <- now;
    false
  | stored ->
    Hashtbl.replace t.db origin lsa;
    let s = slot_for t origin in
    t.stamp.(s) <- now;
    if not t.has_lsa.(s) then begin
      t.has_lsa.(s) <- true;
      t.refs.(s) <- t.refs.(s) + 1
    end;
    (* A refresh re-floods the same neighbours under a higher sequence
       number: the database changed, the graph did not. *)
    (match stored with
    | Some existing when same_neighbors existing.Lsa.neighbors lsa.Lsa.neighbors -> ()
    | Some _ | None -> set_neighbors t s lsa.Lsa.neighbors);
    true

let withdraw t origin =
  if Hashtbl.mem t.db origin then begin
    Hashtbl.remove t.db origin;
    let s = Hashtbl.find t.index origin in
    t.has_lsa.(s) <- false;
    set_neighbors t s [];
    unref t s;
    true
  end
  else false

let expired t ~now ~max_age =
  if max_age <= 0. then []
  else
    Hashtbl.fold
      (fun origin _ acc ->
        if now -. t.stamp.(Hashtbl.find t.index origin) > max_age then origin :: acc
        else acc)
      t.db []
    |> List.sort compare

let clear t =
  if Hashtbl.length t.db > 0 then t.version <- t.version + 1;
  Hashtbl.reset t.db;
  Hashtbl.reset t.index;
  t.addr <- [||];
  t.has_lsa <- [||];
  t.nbrs <- [||];
  t.costs <- [||];
  t.refs <- [||];
  t.stamp <- [||];
  t.used <- 0;
  t.free <- []

let lsa_of t origin = Hashtbl.find_opt t.db origin

let origins t =
  Hashtbl.fold (fun origin _ acc -> origin :: acc) t.db [] |> List.sort compare

let all t = Hashtbl.fold (fun _ lsa acc -> lsa :: acc) t.db []

type next_hops = (Types.address, Types.address * float) Hashtbl.t

let rec lists nbrs a i = i < Array.length nbrs && (nbrs.(i) = a || lists nbrs a (i + 1))

(* Edge a->b is usable only if b's LSA is installed and lists a (the
   cost used is a's view). *)
let usable t a b = t.has_lsa.(b) && lists t.nbrs.(b) a 0

(* One SPF run's state per slot: the best cost found so far, and whether
   the slot is unreached, reached or finished. *)
type run = { dist : float array; mark : Bytes.t; heap : int Rina_util.Heap.t }

let unreached = '\000'
let reached = '\001'
let finished = '\002'

(* [source]'s slot and a run with only the source reached, at cost 0, or
   [None] if [source] has no LSA. *)
let start t source =
  match Hashtbl.find_opt t.index source with
  | Some s when t.has_lsa.(s) ->
    let r =
      {
        dist = Array.make t.used 0.;
        mark = Bytes.make t.used unreached;
        heap = Rina_util.Heap.create ~filler:0;
      }
    in
    Bytes.set r.mark s reached;
    Rina_util.Heap.push r.heap 0. s;
    Some (s, r)
  | Some _ | None -> None

(* An SPF heap entry packs the node's slot and its first hop's. *)
let slot_bits = 30

let slot_mask = (1 lsl slot_bits) - 1

(* Lazy-deletion Dijkstra: a node may sit in the heap several times, and
   only its first pop (lowest cost, earliest push among equals) counts. *)
let spf t ~source =
  let result : next_hops = Hashtbl.create 32 in
  (match start t source with
  | None -> ()
  | Some (src, r) ->
    let heap = r.heap in
    while not (Rina_util.Heap.is_empty heap) do
      let cost = Rina_util.Heap.top_key heap and e = Rina_util.Heap.top_value heap in
      Rina_util.Heap.drop_min heap;
      let node = e land slot_mask and first_hop = e lsr slot_bits in
      if Bytes.get r.mark node <> finished then begin
        Bytes.set r.mark node finished;
        if node <> src then
          Hashtbl.replace result t.addr.(node) (t.addr.(first_hop), cost);
        let nbrs = t.nbrs.(node) and costs = t.costs.(node) in
        for i = 0 to Array.length nbrs - 1 do
          let next = nbrs.(i) in
          if usable t node next && Bytes.get r.mark next <> finished then begin
            let ncost = cost +. costs.(i) in
            if Bytes.get r.mark next = unreached || ncost < r.dist.(next) then begin
              r.dist.(next) <- ncost;
              Bytes.set r.mark next reached;
              let fh = if node = src then next else first_hop in
              Rina_util.Heap.push heap ncost (next lor (fh lsl slot_bits))
            end
          end
        done
      end
    done);
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
  (match start t source with
  | None -> ()
  | Some (src, r) ->
    let heap = r.heap in
    let fhs = Array.make t.used [] in
    while not (Rina_util.Heap.is_empty heap) do
      let cost = Rina_util.Heap.top_key heap and node = Rina_util.Heap.top_value heap in
      Rina_util.Heap.drop_min heap;
      if Bytes.get r.mark node <> finished then begin
        Bytes.set r.mark node finished;
        if node <> src then
          Hashtbl.replace result t.addr.(node) (List.sort_uniq Int.compare fhs.(node), cost);
        let nbrs = t.nbrs.(node) and costs = t.costs.(node) in
        for i = 0 to Array.length nbrs - 1 do
          let next = nbrs.(i) in
          if usable t node next && Bytes.get r.mark next <> finished then begin
            let ncost = cost +. costs.(i) in
            let nfh = if node = src then [ t.addr.(next) ] else fhs.(node) in
            let seen = Bytes.get r.mark next = reached in
            if seen && ncost > r.dist.(next) then ()
            else if seen && ncost = r.dist.(next) then
              fhs.(next) <- List.sort_uniq Int.compare (nfh @ fhs.(next))
            else begin
              r.dist.(next) <- ncost;
              Bytes.set r.mark next reached;
              fhs.(next) <- nfh;
              Rina_util.Heap.push heap ncost next
            end
          end
        done
      end
    done);
  result

let size t = Hashtbl.length t.db
