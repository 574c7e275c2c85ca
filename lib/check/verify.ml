module Policy = Rina_core.Policy

type member = { m_name : string; m_address : int; m_apps : string list }

type attachment =
  | Direct of { delay : float; bit_rate : float; queue_frames : int }
  | Stacked of { lower_dif : string; via_a : string; via_b : string }

type adjacency = { adj_a : string; adj_b : string; att : attachment }

type dif = {
  d_name : string;
  d_policy : Policy.t;
  d_members : member list;
  d_adjacencies : adjacency list;
}

type intent = { it_dif : string; it_src : string; it_dst_app : string }

type model = { difs : dif list; intents : intent list }

type summary = {
  n_difs : int;
  n_members : int;
  n_adjacencies : int;
  n_intents : int;
  support_depth : int;
}

type report = { diags : Diag.t list; summary : summary }

(* The encoded wire size of one full-MTU PDU of a DIF: user bytes plus
   the PDU header plus the SDU-protection trailer.  This whole frame
   is the SDU handed to the (N-1) flow, which Delimiting then
   fragments into chunks of at most the lower MTU. *)
let frame_bytes (p : Policy.t) =
  p.Policy.efcp.Policy.mtu + Rina_core.Pdu.header_size
  + Rina_core.Sdu_protection.overhead

let fragments_into ~frame ~lower_mtu = (frame + lower_mtu - 1) / lower_mtu

(* ---------- model indexing ---------- *)

type ctx = {
  by_name : (string, dif) Hashtbl.t;
  (* per DIF: member name -> member, and the undirected adjacency list
     over *valid* adjacencies (dangling ones are reported, then
     skipped by the graph analyses) *)
  members : (string, (string, member) Hashtbl.t) Hashtbl.t;
  graph : (string, (string, (string * adjacency) list) Hashtbl.t) Hashtbl.t;
}

let index m =
  let ctx =
    {
      by_name = Hashtbl.create 8;
      members = Hashtbl.create 8;
      graph = Hashtbl.create 8;
    }
  in
  List.iter
    (fun d ->
      if not (Hashtbl.mem ctx.by_name d.d_name) then begin
        Hashtbl.replace ctx.by_name d.d_name d;
        let mt = Hashtbl.create 16 in
        List.iter
          (fun mem ->
            if not (Hashtbl.mem mt mem.m_name) then Hashtbl.replace mt mem.m_name mem)
          d.d_members;
        Hashtbl.replace ctx.members d.d_name mt;
        Hashtbl.replace ctx.graph d.d_name (Hashtbl.create 16)
      end)
    m.difs;
  (* Second pass: adjacency lists, once every DIF's member table exists. *)
  List.iter
    (fun d ->
      match Hashtbl.find_opt ctx.graph d.d_name with
      | None -> ()
      | Some g ->
        let mt = Hashtbl.find ctx.members d.d_name in
        List.iter
          (fun adj ->
            if Hashtbl.mem mt adj.adj_a && Hashtbl.mem mt adj.adj_b then begin
              let add k v =
                Hashtbl.replace g k
                  ((v, adj) :: (Option.value ~default:[] (Hashtbl.find_opt g k)))
              in
              add adj.adj_a adj.adj_b;
              add adj.adj_b adj.adj_a
            end)
          d.d_adjacencies)
    m.difs;
  ctx

let neighbors ctx dif_name node =
  match Hashtbl.find_opt ctx.graph dif_name with
  | None -> []
  | Some g -> Option.value ~default:[] (Hashtbl.find_opt g node)

(* ---------- effective delay (recursive through the stack) ---------- *)

let rec eff_delay ctx visiting dif_name adj =
  match adj.att with
  | Direct { delay; _ } -> delay
  | Stacked { lower_dif; via_a; via_b } ->
    if List.mem lower_dif visiting then 0.
    else if not (Hashtbl.mem ctx.by_name lower_dif) then 0.
    else shortest_delay ctx (lower_dif :: visiting) lower_dif via_a via_b
  [@@warning "-27"]

(* Dijkstra over one DIF's adjacency graph with effective-delay
   weights; 0 when [dst] is unreachable (reported separately as
   V110). *)
and shortest_delay ctx visiting dif_name src dst =
  if String.equal src dst then 0.
  else begin
    let dist = Hashtbl.create 16 in
    Hashtbl.replace dist src 0.;
    let frontier = ref [ (0., src) ] in
    let result = ref None in
    let rec loop () =
      match
        List.fold_left
          (fun best (d, n) ->
            match best with
            | Some (bd, _) when bd <= d -> best
            | _ -> Some (d, n))
          None !frontier
      with
      | None -> ()
      | Some (d, n) ->
        frontier := List.filter (fun (_, n') -> not (String.equal n' n)) !frontier;
        if String.equal n dst then result := Some d
        else begin
          List.iter
            (fun (n', adj) ->
              let d' = d +. eff_delay ctx visiting dif_name adj in
              match Hashtbl.find_opt dist n' with
              | Some old when old <= d' -> ()
              | _ ->
                Hashtbl.replace dist n' d';
                frontier := (d', n') :: !frontier)
            (neighbors ctx dif_name n);
          loop ()
        end
    in
    loop ();
    Option.value ~default:0. !result
  end

let effective_delay m d adj = eff_delay (index m) [ d.d_name ] d.d_name adj

(* Bottleneck rate of a DIF: the narrowest effective rate over its
   adjacencies, recursing through stacked attachments. *)
let rec eff_rate ctx visiting dif_name adj =
  match adj.att with
  | Direct { bit_rate; _ } -> bit_rate
  | Stacked { lower_dif; _ } ->
    if List.mem lower_dif visiting || not (Hashtbl.mem ctx.by_name lower_dif) then
      infinity
    else dif_bottleneck ctx (lower_dif :: visiting) lower_dif
  [@@warning "-27"]

and dif_bottleneck ctx visiting dif_name =
  match Hashtbl.find_opt ctx.by_name dif_name with
  | None -> infinity
  | Some d ->
    List.fold_left
      (fun acc adj -> Float.min acc (eff_rate ctx visiting dif_name adj))
      infinity d.d_adjacencies

(* ---------- connectivity ---------- *)

(* Connected components of one DIF's adjacency graph, as sorted member
   lists (sorted component lists, largest first, deterministic). *)
let components ctx d =
  let mt = Hashtbl.find ctx.members d.d_name in
  let seen = Hashtbl.create 16 in
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) mt []) in
  List.filter_map
    (fun start ->
      if Hashtbl.mem seen start then None
      else begin
        let comp = ref [] in
        let rec bfs = function
          | [] -> ()
          | n :: rest ->
            if Hashtbl.mem seen n then bfs rest
            else begin
              Hashtbl.replace seen n ();
              comp := n :: !comp;
              bfs (List.map fst (neighbors ctx d.d_name n) @ rest)
            end
        in
        bfs [ start ];
        Some (List.sort compare !comp)
      end)
    names

let reachable ctx dif_name src dst =
  let seen = Hashtbl.create 16 in
  let rec bfs = function
    | [] -> false
    | n :: rest ->
      if String.equal n dst then true
      else if Hashtbl.mem seen n then bfs rest
      else begin
        Hashtbl.replace seen n ();
        bfs (List.map fst (neighbors ctx dif_name n) @ rest)
      end
  in
  bfs [ src ]

(* ---------- the analyses ---------- *)

let verify ?(max_depth = 16) m =
  let ctx = index m in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let err ?hint code fmt = Printf.ksprintf (fun s -> emit (Diag.error ?hint code s)) fmt in
  let warn ?hint code fmt =
    Printf.ksprintf (fun s -> emit (Diag.warning ?hint code s)) fmt
  in
  (* --- V003: duplicates --- *)
  let seen_difs = Hashtbl.create 8 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen_difs d.d_name then
        err "V003" "duplicate DIF name %S in the model" d.d_name
      else Hashtbl.replace seen_difs d.d_name ();
      let seen_m = Hashtbl.create 16 in
      List.iter
        (fun mem ->
          if Hashtbl.mem seen_m mem.m_name then
            err "V003" "DIF %S declares member %S twice" d.d_name mem.m_name
          else Hashtbl.replace seen_m mem.m_name ())
        d.d_members)
    m.difs;
  (* --- V001/V002: dangling references --- *)
  List.iter
    (fun d ->
      let mt = Hashtbl.find ctx.members d.d_name in
      List.iter
        (fun adj ->
          List.iter
            (fun e ->
              if not (Hashtbl.mem mt e) then
                err "V001" "DIF %S: adjacency %s--%s references unknown member %S"
                  d.d_name adj.adj_a adj.adj_b e)
            [ adj.adj_a; adj.adj_b ];
          match adj.att with
          | Direct _ -> ()
          | Stacked { lower_dif; via_a; via_b } -> (
            match Hashtbl.find_opt ctx.members lower_dif with
            | None ->
              err "V002" "DIF %S: adjacency %s--%s is stacked over unknown DIF %S"
                d.d_name adj.adj_a adj.adj_b lower_dif
            | Some lmt ->
              List.iter
                (fun v ->
                  if not (Hashtbl.mem lmt v) then
                    err "V002"
                      "DIF %S: adjacency %s--%s names %S as its endpoint in lower \
                       DIF %S, but no such member exists there"
                      d.d_name adj.adj_a adj.adj_b v lower_dif)
                [ via_a; via_b ]))
        d.d_adjacencies)
    m.difs;
  (* --- V004/V101/V104: intents --- *)
  List.iter
    (fun it ->
      match Hashtbl.find_opt ctx.members it.it_dif with
      | None -> err "V004" "flow intent references unknown DIF %S" it.it_dif
      | Some mt ->
        if not (Hashtbl.mem mt it.it_src) then
          err "V004" "flow intent in DIF %S allocates from unknown member %S"
            it.it_dif it.it_src
        else begin
          let registrants =
            Hashtbl.fold
              (fun _ mem acc ->
                if List.mem it.it_dst_app mem.m_apps then mem.m_name :: acc else acc)
              mt []
          in
          match registrants with
          | [] ->
            err "V101"
              "flow intent %s -> %S in DIF %S: the application name is registered \
               by no member of the DIF"
              it.it_src it.it_dst_app it.it_dif
              ~hint:"register the name, or fix the intent's destination"
          | rs ->
            if not (List.exists (fun r -> reachable ctx it.it_dif it.it_src r) rs)
            then
              err "V104"
                "flow intent %s -> %S in DIF %S: no member registering the name is \
                 reachable from the allocator"
                it.it_src it.it_dst_app it.it_dif
                ~hint:"the DIF graph does not connect allocator and registrant"
        end)
    m.intents;
  (* --- V102: disconnected DIFs, V103: directory collisions --- *)
  List.iter
    (fun d ->
      (match components ctx d with
       | [] | [ _ ] -> ()
       | first :: rest ->
         err "V102"
           "DIF %S is disconnected: %d members in the largest component, %d cut \
            off (%s)"
           d.d_name (List.length first)
           (List.fold_left (fun acc c -> acc + List.length c) 0 rest)
           (String.concat ", " (List.concat rest))
           ~hint:
             "members outside one component can neither enroll together nor \
              resolve each other's names");
      let reg = Hashtbl.create 16 in
      List.iter
        (fun mem ->
          List.iter
            (fun app ->
              match Hashtbl.find_opt reg app with
              | Some other ->
                err "V103"
                  "DIF %S: application %S is registered by both %S and %S — the \
                   distributed directory maps a name to one address"
                  d.d_name app other mem.m_name
              | None -> Hashtbl.replace reg app mem.m_name)
            mem.m_apps)
        d.d_members)
    m.difs;
  (* --- V110: stacked adjacencies whose lower flow cannot exist --- *)
  List.iter
    (fun d ->
      List.iter
        (fun adj ->
          match adj.att with
          | Direct _ -> ()
          | Stacked { lower_dif; via_a; via_b } -> (
            match Hashtbl.find_opt ctx.members lower_dif with
            | None -> ()  (* V002 already fired *)
            | Some lmt ->
              if
                Hashtbl.mem lmt via_a && Hashtbl.mem lmt via_b
                && not (reachable ctx lower_dif via_a via_b)
              then
                err "V110"
                  "DIF %S: adjacency %s--%s rides a flow %s -> %s in DIF %S, but \
                   those members are not connected there"
                  d.d_name adj.adj_a adj.adj_b via_a via_b lower_dif))
        d.d_adjacencies)
    m.difs;
  (* --- V201/V202/V203: address-space soundness --- *)
  List.iter
    (fun d ->
      let by_addr = Hashtbl.create 16 in
      let assigned = ref 0 and unassigned = ref 0 in
      List.iter
        (fun mem ->
          if mem.m_address < 0 then
            err "V202" "DIF %S: member %S has negative address %d" d.d_name
              mem.m_name mem.m_address
          else if mem.m_address = 0 then incr unassigned
          else begin
            incr assigned;
            match Hashtbl.find_opt by_addr mem.m_address with
            | Some other ->
              err "V201" "DIF %S: members %S and %S share address %d" d.d_name
                other mem.m_name mem.m_address
                ~hint:"an address is a synonym unique within its DIF"
            | None -> Hashtbl.replace by_addr mem.m_address mem.m_name
          end)
        d.d_members;
      if !assigned > 0 && !unassigned > 0 then
        warn "V203"
          "DIF %S: %d member(s) have planned addresses but %d are left to \
           enrollment — collisions with the enrollment allocator cannot be \
           checked statically"
          d.d_name !assigned !unassigned)
    m.difs;
  (* --- support graph: V211 self-support, V301 cycles, V210 depth --- *)
  let supports d =
    List.filter_map
      (fun adj ->
        match adj.att with
        | Stacked { lower_dif; _ } -> Some lower_dif
        | Direct _ -> None)
      d.d_adjacencies
    |> List.sort_uniq compare
  in
  List.iter
    (fun d ->
      if List.mem d.d_name (supports d) then
        err "V211" "DIF %S is stacked over itself" d.d_name
          ~hint:"an (N)-DIF cannot allocate its own (N-1) flows")
    m.difs;
  (* Depth (longest support chain) with cycle detection in one DFS. *)
  let depth_memo = Hashtbl.create 8 in
  let cycles = ref [] in
  let rec depth stack name =
    match Hashtbl.find_opt depth_memo name with
    | Some d -> d
    | None ->
      if List.mem name stack then begin
        (* Canonical rotation so each cycle is reported once. *)
        let rec upto acc = function
          | [] -> acc
          | x :: rest -> if String.equal x name then x :: acc else upto (x :: acc) rest
        in
        let cycle = upto [] stack in
        let least = List.fold_left min name cycle in
        if not (List.mem least !cycles) then begin
          cycles := least :: !cycles;
          if List.length cycle > 1 then
            err "V301" "enrollment dependency cycle: %s -> %s"
              (String.concat " -> " cycle)
              (List.hd cycle)
              ~hint:
                "each DIF needs a flow of the next to bootstrap — none can come \
                 up first"
        end;
        0
      end
      else
        match Hashtbl.find_opt ctx.by_name name with
        | None -> 0
        | Some d ->
          let below =
            List.fold_left
              (fun acc l -> max acc (depth (name :: stack) l))
              0 (supports d)
          in
          let r = 1 + below in
          Hashtbl.replace depth_memo name r;
          r
  in
  let support_depth =
    List.fold_left (fun acc d -> max acc (depth [] d.d_name)) 0 m.difs
  in
  if support_depth > max_depth then
    err "V210" "DIF recursion depth %d exceeds the bound %d" support_depth max_depth
      ~hint:"raise --max-depth if the stacking is intentional";
  (* --- V220/V221/V222: cross-layer feasibility --- *)
  List.iter
    (fun d ->
      let frame = frame_bytes d.d_policy in
      let window = d.d_policy.Policy.efcp.Policy.window in
      List.iter
        (fun adj ->
          match adj.att with
          | Direct { queue_frames; _ } ->
            if window > queue_frames then
              warn "V222"
                "DIF %S: adjacency %s--%s queues %d frames but the EFCP window \
                 allows %d PDUs in flight — a full-window burst overruns the \
                 queue"
                d.d_name adj.adj_a adj.adj_b queue_frames window
                ~hint:"raise the link queue or shrink the window"
          | Stacked { lower_dif; _ } -> (
            match Hashtbl.find_opt ctx.by_name lower_dif with
            | None -> ()
            | Some l ->
              let lower_mtu = l.d_policy.Policy.efcp.Policy.mtu in
              let lower_window = l.d_policy.Policy.efcp.Policy.window in
              let frags = fragments_into ~frame ~lower_mtu in
              if frags > lower_window then
                err "V221"
                  "DIF %S: one full-MTU PDU (%d B on the wire) fragments into %d \
                   PDUs of DIF %S (MTU %d), more than its whole EFCP window (%d) \
                   — a single (N)-PDU can never be in flight at once"
                  d.d_name frame frags lower_dif lower_mtu lower_window
                  ~hint:"shrink the upper MTU or raise the lower MTU/window"
              else if frags > 2 then
                warn "V220"
                  "DIF %S: one full-MTU PDU (%d B on the wire) fragments into %d \
                   PDUs of DIF %S (MTU %d)"
                  d.d_name frame frags lower_dif lower_mtu
                  ~hint:"per-PDU overhead multiplies; consider aligning the MTUs"))
        d.d_adjacencies)
    m.difs;
  (* --- V230: multihomed in name only --- *)
  (* A registrant with two or more attachments looks fault-tolerant,
     but if every attachment's lower path crosses the same lower-DIF
     edge, that edge is still a single point of failure and the
     multipath monitor's failover has nowhere to go.  The cut edges of
     a (src, dst) pair within one DIF are the adjacencies whose
     removal disconnects the pair. *)
  let indexed d = List.mapi (fun i a -> (i, a)) d.d_adjacencies in
  let reaches_without d ~skip src dst =
    let mt = Hashtbl.find ctx.members d.d_name in
    let adjs =
      List.filter
        (fun (i, a) -> i <> skip && Hashtbl.mem mt a.adj_a && Hashtbl.mem mt a.adj_b)
        (indexed d)
    in
    let seen = Hashtbl.create 16 in
    let rec bfs = function
      | [] -> false
      | n :: _ when String.equal n dst -> true
      | n :: rest ->
        if Hashtbl.mem seen n then bfs rest
        else begin
          Hashtbl.replace seen n ();
          let next =
            List.filter_map
              (fun (_, a) ->
                if String.equal a.adj_a n then Some a.adj_b
                else if String.equal a.adj_b n then Some a.adj_a
                else None)
              adjs
          in
          bfs (next @ rest)
        end
    in
    bfs [ src ]
  in
  let cut_edges d src dst =
    if String.equal src dst || not (reaches_without d ~skip:(-1) src dst) then []
    else
      List.filter_map
        (fun (i, _) -> if reaches_without d ~skip:i src dst then None else Some i)
        (indexed d)
  in
  (* The lower edges an attachment cannot live without.  A [Direct]
     link is its own private medium — it shares a fate with nothing —
     so its set is empty and any intersection through it is too. *)
  let unavoidable adj =
    match adj.att with
    | Direct _ -> []
    | Stacked { lower_dif; via_a; via_b } -> (
      match Hashtbl.find_opt ctx.by_name lower_dif with
      | None -> []
      | Some ld -> List.map (fun i -> (lower_dif, i)) (cut_edges ld via_a via_b))
  in
  List.iter
    (fun d ->
      let mt = Hashtbl.find ctx.members d.d_name in
      List.iter
        (fun memb ->
          if memb.m_apps <> [] then begin
            let mine =
              List.filter
                (fun adj ->
                  Hashtbl.mem mt adj.adj_a
                  && Hashtbl.mem mt adj.adj_b
                  && (String.equal adj.adj_a memb.m_name
                     || String.equal adj.adj_b memb.m_name))
                d.d_adjacencies
            in
            if List.length mine >= 2 then begin
              let shared =
                match List.map unavoidable mine with
                | [] -> []
                | first :: rest ->
                  List.fold_left
                    (fun acc s -> List.filter (fun e -> List.mem e s) acc)
                    first rest
              in
              match shared with
              | [] -> ()
              | (ld_name, i) :: _ ->
                let ld = Hashtbl.find ctx.by_name ld_name in
                let cut = List.nth ld.d_adjacencies i in
                warn "V230"
                  "DIF %S: registrant %S is multihomed (%d attachments) but all \
                   of them traverse edge %s--%s of lower DIF %S — one link \
                   failure still severs every attachment"
                  d.d_name memb.m_name (List.length mine) cut.adj_a cut.adj_b
                  ld_name
                  ~hint:
                    "multihomed in name only: route the attachments over \
                     disjoint lower paths"
            end
          end)
        d.d_members)
    m.difs;
  let summary =
    {
      n_difs = List.length m.difs;
      n_members = List.fold_left (fun acc d -> acc + List.length d.d_members) 0 m.difs;
      n_adjacencies =
        List.fold_left (fun acc d -> acc + List.length d.d_adjacencies) 0 m.difs;
      n_intents = List.length m.intents;
      support_depth;
    }
  in
  { diags = List.stable_sort Diag.compare (List.rev !diags); summary }

(* ---------- Lint.topo derivation ---------- *)

let lint_topo m ~dif =
  let ctx = index m in
  match Hashtbl.find_opt ctx.by_name dif with
  | None -> None
  | Some d when d.d_members = [] -> None
  | Some d ->
    let names = List.map (fun mem -> mem.m_name) d.d_members in
    (* Hop diameter and worst-pair delay over connected pairs. *)
    let diameter = ref 0 and worst_delay = ref 0. in
    List.iter
      (fun src ->
        (* BFS hop distances *)
        let dist = Hashtbl.create 16 in
        Hashtbl.replace dist src 0;
        let q = Queue.create () in
        Queue.push src q;
        while not (Queue.is_empty q) do
          let n = Queue.pop q in
          let dn = Hashtbl.find dist n in
          List.iter
            (fun (n', _) ->
              if not (Hashtbl.mem dist n') then begin
                Hashtbl.replace dist n' (dn + 1);
                Queue.push n' q
              end)
            (neighbors ctx d.d_name n)
        done;
        Hashtbl.iter (fun _ h -> if h > !diameter then diameter := h) dist;
        List.iter
          (fun dst ->
            if Hashtbl.mem dist dst && not (String.equal src dst) then begin
              let dd = shortest_delay ctx [ d.d_name ] d.d_name src dst in
              if dd > !worst_delay then worst_delay := dd
            end)
          names)
      names;
    let bottleneck = dif_bottleneck ctx [ d.d_name ] d.d_name in
    Some
      {
        Lint.diameter = max 1 !diameter;
        bottleneck_bit_rate = (if Float.is_finite bottleneck then bottleneck else 0.);
        rtt = 2. *. !worst_delay;
      }

(* ---------- rule table ---------- *)

let rules =
  let e = Diag.Error and w = Diag.Warning in
  [
    Diag.rule ~code:"V001" ~severity:e "adjacency endpoint is not a member of the DIF";
    Diag.rule ~code:"V002" ~severity:e
      "stacked adjacency references an unknown lower DIF or lower member";
    Diag.rule ~code:"V003" ~severity:e "duplicate DIF name, or duplicate member within a DIF";
    Diag.rule ~code:"V004" ~severity:e "flow intent references an unknown DIF or member";
    Diag.rule ~code:"V101" ~severity:e
      "flow intent targets an application name registered nowhere in the DIF";
    Diag.rule ~code:"V102" ~severity:e
      "DIF adjacency graph is disconnected: some members can never enroll or resolve names";
    Diag.rule ~code:"V103" ~severity:e
      "application name registered by more than one member of a DIF (directory collision)";
    Diag.rule ~code:"V104" ~severity:e
      "no member registering the intent's name is reachable from the allocator";
    Diag.rule ~code:"V110" ~severity:e
      "stacked adjacency's endpoints are not connected in the lower DIF";
    Diag.rule ~code:"V201" ~severity:e "two members of a DIF share an address";
    Diag.rule ~code:"V202" ~severity:e "member has a negative address";
    Diag.rule ~code:"V203" ~severity:w
      "mixed planned and enrollment-assigned addresses in one DIF";
    Diag.rule ~code:"V210" ~severity:e "DIF recursion depth exceeds the bound";
    Diag.rule ~code:"V211" ~severity:e "DIF is stacked over itself";
    Diag.rule ~code:"V220" ~severity:w
      "one (N)-PDU fragments into more than two (N-1)-PDUs (overhead amplification)";
    Diag.rule ~code:"V221" ~severity:e
      "one (N)-PDU needs more (N-1)-PDUs than the lower EFCP window admits";
    Diag.rule ~code:"V222" ~severity:w
      "EFCP window exceeds a link's drop-tail queue: full-window bursts overrun it";
    Diag.rule ~code:"V230" ~severity:w
      "multihomed registrant whose attachments all cross one lower cut edge \
       (multihomed in name only)";
    Diag.rule ~code:"V301" ~severity:e
      "enrollment dependency cycle between DIFs: bootstrap deadlocks";
  ]
