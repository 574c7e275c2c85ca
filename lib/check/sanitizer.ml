module Invariant = Rina_util.Invariant

let enable engine =
  let c = Rina_sim.Engine.checks engine in
  Invariant.clear c;
  Invariant.set_enabled c true

let disable engine = Invariant.set_enabled (Rina_sim.Engine.checks engine) false

let enabled engine = Invariant.enabled (Rina_sim.Engine.checks engine)

let reset engine = Invariant.clear (Rina_sim.Engine.checks engine)

let violations engine =
  List.map
    (fun (v : Invariant.violation) ->
      let message =
        if v.count = 1 then v.detail
        else Printf.sprintf "%s (%d occurrences)" v.detail v.count
      in
      Diag.error v.code message)
    (Invariant.violations (Rina_sim.Engine.checks engine))

let audit_half label (c : Rina_sim.Link.conservation) =
  let in_flight = c.injected - c.delivered - c.dropped - c.blackholed in
  if in_flight = 0 then []
  else
    [
      Diag.error "SAN_PDU_CONSERVATION"
        (Printf.sprintf
           "%s: injected %d <> delivered %d + dropped %d + blackholed %d (%d \
            unaccounted)"
           label c.injected c.delivered c.dropped c.blackholed in_flight)
        ~hint:
          "every frame must end up delivered or counted in a drop path \
           (including blackholed); run the audit only after the event queue \
           drains";
    ]

let audit_link ?(label = "link") link =
  audit_half (label ^ " a->b") (Rina_sim.Link.conservation_a link)
  @ audit_half (label ^ " b->a") (Rina_sim.Link.conservation_b link)

let audit_drained engine =
  let n = Rina_sim.Engine.pending engine in
  if n = 0 then []
  else
    [
      Diag.warning "SAN_PENDING"
        (Printf.sprintf "%d events still queued: the simulation has not drained" n);
    ]

let check_routing_loops tables =
  let nodes = Hashtbl.create (List.length tables) in
  List.iter (fun (addr, nh) -> Hashtbl.replace nodes addr nh) tables;
  let n = List.length tables in
  let diags = ref [] in
  let walk src dst =
    (* Follow next hops from [src] toward [dst]; a well-formed set of
       tables reaches [dst] in at most [n - 1] hops. *)
    let visited = Hashtbl.create 8 in
    let rec go cur hops =
      if cur = dst then ()
      else if Hashtbl.mem visited cur then
        diags :=
          Diag.error "SAN_ROUTE_LOOP"
            (Printf.sprintf "next-hop loop at node %d routing %d -> %d" cur src dst)
          :: !diags
      else begin
        Hashtbl.replace visited cur ();
        match Hashtbl.find_opt nodes cur with
        | None ->
          diags :=
            Diag.warning "SAN_ROUTE_BLACKHOLE"
              (Printf.sprintf "no forwarding table at node %d routing %d -> %d" cur
                 src dst)
            :: !diags
        | Some nh -> (
          match Hashtbl.find_opt nh dst with
          | None ->
            diags :=
              Diag.warning "SAN_ROUTE_BLACKHOLE"
                (Printf.sprintf "node %d has no route to %d (path from %d)" cur dst
                   src)
              :: !diags
          | Some (next, _cost) ->
            if hops > n then
              diags :=
                Diag.error "SAN_ROUTE_LOOP"
                  (Printf.sprintf
                     "path %d -> %d did not converge after %d hops (at node %d)" src
                     dst hops cur)
                :: !diags
            else go next (hops + 1))
      end
    in
    go src 0
  in
  List.iter
    (fun (src, nh) -> Hashtbl.iter (fun dst _ -> walk src dst) nh)
    tables;
  (* Structural dedup (the same loop is usually seen from many
     sources), then the canonical severity/code order. *)
  List.sort_uniq Stdlib.compare !diags |> List.stable_sort Diag.compare

let rules =
  let e = Diag.Error and w = Diag.Warning in
  [
    Diag.rule ~code:"SAN_CLOCK" ~severity:e "virtual clock moved backwards";
    Diag.rule ~code:"SAN_HEAP" ~severity:e "event heap popped events out of order";
    Diag.rule ~code:"SAN_EFCP_SEQ" ~severity:e
      "EFCP delivered a sequence number out of order or twice";
    Diag.rule ~code:"SAN_EFCP_WINDOW" ~severity:e
      "EFCP sender exceeded the flow-control window";
    Diag.rule ~code:"SAN_EFCP_RCVBUF" ~severity:e
      "EFCP receiver buffered beyond its advertised capacity";
    Diag.rule ~code:"SAN_RIB_PATH" ~severity:e "malformed RIB object name";
    Diag.rule ~code:"SAN_PDU_CONSERVATION" ~severity:e
      "link frames unaccounted for after drain (injected <> delivered + dropped)";
    Diag.rule ~code:"SAN_PENDING" ~severity:w
      "audit ran before the event queue drained";
    Diag.rule ~code:"SAN_ROUTE_LOOP" ~severity:e
      "forwarding tables contain a next-hop loop";
    Diag.rule ~code:"SAN_ROUTE_BLACKHOLE" ~severity:w
      "a path dead-ends at a node with no route onward";
  ]
