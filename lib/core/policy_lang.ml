(* The whole grammar is [table] below: one row per key with its
   section, value kind, a getter for printing and a setter.  [scan],
   [parse], [to_string] and the linter are all folds over it. *)

open Policy

(* The scheduler and auth variants carry a payload ([quantum],
   [secret]) set by a sibling key that may come before or after
   [kind]; the draft holds it until [resolve] joins the two. *)
type draft = { p : t; quantum : int; secret : string }

let draft_of p =
  {
    p;
    quantum = (match p.scheduler with Drr q -> q | Fifo | Priority_queueing -> 1500);
    secret = (match p.auth with Auth_password s -> s | Auth_none -> "");
  }

let resolve d =
  {
    d.p with
    scheduler = (match d.p.scheduler with Drr _ -> Drr d.quantum | s -> s);
    auth = (match d.p.auth with Auth_password _ -> Auth_password d.secret | a -> a);
  }

type kind =
  | Int of int
  | Float of { lo : float; open_lo : bool; hi : float }
  | Enum of string list
  | Str

let expected = function
  | Int 0 -> "a non-negative integer"
  | Int 1 -> "a positive integer"
  | Int n -> Printf.sprintf "an integer of at least %d" n
  | Float { lo = 0.; open_lo = false; hi } when hi = Float.infinity ->
    "a non-negative number"
  | Float { lo; open_lo; hi } ->
    Printf.sprintf "a number in %s%g, %g]" (if open_lo then "(" else "[") lo hi
  | Enum choices -> String.concat "|" choices
  | Str -> "a string"

type row = {
  section : string;
  key : string;
  kind : kind;
  show : draft -> string option;  (* None: the line is omitted *)
  set : draft -> string -> draft option;  (* None: bad value *)
}

(* The shortest of %.15g/%.16g/%.17g that reads back as the same float. *)
let show_float f =
  let g prec = Printf.sprintf "%.*g" prec f in
  match List.find_opt (fun s -> float_of_string s = f) [ g 15; g 16 ] with
  | Some s -> s
  | None -> g 17

let within ok x = if ok x then Some x else None

(* A row maker awaits its section's name and the section's view of the
   draft ([sget], [sset]); [get]/[set] then address one field of it. *)
let row kind read show ?(printed = fun _ -> true) key get set section (sget, sset) =
  {
    section;
    key;
    kind;
    show = (fun d -> if printed d then Some (show (get (sget d))) else None);
    set = (fun d v -> Option.map (fun x -> sset d (set (sget d) x)) (read v));
  }

let int ?(min = 1) ?printed key get set =
  let read v = Option.bind (int_of_string_opt v) (within (fun n -> n >= min)) in
  row (Int min) read string_of_int ?printed key get set

let float ?(open_lo = false) ?(hi = Float.infinity) key get set =
  let lo = 0. in
  let ok f = (if open_lo then f > lo else f >= lo) && f <= hi in
  let read v = Option.bind (float_of_string_opt v) (within ok) in
  row (Float { lo; open_lo; hi }) read show_float key get set

let enum choices key get set =
  let show x = fst (List.find (fun (_, y) -> y = x) choices) in
  row (Enum (List.map fst choices)) (fun v -> List.assoc_opt v choices) show key get set

let str ?printed key get set = row Str Option.some Fun.id ?printed key get set

let on_off = [ ("on", true); ("off", false) ]
let stripe = [ ("primary", Primary_backup); ("wrr", Weighted_rr) ]

let section name sget sset rows = List.map (fun mk -> mk name (sget, sset)) rows

let table =
  List.concat
    [
      section "efcp"
        (fun d -> d.p.efcp)
        (fun d efcp -> { d with p = { d.p with efcp } })
        [
          int "window" (fun e -> e.window) (fun e window -> { e with window });
          int "mtu" (fun e -> e.mtu) (fun e mtu -> { e with mtu });
          float "init_rto" (fun e -> e.init_rto) (fun e init_rto -> { e with init_rto });
          float "min_rto" (fun e -> e.min_rto) (fun e min_rto -> { e with min_rto });
          int "max_rtx" (fun e -> e.max_rtx) (fun e max_rtx -> { e with max_rtx });
          float "ack_delay"
            (fun e -> e.ack_delay)
            (fun e ack_delay -> { e with ack_delay });
          enum
            [ ("selective", Selective_repeat); ("gbn", Go_back_n); ("none", No_rtx) ]
            "rtx"
            (fun e -> e.rtx_strategy)
            (fun e rtx_strategy -> { e with rtx_strategy });
          enum on_off "cc"
            (fun e -> e.congestion_control)
            (fun e congestion_control -> { e with congestion_control });
          int ~min:0 "sack_blocks"
            (fun e -> e.sack_blocks)
            (fun e sack_blocks -> { e with sack_blocks });
          int "reorder_window"
            (fun e -> e.reorder_window)
            (fun e reorder_window -> { e with reorder_window });
          int ~min:0 "max_dup_cache"
            (fun e -> e.max_dup_cache)
            (fun e max_dup_cache -> { e with max_dup_cache });
        ];
      section "scheduler" Fun.id
        (fun _ d -> d)
        [
          enum
            [ ("fifo", Fifo); ("priority", Priority_queueing); ("drr", Drr 0) ]
            "kind"
            (fun d -> match d.p.scheduler with Drr _ -> Drr 0 | s -> s)
            (fun d scheduler -> { d with p = { d.p with scheduler } });
          int "quantum"
            ~printed:(fun d -> match d.p.scheduler with Drr _ -> true | _ -> false)
            (fun d -> d.quantum)
            (fun d quantum -> { d with quantum });
        ];
      section "routing"
        (fun d -> d.p.routing)
        (fun d routing -> { d with p = { d.p with routing } })
        [
          float "hello_interval"
            (fun r -> r.hello_interval)
            (fun r hello_interval -> { r with hello_interval });
          float "dead_interval"
            (fun r -> r.dead_interval)
            (fun r dead_interval -> { r with dead_interval });
          int "refresh_ticks"
            (fun r -> r.refresh_ticks)
            (fun r refresh_ticks -> { r with refresh_ticks });
          float "keepalive_interval"
            (fun r -> r.keepalive_interval)
            (fun r keepalive_interval -> { r with keepalive_interval });
          float "dead_peer_timeout"
            (fun r -> r.dead_peer_timeout)
            (fun r dead_peer_timeout -> { r with dead_peer_timeout });
          float "lsa_max_age"
            (fun r -> r.lsa_max_age)
            (fun r lsa_max_age -> { r with lsa_max_age });
          float "anti_entropy_interval"
            (fun r -> r.anti_entropy_interval)
            (fun r anti_entropy_interval -> { r with anti_entropy_interval });
        ];
      section "enrollment"
        (fun d -> d.p.enrollment)
        (fun d enrollment -> { d with p = { d.p with enrollment } })
        [
          float "enroll_timeout"
            (fun e -> e.enroll_timeout)
            (fun e enroll_timeout -> { e with enroll_timeout });
          int ~min:0 "enroll_retries"
            (fun e -> e.enroll_retries)
            (fun e enroll_retries -> { e with enroll_retries });
          float "retry_backoff"
            (fun e -> e.retry_backoff)
            (fun e retry_backoff -> { e with retry_backoff });
        ];
      section "auth" Fun.id
        (fun _ d -> d)
        [
          enum
            [ ("none", Auth_none); ("password", Auth_password "") ]
            "kind"
            (fun d -> match d.p.auth with Auth_password _ -> Auth_password "" | a -> a)
            (fun d auth -> { d with p = { d.p with auth } });
          str "secret"
            ~printed:(fun d -> d.p.auth <> Auth_none)
            (fun d -> d.secret)
            (fun d secret -> { d with secret });
        ];
      section "dif"
        (fun d -> d.p)
        (fun d p -> { d with p })
        [ int "max_ttl" (fun p -> p.max_ttl) (fun p max_ttl -> { p with max_ttl }) ];
      section "telemetry"
        (fun d -> d.p.telemetry)
        (fun d telemetry -> { d with p = { d.p with telemetry } })
        [
          float ~open_lo:true ~hi:1. "trace_sample_rate"
            (fun t -> t.trace_sample_rate)
            (fun t trace_sample_rate -> { t with trace_sample_rate });
          float "snapshot_interval"
            (fun t -> t.snapshot_interval)
            (fun t snapshot_interval -> { t with snapshot_interval });
          int ~min:0 "flight_ring_capacity"
            (fun t -> t.flight_ring_capacity)
            (fun t flight_ring_capacity -> { t with flight_ring_capacity });
        ];
      section "congestion"
        (fun d -> d.p.congestion)
        (fun d congestion -> { d with p = { d.p with congestion } })
        [
          int ~min:0 "mark_threshold"
            (fun c -> c.mark_threshold)
            (fun c mark_threshold -> { c with mark_threshold });
          float ~hi:1. "mark_probability"
            (fun c -> c.mark_probability)
            (fun c mark_probability -> { c with mark_probability });
          enum on_off "pushback"
            (fun c -> c.pushback)
            (fun c pushback -> { c with pushback });
          int ~min:0 "admission_max_pending"
            (fun c -> c.admission_max_pending)
            (fun c admission_max_pending -> { c with admission_max_pending });
          float "admission_backoff"
            (fun c -> c.admission_backoff)
            (fun c admission_backoff -> { c with admission_backoff });
        ];
      section "multipath"
        (fun d -> d.p.multipath)
        (fun d multipath -> { d with p = { d.p with multipath } })
        [
          float "probe_interval"
            (fun m -> m.probe_interval)
            (fun m probe_interval -> { m with probe_interval });
          int "suspect_misses"
            (fun m -> m.suspect_misses)
            (fun m suspect_misses -> { m with suspect_misses });
          int "down_misses"
            (fun m -> m.down_misses)
            (fun m down_misses -> { m with down_misses });
          float "reprobe_backoff"
            (fun m -> m.reprobe_backoff)
            (fun m reprobe_backoff -> { m with reprobe_backoff });
          enum stripe "latency" (fun m -> m.latency) (fun m latency -> { m with latency });
          enum stripe "throughput"
            (fun m -> m.throughput)
            (fun m throughput -> { m with throughput });
          enum stripe "background"
            (fun m -> m.background)
            (fun m background -> { m with background });
        ];
    ]

let keys = List.map (fun r -> (r.section, r.key, r.kind)) table

let sections =
  List.fold_left
    (fun acc r -> if List.mem r.section acc then acc else acc @ [ r.section ])
    [] table

let find section key = List.find_opt (fun r -> r.section = section && r.key = key) table

(* ---------- scanning ---------- *)

type finding =
  | Unknown_section of string
  | Unknown_key of { section : string; key : string }
  | Outside_section of string
  | Malformed of string
  | Duplicate of { section : string; key : string; first : int }
  | Bad_value of { key : string; value : string; expected : string }

let message = function
  | Unknown_section s -> Printf.sprintf "unknown section [%s]" s
  | Unknown_key { section; key } -> Printf.sprintf "unknown key %S in [%s]" key section
  | Outside_section key -> Printf.sprintf "key %S outside any [section]" key
  | Malformed s -> Printf.sprintf "expected key = value, got %S" s
  | Duplicate { section; key; first } ->
    Printf.sprintf "duplicate key %S in [%s] (first set at line %d)" key section first
  | Bad_value { key; value; expected } ->
    Printf.sprintf "%s expects %s, got %S" key expected value

type scan = {
  policy : Policy.t;
  set_at : string -> string -> int;
  findings : (int * finding) list;
}

let strip_comment line =
  match String.index_opt line '#' with None -> line | Some i -> String.sub line 0 i

let scan ?(base = Policy.default) text =
  let draft = ref (draft_of base) and current = ref `None and findings = ref [] in
  (* first appearance of each (section, key), and the line of its last
     valid value *)
  let first = Hashtbl.create 32 and set_at = Hashtbl.create 32 in
  let flag line f = findings := (line, f) :: !findings in
  let assign line section key v =
    match find section key with
    | None -> flag line (Unknown_key { section; key })
    | Some r -> (
      (match Hashtbl.find_opt first (section, key) with
       | Some first -> flag line (Duplicate { section; key; first })
       | None -> Hashtbl.replace first (section, key) line);
      match r.set !draft v with
      | Some d ->
        draft := d;
        Hashtbl.replace set_at (section, key) line
      | None -> flag line (Bad_value { key; value = v; expected = expected r.kind }))
  in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let s = String.trim (strip_comment raw) in
      let n = String.length s in
      if n = 0 then ()
      else if n >= 2 && s.[0] = '[' && s.[n - 1] = ']' then begin
        let name = String.sub s 1 (n - 2) in
        if List.mem name sections then current := `Known name
        else begin
          current := `Unknown;
          flag line (Unknown_section name)
        end
      end
      else
        let key eq = String.trim (String.sub s 0 eq) in
        match (String.index_opt s '=', !current) with
        | None, _ -> flag line (Malformed s)
        | Some _, `Unknown -> ()
        | Some eq, `None -> flag line (Outside_section (key eq))
        | Some eq, `Known section ->
          assign line section (key eq) (String.trim (String.sub s (eq + 1) (n - eq - 1))))
    (String.split_on_char '\n' text);
  {
    policy = resolve !draft;
    set_at = (fun s k -> Option.value ~default:0 (Hashtbl.find_opt set_at (s, k)));
    findings = List.rev !findings;
  }

let parse ?base text =
  let s = scan ?base text in
  let at line msg = Error (Printf.sprintf "line %d: %s" line msg) in
  match (s.findings, s.policy.auth) with
  | (line, f) :: _, _ -> at line (message f)
  | [], Auth_password "" ->
    at (s.set_at "auth" "kind") "auth kind=password requires a secret"
  | [], _ -> Ok s.policy

(* ---------- printing ---------- *)

let value p section key = Option.bind (find section key) (fun r -> r.show (draft_of p))

let to_string p =
  let d = draft_of p in
  let add (prev, lines) r =
    let lines = if r.section = prev then lines else ("[" ^ r.section ^ "]") :: lines in
    (r.section, match r.show d with Some v -> (r.key ^ " = " ^ v) :: lines | None -> lines)
  in
  String.concat "\n" (List.rev ("" :: snd (List.fold_left add ("", []) table)))
