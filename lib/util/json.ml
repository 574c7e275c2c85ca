(* JSON for every artifact, JSONL line and CLI report in the repo.

   Numbers are stored as the literal they print as, so a writer's
   "%.6f" survives printing unchanged and parse-then-print is the
   identity on number bytes. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (string_of_int i)

let fixed digits f =
  if Float.is_finite f then Num (Printf.sprintf "%.*f" digits f) else Null

let float f =
  if not (Float.is_finite f) then Null
  else
    let s = Printf.sprintf "%.12g" f in
    Num (if float_of_string s = f then s else Printf.sprintf "%.17g" f)

(* ---------- printing ---------- *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Elements of a container separated by [sep]. *)
let add_list b sep add l =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      add x)
    l

(* One-line layout: [sep] and [colon] are "," and ":" for the compact
   form, ", " and ": " for the inline rows of the pretty form. *)
let rec add_flat b sep colon = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num s -> Buffer.add_string b s
  | Str s -> add_string b s
  | Arr l ->
    Buffer.add_char b '[';
    add_list b sep (add_flat b sep colon) l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    add_list b sep
      (fun (k, v) ->
        add_string b k;
        Buffer.add_string b colon;
        add_flat b sep colon v)
      l;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 128 in
  add_flat b "," ":" v;
  Buffer.contents b

let rec add_pretty b indent v =
  let block opening closing add l =
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string b opening;
    add_list b ",\n"
      (fun x ->
        Buffer.add_string b pad;
        add x)
      l;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_string b closing
  in
  match v with
  | Obj (_ :: _ as l) ->
    block "{\n" "}"
      (fun (k, v) ->
        add_string b k;
        Buffer.add_string b ": ";
        add_pretty b (indent + 2) v)
      l
  | Arr (_ :: _ as l) -> block "[\n" "]" (add_flat b ", " ": ") l
  | v -> add_flat b ", " ": " v

let pretty v =
  let b = Buffer.create 1024 in
  add_pretty b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Fail of string

let max_depth = 512

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise_notrace (Fail (Printf.sprintf "%s at byte %d" what !pos)) in
  let at c = !pos < n && s.[!pos] = c in
  let skip c = at c && (incr pos; true) in
  let rec ws () = if at ' ' || at '\t' || at '\n' || at '\r' then (incr pos; ws ()) in
  let eat c = ws (); skip c in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if h = "" || not (String.for_all hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  (* A \u escape, joined with its low half when it is a high surrogate. *)
  let uchar () =
    let u = hex4 () in
    let u =
      if u land 0xFC00 <> 0xD800 then u
      else if skip '\\' && skip 'u' then begin
        let lo = hex4 () in
        if lo land 0xFC00 <> 0xDC00 then fail "bad surrogate pair";
        0x10000 + (((u land 0x3FF) lsl 10) lor (lo land 0x3FF))
      end
      else fail "lone surrogate"
    in
    if not (Uchar.is_valid u) then fail "lone surrogate";
    Uchar.of_int u
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else if c < ' ' then fail "control character in string"
      else begin
        if c <> '\\' then Buffer.add_char b c
        else if skip 'u' then Buffer.add_utf_8_uchar b (uchar ())
        else begin
          if !pos >= n then fail "unterminated string";
          let e = s.[!pos] in
          incr pos;
          Buffer.add_char b
            (match e with
             | '"' | '\\' | '/' -> e
             | 'n' -> '\n'
             | 't' -> '\t'
             | 'r' -> '\r'
             | 'b' -> '\b'
             | 'f' -> '\012'
             | _ -> fail "bad escape")
        end;
        go ()
      end
    in
    go ()
  in
  let digits () =
    let start = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    if !pos = start then fail "bad number"
  in
  (* The JSON number grammar; the literal is kept as it was written. *)
  let number () =
    let start = !pos in
    ignore (skip '-');
    if not (skip '0') then digits ();
    if skip '.' then digits ();
    if skip 'e' || skip 'E' then begin
      ignore (skip '+' || skip '-');
      digits ()
    end;
    Num (String.sub s start (!pos - start))
  in
  let literal word v =
    let l = String.length word in
    if !pos + l > n || String.sub s !pos l <> word then fail "bad literal";
    pos := !pos + l;
    v
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' -> incr pos; if eat '}' then Obj [] else Obj (members depth [])
    | '[' -> incr pos; if eat ']' then Arr [] else Arr (items depth [])
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  and members depth acc =
    let k = string () in
    expect ':';
    let acc = (k, value (depth + 1)) :: acc in
    if eat ',' then members depth acc else (expect '}'; List.rev acc)
  and items depth acc =
    let acc = value (depth + 1) :: acc in
    if eat ',' then items depth acc else (expect ']'; List.rev acc)
  in
  match
    let v = value 0 in
    ws ();
    if !pos <> n then fail "trailing data";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

let parse_line line =
  match parse line with
  | Error _ as e -> e
  | Ok (Obj fields)
    when List.for_all
           (function _, (Str _ | Num _) -> true | _ -> false)
           fields ->
    Ok fields
  | Ok _ -> Error "not a flat object of strings and numbers"

(* ---------- reading ---------- *)

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_num = function Num s -> float_of_string_opt s | _ -> None
