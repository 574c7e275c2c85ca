type value =
  | V_str of string
  | V_int of int
  | V_float of float
  | V_bool of bool
  | V_bytes of bytes

type t = {
  objects : (string, value) Hashtbl.t;
  versions : (string, int * int) Hashtbl.t;
      (* path -> (origin address, version); only paths written through
         the versioned API have entries *)
}

let create () = { objects = Hashtbl.create 64; versions = Hashtbl.create 64 }

let value_equal a b =
  match (a, b) with
  | V_str x, V_str y -> String.equal x y
  | V_int x, V_int y -> x = y
  | V_float x, V_float y -> x = y
  | V_bool x, V_bool y -> x = y
  | V_bytes x, V_bytes y -> Bytes.equal x y
  | (V_str _ | V_int _ | V_float _ | V_bool _ | V_bytes _), _ -> false

let write t path value = Hashtbl.replace t.objects path value

(* ---------- versioned writes (stale/duplicate rejection) ----------

   Each versioned object carries an (origin address, version) pair.
   Ordering is origin-first lexicographic: a higher origin address
   dominates, then a higher version.  Origin-first is deliberate — a
   crashed owner re-enrolls with a fresh, strictly higher address (the
   namespace manager allocates monotonically), so its version-1
   re-publication still beats the stale state its old incarnation
   flooded before dying. *)

let version_of t path = Hashtbl.find_opt t.versions path

let version_newer (o1, v1) (o2, v2) = o1 > o2 || (o1 = o2 && v1 > v2)

type remote_result = Accepted of { value_changed : bool } | Duplicate | Stale

let write_owned t path value ~origin =
  let ver =
    match Hashtbl.find_opt t.versions path with
    | Some (_, v) -> v + 1
    | None -> 1
  in
  Hashtbl.replace t.versions path (origin, ver);
  write t path value;
  (origin, ver)

let accept_remote t path value ~origin ~ver =
  let incoming = (origin, ver) in
  match Hashtbl.find_opt t.versions path with
  | Some current when current = incoming -> Duplicate
  | Some current when not (version_newer incoming current) -> Stale
  | Some _ | None ->
    let value_changed =
      match Hashtbl.find_opt t.objects path with
      | Some existing -> not (value_equal existing value)
      | None -> true
    in
    Hashtbl.replace t.versions path incoming;
    if value_changed then write t path value;
    Accepted { value_changed }

let read t path = Hashtbl.find_opt t.objects path

let read_int t path =
  match read t path with Some (V_int n) -> Some n | Some _ | None -> None

let read_str t path =
  match read t path with Some (V_str s) -> Some s | Some _ | None -> None

let delete t path =
  if Hashtbl.mem t.objects path then begin
    Hashtbl.remove t.objects path;
    Hashtbl.remove t.versions path;
    true
  end
  else false

let exists t path = Hashtbl.mem t.objects path

let children t prefix =
  let prefix_slash =
    if String.length prefix > 0 && prefix.[String.length prefix - 1] = '/' then prefix
    else prefix ^ "/"
  in
  let plen = String.length prefix_slash in
  Hashtbl.fold
    (fun path _ acc ->
      if
        String.starts_with ~prefix:prefix_slash path
        && not (String.contains_from path plen '/')
      then path :: acc
      else acc)
    t.objects []
  |> List.sort String.compare

let clear t =
  Hashtbl.reset t.objects;
  Hashtbl.reset t.versions

let size t = Hashtbl.length t.objects

let dump t =
  Hashtbl.fold (fun path v acc -> (path, v) :: acc) t.objects []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let encode_value w v =
  let module W = Rina_util.Codec.Writer in
  match v with
  | V_str s ->
    W.u8 w 0;
    W.string w s
  | V_int n ->
    W.u8 w 1;
    W.u64 w (Int64.of_int n)
  | V_float f ->
    W.u8 w 2;
    W.f64 w f
  | V_bool b ->
    W.u8 w 3;
    W.bool w b
  | V_bytes b ->
    W.u8 w 4;
    W.bytes w b

let decode_value r =
  let module R = Rina_util.Codec.Reader in
  match R.u8 r with
  | 0 -> V_str (R.string r)
  | 1 -> V_int (Int64.to_int (R.u64 r))
  | 2 -> V_float (R.f64 r)
  | 3 -> V_bool (R.bool r)
  | 4 -> V_bytes (R.bytes r)
  | n -> raise (R.Decode_error (Printf.sprintf "unknown RIB value tag %d" n))

let pp_value fmt = function
  | V_str s -> Format.fprintf fmt "%S" s
  | V_int n -> Format.fprintf fmt "%d" n
  | V_float f -> Format.fprintf fmt "%g" f
  | V_bool b -> Format.fprintf fmt "%b" b
  | V_bytes b -> Format.fprintf fmt "<%d bytes>" (Bytes.length b)
