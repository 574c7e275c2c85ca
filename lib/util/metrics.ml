type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 16

(* Exception-style lookup: [find_opt] allocates a [Some] per hit and
   [incr] runs on every PDU, so the hot path keeps the hit case
   allocation-free. *)
let find t name =
  match Hashtbl.find t name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.add t name r;
    r

let incr t name = Stdlib.incr (find t name)

(* Counters are monotone-ish tallies; a negative delta larger than the
   current value clamps at zero rather than silently going negative
   (which every reader treats as "impossible"). *)
let add t name n =
  let r = find t name in
  r := max 0 (!r + n)

let get t name =
  match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let to_list t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
