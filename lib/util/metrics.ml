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
   (which every reader treats as "impossible").  An int comparison, not
   the polymorphic [max], which costs a C call. *)
let[@inline] add_clamped r n =
  let v = !r + n in
  r := if v > 0 then v else 0

let add t name n = add_clamped (find t name) n

let get t name =
  match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let to_list t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* A handle points at its registry cell once it has one.  Until its
   first bump it points at [unjoined], which no handle ever writes (a
   bump joins first), so a declared-but-idle counter stays out of the
   registry and [to_list] exactly as if it had never been named. *)
type counter = { reg : t; name : string; mutable cell : int ref }

let unjoined = ref 0

let counter reg name =
  let cell = match Hashtbl.find_opt reg name with Some r -> r | None -> unjoined in
  { reg; name; cell }

let[@inline] join c = if c.cell == unjoined then c.cell <- find c.reg c.name

let bump c =
  join c;
  Stdlib.incr c.cell

let bump_by c n =
  join c;
  add_clamped c.cell n

(* An idle handle reads through the name, which a by-name [incr] may
   already have created. *)
let value c = if c.cell == unjoined then get c.reg c.name else !(c.cell)
