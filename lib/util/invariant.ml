type violation = { code : string; detail : string; mutable count : int }

(* Domain-local: each worker of a parallel trial sweep gets its own
   switch and store, so one trial's sanitizer findings never bleed into
   another's. *)
type ctx = { mutable on : bool; store : (string, violation) Hashtbl.t }

let key = Domain.DLS.new_key (fun () -> { on = false; store = Hashtbl.create 16 })

let ctx () = Domain.DLS.get key

let enabled () = (ctx ()).on

let set_enabled b = (ctx ()).on <- b

let record ~code detail =
  let c = ctx () in
  match Hashtbl.find_opt c.store code with
  | Some v -> v.count <- v.count + 1
  | None -> Hashtbl.replace c.store code { code; detail; count = 1 }

let violations () =
  Hashtbl.fold (fun _ v acc -> v :: acc) (ctx ()).store []
  |> List.sort (fun a b -> String.compare a.code b.code)

let total () = Hashtbl.fold (fun _ v acc -> acc + v.count) (ctx ()).store 0

let clear () = Hashtbl.reset (ctx ()).store
