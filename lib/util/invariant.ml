type violation = { code : string; detail : string; mutable count : int }

type t = { mutable on : bool; store : (string, violation) Hashtbl.t }

let create () = { on = false; store = Hashtbl.create 16 }

let enabled c = c.on

let set_enabled c b = c.on <- b

let record c ~code detail =
  match Hashtbl.find_opt c.store code with
  | Some v -> v.count <- v.count + 1
  | None -> Hashtbl.replace c.store code { code; detail; count = 1 }

let violations c =
  Hashtbl.fold (fun _ v acc -> v :: acc) c.store []
  |> List.sort (fun a b -> String.compare a.code b.code)

let clear c = Hashtbl.reset c.store
