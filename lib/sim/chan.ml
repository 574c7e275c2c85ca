type t = {
  send : bytes -> unit;
  set_receiver : (bytes -> unit) -> unit;
  is_up : unit -> bool;
  on_carrier : (bool -> unit) -> unit;
}

let null () =
  {
    send = (fun _ -> ());
    set_receiver = (fun _ -> ());
    is_up = (fun () -> true);
    on_carrier = (fun _ -> ());
  }

let pair () =
  let receiver_a = ref (fun (_ : bytes) -> ())
  and receiver_b = ref (fun (_ : bytes) -> ()) in
  let endpoint my_receiver peer_receiver =
    {
      send = (fun frame -> !peer_receiver frame);
      set_receiver = (fun f -> my_receiver := f);
      is_up = (fun () -> true);
      on_carrier = (fun _ -> ());
    }
  in
  (endpoint receiver_a receiver_b, endpoint receiver_b receiver_a)
