module W = Rina_util.Codec.Writer
module R = Rina_util.Codec.Reader

let port = 53

type server = {
  udp : Udp.t;
  local : Ip.addr;
  table : (string, Ip.addr) Hashtbl.t;
  mutable served : int;
}

(* Query: 'Q' id name; response: 'R' id found addr. *)
let encode_query id name =
  let w = W.create () in
  W.u8 w (Char.code 'Q');
  W.u32 w id;
  W.string w name;
  W.contents w

let encode_response id result =
  let w = W.create () in
  W.u8 w (Char.code 'R');
  W.u32 w id;
  (match result with
   | Some addr ->
     W.bool w true;
     W.u32 w addr
   | None -> W.bool w false);
  W.contents w

let server udp ~local =
  let t = { udp; local; table = Hashtbl.create 16; served = 0 } in
  Udp.listen udp ~port (fun ~src ~sport body ->
      try
        let r = R.create body in
        if R.u8 r = Char.code 'Q' then begin
          let id = R.u32 r in
          let name = R.string r in
          t.served <- t.served + 1;
          Udp.send udp ~src:local ~dst:src ~sport:port ~dport:sport
            (encode_response id (Hashtbl.find_opt t.table name))
        end
      with R.Decode_error _ -> ());
  t

let register t name addr = Hashtbl.replace t.table name addr

let withdraw t name = Hashtbl.remove t.table name

let entries t =
  Hashtbl.fold (fun name addr acc -> (name, addr) :: acc) t.table []
  |> List.sort compare

let queries_served t = t.served

let resolve udp engine ~local ~server:server_addr name ~on_result =
  let id = Udp.next_query_id udp in
  let sport = 30000 + (id mod 10000) in
  let answered = ref false in
  Udp.listen udp ~port:sport (fun ~src:_ ~sport:_ body ->
      try
        let r = R.create body in
        if R.u8 r = Char.code 'R' && R.u32 r = id && not !answered then begin
          answered := true;
          Udp.unlisten udp ~port:sport;
          if R.bool r then on_result (Ok (R.u32 r))
          else on_result (Error ("name not found: " ^ name))
        end
      with R.Decode_error _ -> ());
  let send () =
    Udp.send udp ~src:local ~dst:server_addr ~sport ~dport:port (encode_query id name)
  in
  (* Retransmissions back off exponentially (1 s, 2 s, 4 s) like a real
     resolver, so a congested path is not hammered at a fixed rate. *)
  let rec retry attempt () =
    if not !answered then begin
      if attempt >= 3 then begin
        answered := true;
        Udp.unlisten udp ~port:sport;
        on_result (Error "DNS query timed out")
      end
      else begin
        send ();
        let delay = Rina_util.Backoff.delay_for ~base:1.0 attempt in
        ignore (Rina_sim.Engine.schedule engine ~delay (retry (attempt + 1)))
      end
    end
  in
  retry 0 ()
