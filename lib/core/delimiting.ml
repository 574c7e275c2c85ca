let flag_first = 1

let flag_last = 2

let overhead = 1

(* Each fragment is written once, into a buffer that already has room
   for the PCI and the CRC trailer around it ([Pdu.with_headroom]), so
   the PDU that carries it is encoded in place. *)
let fragment ~mtu sdu =
  if mtu <= 0 then invalid_arg "Delimiting.fragment: mtu must be positive";
  let len = Bytes.length sdu in
  let pieces = if len = 0 then 1 else (len + mtu - 1) / mtu in
  List.init pieces (fun i ->
      let off = i * mtu in
      let size = min mtu (len - off) in
      let size = max size 0 in
      let frag = Pdu.with_headroom (size + overhead) in
      let flags =
        (if i = 0 then flag_first else 0) lor (if i = pieces - 1 then flag_last else 0)
      in
      Bytes.set_uint8 frag.Pdu.buf frag.Pdu.off flags;
      Bytes.blit sdu off frag.Pdu.buf (frag.Pdu.off + overhead) size;
      frag)

(* [parts] are views into the frames that carried them, newest first;
   the SDU is copied out of them once, when its LAST fragment
   arrives. *)
type reassembler = {
  mutable parts : Pdu.view list;
  mutable active : bool;
  mutable discarded : int;
}

let create_reassembler () = { parts = []; active = false; discarded = 0 }

let rec body_size n = function
  | [] -> n
  | (v : Pdu.view) :: rest -> body_size (n + v.len - overhead) rest

(* Blit [parts] (newest first) into [sdu], ending at [stop]. *)
let rec fill sdu stop = function
  | [] -> ()
  | (v : Pdu.view) :: rest ->
    let n = v.len - overhead in
    Bytes.blit v.buf (v.off + overhead) sdu (stop - n) n;
    fill sdu (stop - n) rest

let assemble parts =
  let sdu = Bytes.create (body_size 0 parts) in
  fill sdu (Bytes.length sdu) parts;
  sdu

let push t (frag : Pdu.view) =
  if frag.len < overhead then begin
    (* No header to read: a malformed fragment is dropped, not fatal. *)
    t.discarded <- t.discarded + 1;
    None
  end
  else begin
    let flags = Bytes.get_uint8 frag.buf frag.off in
    let first = flags land flag_first <> 0 and last = flags land flag_last <> 0 in
    if first then begin
      if t.active then t.discarded <- t.discarded + 1;
      t.parts <- [ frag ];
      t.active <- true
    end
    else if t.active then t.parts <- frag :: t.parts
    else (* middle fragment of an SDU whose start we never saw: ignore *)
      ();
    if last && t.active then begin
      let sdu = assemble t.parts in
      t.parts <- [];
      t.active <- false;
      Some sdu
    end
    else None
  end

let discarded t = t.discarded
