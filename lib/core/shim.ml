let tag_of_dif dif =
  (* FNV-1a, 32-bit. *)
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xFFFFFFFF)
    dif;
  !h

let wrap ~dif (chan : Rina_sim.Chan.t) : Rina_sim.Chan.t =
  let tag = tag_of_dif dif in
  {
    Rina_sim.Chan.send =
      (fun frame ->
        let out = Bytes.create (4 + Bytes.length frame) in
        Bytes.set_int32_be out 0 (Int32.of_int tag);
        Bytes.blit frame 0 out 4 (Bytes.length frame);
        chan.Rina_sim.Chan.send out);
    set_receiver =
      (fun f ->
        chan.Rina_sim.Chan.set_receiver (fun frame ->
            if
              Bytes.length frame >= 4
              && Int32.to_int (Bytes.get_int32_be frame 0) land 0xFFFFFFFF = tag
            then f (Bytes.sub frame 4 (Bytes.length frame - 4))));
    is_up = chan.Rina_sim.Chan.is_up;
    on_carrier = chan.Rina_sim.Chan.on_carrier;
  }
