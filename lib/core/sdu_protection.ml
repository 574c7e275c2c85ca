(* Slicing-by-8 tables, row [k] at [k * 256]: entry [n] of row [k] is
   the CRC register after byte [n] followed by [k] zero bytes, so row 0
   is the classic bytewise table.  Computed eagerly: concurrent
   [Lazy.force] from two domains can raise [Lazy.Undefined], and
   parallel trial runners hit this module from every worker. *)
let tables =
  let row0 =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
          else c := !c lsr 1
        done;
        !c)
  in
  Array.init (8 * 256) (fun i ->
      let c = ref row0.(i land 0xFF) in
      for _ = 1 to i lsr 8 do
        c := row0.(!c land 0xFF) lxor (!c lsr 8)
      done;
      !c)

(* The carry-less-multiply fold of crc32_stubs.c: the CRC register
   after [len] more bytes at [pos], for [len] a multiple of 16 and at
   least 64.  It trusts the range, so only [crc32_sub] calls it. *)
external fold :
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "rina_crc32_fold_byte" "rina_crc32_fold"
[@@noalloc]

external clmul_supported : unit -> bool = "rina_crc32_clmul_supported" [@@noalloc]

(* The CPU is asked once, at initialisation, for the same reason the
   tables are built eagerly. *)
let clmul = clmul_supported ()

(* A range of 64 bytes or more goes to the fold when the CPU has it,
   all but its last [len mod 16] bytes.  The slicing loop does the rest:
   that tail, short ranges and every range on other hosts.  Each 8-byte
   word is read as one little-endian [int64] that is only split into
   [int] halves, so ocamlopt keeps it unboxed and a call allocates
   nothing.  Keep it that way: reading the bytes through a local
   closure instead allocates on every call. *)
let crc32_sub data ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then
    invalid_arg "Sdu_protection.crc32_sub";
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  if clmul && len >= 64 then begin
    let folded = len land lnot 15 in
    crc := fold data pos folded !crc;
    i := pos + folded
  end;
  let words_end = pos + (len land lnot 7) in
  while !i < words_end do
    let w = Bytes.get_int64_le data !i in
    let lo = !crc lxor (Int64.to_int w land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    crc :=
      Array.unsafe_get tables ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get tables ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get tables ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get tables ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get tables ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get tables ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get tables (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get tables (hi lsr 24);
    i := !i + 8
  done;
  for j = words_end to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get data j) in
    crc := Array.unsafe_get tables ((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF land 0xFFFFFFFF

let crc32 data = crc32_sub data ~pos:0 ~len:(Bytes.length data)

let overhead = 4

let protect data =
  let n = Bytes.length data in
  let out = Bytes.create (n + overhead) in
  Bytes.blit data 0 out 0 n;
  Bytes.set_int32_be out n (Int32.of_int (crc32 data));
  out

let seal frame =
  let body = Bytes.length frame - overhead in
  Bytes.set_int32_be frame body (Int32.of_int (crc32_sub frame ~pos:0 ~len:body))

let verify_len frame =
  let n = Bytes.length frame in
  if n < overhead then None
  else begin
    let body = n - overhead in
    let stored = Int32.to_int (Bytes.get_int32_be frame body) land 0xFFFFFFFF in
    if crc32_sub frame ~pos:0 ~len:body = stored then Some body else None
  end

let verify frame =
  match verify_len frame with
  | None -> None
  | Some body -> Some (Bytes.sub frame 0 body)
