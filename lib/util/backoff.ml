(* Exponential backoff with full jitter.  Deterministic: jitter is
   drawn from the caller-supplied Prng stream (never [Random]), and
   callers that pass no generator get the bare doubling sequence. *)

let check ~base ~cap =
  if base <= 0. then invalid_arg "Backoff: base must be positive";
  if cap < base then invalid_arg "Backoff: cap must be >= base"

(* No float exponent survives a shift past 1074 (the subnormal floor
   to the overflow ceiling spans 2^-1074 .. 2^1024), so clamping the
   attempt count there makes [ldexp] safe for any [n]: past the clamp
   the exact power is moot — it saturates and the cap wins. *)
let max_shift = 1074

let raw ~base ~cap n =
  let d = Float.ldexp base (min n max_shift) in
  if Float.is_nan d then cap else Float.max 0. (Float.min d cap)

let jittered rng d =
  match rng with
  | None -> d
  | Some rng -> Prng.uniform_in rng (d /. 2.) d

let delay_for ?rng ?cap ~base n =
  let cap = match cap with Some c -> c | None -> 30. *. base in
  check ~base ~cap;
  if n < 0 then invalid_arg "Backoff.delay_for: negative attempt";
  jittered rng (raw ~base ~cap n)
