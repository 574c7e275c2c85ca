type t = {
  mutable samples : float array;
  mutable size : int;
  mutable sorted : bool;
  mutable sum : float;
}

let create () = { samples = [||]; size = 0; sorted = true; sum = 0. }

let add t x =
  if t.size = Array.length t.samples then begin
    let cap = max 16 (2 * Array.length t.samples) in
    let fresh = Array.make cap 0. in
    Array.blit t.samples 0 fresh 0 t.size;
    t.samples <- fresh
  end;
  t.samples.(t.size) <- x;
  t.size <- t.size + 1;
  t.sum <- t.sum +. x;
  t.sorted <- false

let count t = t.size

let mean t = if t.size = 0 then nan else t.sum /. float_of_int t.size

let ensure_sorted t =
  if not t.sorted then begin
    let view = Array.sub t.samples 0 t.size in
    Array.sort compare view;
    Array.blit view 0 t.samples 0 t.size;
    t.sorted <- true
  end

let max_value t =
  if t.size = 0 then nan
  else begin
    ensure_sorted t;
    t.samples.(t.size - 1)
  end

let percentile t p =
  if t.size = 0 then nan
  else begin
    ensure_sorted t;
    let p = if p < 0. then 0. else if p > 100. then 100. else p in
    let rank = p /. 100. *. float_of_int (t.size - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    if lo = hi then t.samples.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (t.samples.(lo) *. (1. -. frac)) +. (t.samples.(hi) *. frac)
    end
  end

let median t = percentile t 50.
