(* Order statistics for every number the benchmark reports. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Quartile cut points by Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so the spreads printed here are
   the ones a reader recomputes from the per-round values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.quartiles: no values";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let cut i =
      let m = n + 1 in
      let j = min (n - 1) (max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no values";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 100]: the smallest sample with
   at least p% of the samples at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.percentile: no values";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(min (n - 1) (max 0 (rank - 1)))

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  if m = 0. then 0. else Float.abs (q3 -. q1) /. Float.abs m
