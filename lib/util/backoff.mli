(** Exponential backoff with optional jitter.

    Shared retry-delay policy for everything that re-sends after a
    timeout: DNS queries, mobile-IP registration, DIF enrollment.  The
    schedule is [base * 2^attempt], clamped to [cap]; with a generator
    supplied, each delay is "full jitter" — uniform in
    \[delay/2, delay\] — so synchronized retriers de-correlate.
    Randomness only ever comes from the caller's {!Prng.t}, keeping
    simulations deterministic for a fixed seed. *)

val delay_for : ?rng:Prng.t -> ?cap:float -> base:float -> int -> float
(** [delay_for ~base n] is the delay before retry number [n] (0-based,
    seconds).  [base] is the delay before the first retry; [cap]
    (default [30. *. base]) bounds growth.  Without [rng] the schedule
    is the plain deterministic doubling sequence.
    @raise Invalid_argument if [base <= 0.], [cap < base] or [n < 0]. *)
