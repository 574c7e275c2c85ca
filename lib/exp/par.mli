(** Domain-parallel trial fan-out with sequential-identical results.

    A fixed pool of worker domains pulls items off an atomic counter;
    each trial must build its own {!Rina_sim.Engine},
    {!Rina_util.Prng}, {!Rina_util.Metrics} and (if it traces) its own
    {!Rina_sim.Trace}.  The engine owns the trial's flight recorder and
    sanitizer context, so concurrent trials never share either.
    Results come back in input order: parallel output is byte-identical
    to a sequential run over the same items. *)

val map : domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~domains f items] applies [f] to every item across [domains]
    workers (clamped to [1] and to the item count) and returns results
    in input order.  If any application raised, the first failure in
    {e input} order is re-raised — deterministically, regardless of
    domain interleaving — after all workers finish. *)

val map_telemetry :
  domains:int ->
  (Rina_util.Telemetry.t -> 'a -> 'b) ->
  'a array ->
  'b array * Rina_util.Telemetry.t
(** Like {!map}, but [f tele item] also gets a private
    {!Rina_util.Telemetry} registry to record into (per-shard stats
    pipeline).  After all workers join, the shards are merged in input
    order — telemetry merge is exact and the order is fixed, so the
    merged registry (and its {!Rina_util.Telemetry.to_jsonl} export) is
    byte-identical between a 1-domain and an N-domain run of the same
    items. *)
