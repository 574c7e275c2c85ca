(** Policy-driven observability: wire a {!Rina_sim.Trace} (deterministic
    head sampling, optional ring bound or streaming spill) and a live
    {!Rina_util.Telemetry} registry to an engine, from the policy's
    [[telemetry]] section.

    Typical use, mirroring the shipped
    [examples/policies/telemetry.ini]:
    {[
      let obs = Obs.start ~policy engine in
      Obs.snapshots obs ~until:600.;
      (* ... run the experiment ... *)
      Out_channel.with_open_text "run.stats.jsonl" (fun oc ->
          Out_channel.output_string oc (Telemetry.to_jsonl obs.telemetry));
      Obs.stop obs
    ]}
    The stats file renders with [rina_stats] (text or [--json]). *)

type t = {
  engine : Rina_sim.Engine.t;
  trace : Rina_sim.Trace.t;
  telemetry : Rina_util.Telemetry.t;
  config : Rina_core.Policy.telemetry;
}

val start : ?policy:Rina_core.Policy.t -> ?stream:string -> Rina_sim.Engine.t -> t
(** Attach a trace per [policy.telemetry]: sample rate, ring capacity,
    and — when [stream] names a file — a JSONL streaming sink instead
    of the in-memory buffer.  [Policy_lang.parse] (and lint rule L005) reject bad
    sample rates statically; this raises on them at runtime.
    @raise Invalid_argument when the policy's sample rate is outside
    (0, 1] or the ring capacity is negative. *)

val snapshots : t -> until:float -> unit
(** Schedule the periodic snapshot timer if the policy asked for one
    ([snapshot_interval > 0]); no-op otherwise. *)

val stop : t -> unit
(** Flush/close any streaming sink and detach the recorder. *)
