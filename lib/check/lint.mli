(** Static analysis of declarative policy specs.

    [Policy_lang.parse] is fail-fast: it rejects the first line that
    breaks the key table (syntax, unknown or repeated key, a value out
    of its key's type or bounds) and accepts everything else, including
    configurations that can only produce garbage experiments (a
    retransmission-timer floor above its initial value, a DRR quantum
    smaller than the MTU, a dead interval shorter than the hello
    interval...).  The linter runs the full rule set over the whole
    spec and reports *every* finding as a structured {!Diag.t}, never
    raising and never stopping at the first problem — suitable for
    editors and CI.

    Rule codes are stable (documented in [docs/linting.md]):
    - [L001]–[L005]: {!Rina_core.Policy_lang.scan}'s findings —
      unknown sections and keys, duplicate keys, malformed lines, and
      values outside their key's type or bounds.
    - [L101]–[L123] (gaps are retired codes): cross-key consistency on
      the policy [scan] resolves over [base], e.g. [min_rto <= init_rto],
      [quantum] only under [kind = drr], [secret] iff password auth,
      [dead_interval > 2 x hello_interval],
      [keepalive_interval < dead_peer_timeout], zero-retry enrollment,
      congestion, telemetry and multipath knobs that cannot work.
    - [L201]–[L202]: topology-aware checks, only when [?topo] is
      given — TTL vs network diameter, window vs the bandwidth-delay
      product. *)

(** Summary of the network a spec is destined for. *)
type topo = {
  diameter : int;  (** longest shortest-path, in hops *)
  bottleneck_bit_rate : float;  (** narrowest link, bits/second *)
  rtt : float;  (** round-trip time across the longest path, seconds *)
}

val lint : ?base:Rina_core.Policy.t -> ?topo:topo -> string -> Diag.t list
(** Lint a spec text.  Structural findings carry the offending line;
    cross-field findings carry the line of the latest explicitly set
    participating key ([0] if the conflict comes entirely from
    [base], default {!Policy.default}).  The result is sorted with
    {!Diag.compare}.  An empty list means the spec is clean. *)

val clean : ?base:Rina_core.Policy.t -> ?topo:topo -> string -> bool
(** [clean spec] iff {!lint} reports no [Error]-severity finding
    (warnings allowed). *)

val rules : Diag.rule list
(** The stable [L]-code table for [rina_lint --list-rules]. *)
