(** Whole-topology static verification.

    {!Lint} checks one policy spec at a time; nothing so far checks a
    whole {e configuration} — the recursive DIF graph, the per-DIF
    policies, the application registrations and the planned flows —
    before a trial runs.  This module does: a scenario is described as
    a {!model} (pure data, buildable by hand or extracted from a live
    net with [Rina_exp.Topo.model_of_net]) and {!verify} runs every
    analysis over it, reporting {!Diag.t}s with stable [V]-codes:

    - {b structure} ([V0xx]) — dangling member/DIF references,
      duplicate names;
    - {b naming} ([V1xx]) — every registered application name is
      resolvable through the recursive DIF graph from every member
      that allocates a flow to it, directory collisions, stacked
      adjacencies whose lower flow could never be allocated;
    - {b addressing} ([V2xx]) — address collisions inside a DIF,
      bounded recursion depth, no DIF enrolled over itself, and
      cross-layer feasibility: (N)-PDU size vs (N-1) MTU under
      {!Rina_core.Delimiting} fragmentation, EFCP window vs link queue
      capacity (the bounded-memory argument per RMT queue);
    - {b enrollment} ([V3xx]) — the "DIF X needs a flow over DIF Y"
      dependency graph is acyclic, so bootstrap cannot deadlock. *)

(** One IPC process of a DIF, as planned. *)
type member = {
  m_name : string;  (** unique within the DIF *)
  m_address : int;
      (** planned DIF-internal address; [0] = assigned at enrollment
          (legal — collision checks then skip it) *)
  m_apps : string list;  (** application names registered here *)
}

(** What carries an adjacency between two members. *)
type attachment =
  | Direct of { delay : float; bit_rate : float; queue_frames : int }
      (** a physical link (shim DIF): one-way propagation delay in
          seconds, rate in bits/s, drop-tail queue bound in frames *)
  | Stacked of { lower_dif : string; via_a : string; via_b : string }
      (** an (N-1) flow of [lower_dif], allocated between the lower
          members hosting the two endpoints *)

type adjacency = { adj_a : string; adj_b : string; att : attachment }

type dif = {
  d_name : string;
  d_policy : Rina_core.Policy.t;
  d_members : member list;
  d_adjacencies : adjacency list;
}

(** A planned flow allocation: [it_src] (a member of [it_dif]) will
    allocate to application name [it_dst_app] in that DIF. *)
type intent = { it_dif : string; it_src : string; it_dst_app : string }

type model = { difs : dif list; intents : intent list }

type summary = {
  n_difs : int;
  n_members : int;
  n_adjacencies : int;
  n_intents : int;
  support_depth : int;
      (** longest chain in the DIF support graph (1 = no stacking) *)
}

type report = { diags : Diag.t list; summary : summary }

val verify : ?max_depth:int -> model -> report
(** Run every analysis.  [max_depth] (default 16) bounds the DIF
    recursion depth ([V210]).  Diagnostics are sorted with
    {!Diag.compare}; [report.summary] is always populated, whatever
    the findings. *)

val effective_delay : model -> dif -> adjacency -> float
(** Lower bound on the one-way propagation delay of an adjacency:
    the link delay for [Direct], the shortest-path effective delay
    between the two lower endpoints for [Stacked] (0 when the lower
    path is broken — which [verify] reports separately as [V110]). *)

val lint_topo : model -> dif:string -> Lint.topo option
(** Summarise one DIF of the model in {!Lint.topo} terms — hop
    diameter, bottleneck bit rate (through stacked paths, recursively)
    and worst-pair round-trip time — so [rina_lint --topology] can run
    the [L2xx] rules against a named scenario instead of hand-fed
    numbers.  [None] if the DIF is unknown or has no members. *)

val rules : Diag.rule list
(** The stable [V]-code table for [rina_lint --list-rules]. *)
