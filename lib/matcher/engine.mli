(** End-to-end graph pattern matching pipelines.

    Combines the phases of Section 4 — feasible-mate retrieval with
    local pruning, joint reduction, search-order optimization, and the
    backtracking search — under a configurable strategy, with per-phase
    wall-clock timings and search-space statistics for the experimental
    study.

    The paper's named configurations:
    - {e Optimized}: retrieval by profiles, refinement, optimized order;
    - {e Baseline}: retrieval by node attributes, input order, no
      refinement. *)

open Gql_graph

type strategy = {
  retrieval : Feasible.retrieval;
  refine : bool;
  refine_level : int option;  (** default: pattern size *)
  optimize_order : bool;
  cost_model : Cost.model option;  (** default: constant γ = 0.5 *)
  search_domains : int;
  (** > 1: run the search phase on the work-stealing parallel engine
      ({!Ws.search}) with that many domains. Default 1 (sequential) in
      both named strategies; [gqlsh --domains N] overrides it. *)
  adaptive : bool;
  (** Mid-query re-planning ({!Adapt}): profile per-position fan-out
      against the cost model's estimates and re-order the suffix when
      they diverge. Same match set; default false in both named
      strategies; [gqlsh --adaptive] enables it. *)
}

val optimized : strategy
val baseline : strategy
val strategy_name : strategy -> string

type timings = {
  t_retrieve : float;  (** seconds *)
  t_refine : float;
  t_order : float;
  t_search : float;
}

val total : timings -> float

type phase = Retrieve | Refine | Order | Search
(** Pipeline phase, for attributing where a budget stop happened. *)

type result = {
  outcome : Search.outcome;
  space_initial : Feasible.space;  (** after retrieval/local pruning *)
  space_refined : Feasible.space;  (** = initial when refinement off *)
  refine_stats : Refine.stats option;
  order : int array;
  (** the order the search finished under (adaptive runs may have
      re-planned away from the planner's choice) *)
  replans : int;
  (** re-plans applied by an adaptive search; 0 otherwise *)
  timings : timings;
  stopped_in : phase option;
  (** [None] on a normal completion (including [Hit_limit]); [Some p]
      when the budget stopped the pipeline during phase [p]. The
      pre-search phases poll the budget at their boundaries, so a
      deadline expiring inside retrieval is reported as
      [Some Retrieve] with an empty outcome. *)
}

(** {1 Sources}

    Where a run may find work already done. Both are built per data
    graph by a cache that outlives queries (the exec service's
    [Cache.sources]); a direct run passes neither. *)

type plan = {
  p_space : int array array;
      (** the {e refined} candidate rows Φ(u) — retrieval and joint
          reduction already applied; treat as immutable *)
  p_order : int array;  (** the search order used with that space *)
  p_epoch : int;
      (** the learned-stats epoch the order was planned under (0 when
          the planner does not consult the learned stats) *)
}

type plan_source = {
  epoch : int;  (** the learned-stats epoch when the source was built *)
  find :
    retrieval:Feasible.retrieval ->
    refine:bool ->
    epoch:int ->
    Flat_pattern.t ->
    [ `Fresh of plan | `Stale of plan ] option;
      (** the cached plan for this pattern under these settings:
          [`Stale] when it was ordered under an older epoch *)
  add :
    retrieval:Feasible.retrieval ->
    refine:bool ->
    Flat_pattern.t ->
    plan ->
    unit;
  learned : unit -> Stats.t;
      (** a snapshot of the learned statistics, safe to plan from *)
  observe : (Stats.t -> unit) -> unit;
      (** run an update on the shared learned statistics *)
}

type row_source = {
  indexes :
    unit -> (Gql_index.Label_index.t * Gql_index.Profile_index.t) option;
  row :
    retrieval:Feasible.retrieval ->
    Flat_pattern.t ->
    int ->
    compute:(unit -> int array) ->
    int array;
      (** the cached Φ(u) of a pattern node, or [compute ()] *)
}

val run :
  ?strategy:strategy ->
  ?exhaustive:bool ->
  ?limit:int ->
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?label_index:Gql_index.Label_index.t ->
  ?profile_index:Gql_index.Profile_index.t ->
  ?plans:plan_source ->
  ?rows:row_source ->
  Flat_pattern.t ->
  Graph.t ->
  result
(** Defaults: [optimized] strategy, exhaustive, no limit, unlimited
    budget, disabled metrics. Indexes are built on the fly when not
    supplied (pass prebuilt ones when timing — the paper treats index
    construction as offline). With metrics enabled, each phase runs in
    a span of the same name ([retrieve]/[refine]/[order]/[search]) and
    the phase counters (retrieval, refine, search) are recorded.

    The search phase runs on the work-stealing engine ({!Ws.search})
    when [search_domains > 1] and the space is not tiny (more than one
    root candidate and log10 of the space size at least 3); otherwise
    sequentially.

    With sources:
    - a [`Fresh] plan goes straight to search (one budget poll, no
      learned-stats snapshot, no cost estimates);
    - a [`Stale] plan keeps its space, is re-ordered and re-stamped
      (runs on a cached plan record no drift estimates);
    - a miss retrieves each Φ(u) through [rows], refines, orders and
      adds the plan;
    - without a pinned [cost_model], planning uses [plans]' learned
      statistics instead of [Constant];
    - observations from [Exhausted] runs fold into [plans.observe]
      (when it plans with them, or the strategy is adaptive) — or,
      without a plan source, into a [Learned] cost model's statistics;
    - [`Subgraphs] retrieval ignores both sources. *)

val count_matches :
  ?strategy:strategy ->
  ?limit:int ->
  ?budget:Budget.t ->
  Flat_pattern.t ->
  Graph.t ->
  int
