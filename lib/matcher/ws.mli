(** Work-stealing parallel search engine.

    Sits below {!Engine} so the single-query pipeline can fan a search
    out across OCaml 5 domains. Each domain owns a {!Deque} of subtree
    tasks (prefix assignment + candidate range), expands depth-first
    with the shared {!Search.node_check}, lazily exposes the shallowest
    untouched siblings for thieves, and steals the shallowest pending
    subtree when idle. See DESIGN.md §13 for the protocol.

    Semantics match {!Search.run} up to mapping order: the returned
    mapping {e set}, [n_found], and the [stopped] classification are
    identical; [visited] sums per-domain Check calls. [limit] is a
    global cap enforced exactly via atomic tickets; when any domain
    raises, siblings are cancelled, all are joined, and the first
    exception is re-raised with its backtrace.

    Per-domain metrics (merged after join) additionally record
    [parallel.steals], [parallel.tasks_spawned] and
    [parallel.idle_polls]. *)

open Gql_graph

type report = {
  r_replans : int;  (** re-plans applied across all domains *)
  r_order : int array;  (** the final shared plan's order *)
  r_profile : Search.profile;
  (** descents/checks observed under the final plan, all domains
        merged — positions are those of [r_order] *)
  r_estimates : float array;
  (** {!Cost.position_estimates} of the final plan *)
}

val search :
  ?domains:int ->
  ?order:int array ->
  ?limit:int ->
  ?budget:Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?adapt:Adapt.config ->
  ?model:Cost.model ->
  ?report:(report -> unit) ->
  Flat_pattern.t ->
  Graph.t ->
  Feasible.space ->
  Search.outcome
(** [domains] defaults to [Domain.recommended_domain_count ()], with no
    cap. Falls back to the sequential {!Search.run} when [domains <= 1]
    or the pattern is empty ({!Adapt.run} instead when [adapt] is
    given).

    With [adapt], the current (order, back-edges, estimates) plan lives
    in an [Atomic]: workers profile their own descents per order
    position, and one whose observations diverge from the estimates
    (see {!Adapt}) installs a re-planned suffix by compare-and-set.
    Depth-0 tasks — root ranges, whose empty prefix is order-agnostic —
    always adopt the freshest plan; deeper tasks stay glued to the plan
    their prefix was captured under, so the match set is exactly that
    of the static search. [model] is the γ source for re-planning
    estimates (default [Constant]); [report] receives the final plan,
    merged profile and re-plan count after the join. *)
