(** The bulk graph algebra (Section 3.3).

    Operators manipulate {e collections of graphs}: the selection
    operator σ generalizes relational selection to graph pattern
    matching, × and ⋈ combine collections, the composition operator ω
    rewrites matched graphs through templates, and the set operators
    complete the five-operator basis (σ, ×, ω, ∪, −) that is
    relationally complete (Theorem 4.5).

    A collection entry is either a plain graph or a matched graph
    ⟨φ, P, G⟩; matched graphs participate in every operator as the
    graph they annotate. *)

open Gql_graph

type entry =
  | G of Graph.t
  | M of Matched.t

type collection = entry list

val underlying : entry -> Graph.t
(** [G g] → [g]; [M m] → the data graph of the binding. *)

val graphs : collection -> Graph.t list

(** {1 Selection} *)

val select_paths_governed :
  ?strategy:Gql_matcher.Engine.strategy ->
  ?exhaustive:bool ->
  ?limit:int ->
  ?budget:Gql_matcher.Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  ?sources:
    (Graph.t ->
    (Gql_matcher.Engine.plan_source * Gql_matcher.Engine.row_source) option) ->
  ?on_run:(Gql_matcher.Search.outcome -> unit) ->
  patterns:Gql_matcher.Rpq.pattern list ->
  collection ->
  collection * Gql_matcher.Budget.stop_reason
(** σP(C) = { φP(G) | G ∈ C }: every mapping of every pattern
    derivation against every graph of the collection (one mapping per
    graph when [exhaustive] is false, §3.3), plus the aggregate stop
    reason. The result entries are matched graphs; [patterns] lists the
    derivations of the (possibly recursive) pattern, and a graph's
    matches accumulate across derivations.

    Each (pattern, graph) pair runs through {!Gql_matcher.Rpq.run}: the
    flat core through the matcher engine, with [sources g] as its plan
    and row sources when given (the exec service passes its shared
    caches; default: none), path segments through the product BFS with
    the reachability-index fast path. One RPQ context per distinct
    graph is shared across all patterns. [on_run] sees each run's
    outcome after its matches are collected (the service charges its
    scheduling quantum there).

    The [budget] is shared by every run. The reason is [Exhausted] when
    every run completed (per-run [Hit_limit] truncation included — that
    is requested behaviour, not a resource stop), otherwise the worst
    resource reason observed; a [final] reason (deadline, cancellation)
    short-circuits the remaining runs. With [metrics] enabled, each run
    executes inside a ["match"] span and the per-graph match counts
    feed the [matches_per_graph] histogram. *)

val select :
  ?strategy:Gql_matcher.Engine.strategy ->
  ?exhaustive:bool ->
  ?limit:int ->
  ?budget:Gql_matcher.Budget.t ->
  ?metrics:Gql_obs.Metrics.t ->
  patterns:Gql_matcher.Flat_pattern.t list ->
  collection ->
  collection
(** {!select_paths_governed} over flat patterns, without sources,
    returning only the matches (on a resource stop, the ones found so
    far). *)

val pattern_order :
  ?strategy:Gql_matcher.Engine.strategy ->
  n_nodes:int ->
  Gql_matcher.Flat_pattern.t list ->
  int list
(** Execution order for a multi-pattern selection: indices into the
    input list, cheapest estimated whole-pattern cost
    ({!Gql_matcher.Order.pattern_cost} under the strategy's cost model)
    first; stable on ties. {!select_paths_governed} runs patterns in
    this order — the System-R style cheapest-first rule lifted from
    join orders to pattern derivations — while emitting results grouped
    in program order, so only budget-stopped runs can observe the
    difference. *)

(** {1 Product and join} *)

val cartesian : collection -> collection -> collection
(** C × D: each output graph contains an (unconnected) copy of a graph
    from C and one from D; its tuple is the union of theirs. *)

val join : on:Pred.t -> collection -> collection -> collection
(** Valued join (Fig 4.10): σ_on(C × D), where [on] sees each
    operand's graph tuple under the operand graph's name (falling back
    to ["left"] / ["right"] for anonymous graphs). *)

(** {1 Composition} *)

val compose :
  template:Ast.graph_decl -> param:string -> collection -> collection
(** ω_T(C): instantiate the single-parameter template for every entry,
    binding the formal parameter [param] to it. *)

val compose_n :
  template:Ast.graph_decl -> params:string list -> collection list -> collection
(** The general composition: the Cartesian product of the input
    collections, each tuple of entries bound to the corresponding
    formal parameter. *)

(** {1 Set operators}

    Entry equality is attributed-graph isomorphism ({!Iso.isomorphic}),
    suitable for the small result graphs the algebra manipulates. *)

val union : collection -> collection -> collection
val difference : collection -> collection -> collection
val intersection : collection -> collection -> collection
val distinct : collection -> collection

(** {1 Relational simulation (Theorem 4.5)}

    A relation is encoded as a collection of single-node graphs whose
    node carries the tuple. *)

val rel_of_tuples : Tuple.t list -> collection
val tuples_of_rel : collection -> Tuple.t list
(** Raises [Invalid_argument] if some entry is not a single-node graph. *)

val rel_project : string list -> collection -> collection
val rel_rename : (string * string) list -> collection -> collection
val rel_select : Pred.t -> collection -> collection
(** Predicate over the node's attributes. *)

val rel_product : collection -> collection -> collection
(** Pairs the node tuples into single-node graphs (attribute union;
    clashing names must be renamed first, as in RA). *)
