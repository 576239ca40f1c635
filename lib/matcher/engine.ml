
type strategy = {
  retrieval : Feasible.retrieval;
  refine : bool;
  refine_level : int option;
  optimize_order : bool;
  cost_model : Cost.model option;
  search_domains : int;
  adaptive : bool;
}

let optimized =
  {
    retrieval = `Profiles;
    refine = true;
    refine_level = None;
    optimize_order = true;
    cost_model = None;
    search_domains = 1;
    adaptive = false;
  }

let baseline =
  {
    retrieval = `Node_attrs;
    refine = false;
    refine_level = None;
    optimize_order = false;
    cost_model = None;
    search_domains = 1;
    adaptive = false;
  }

let strategy_name s =
  let retr =
    match s.retrieval with
    | `Node_attrs -> "attrs"
    | `Profiles -> "profiles"
    | `Subgraphs -> "subgraphs"
  in
  Printf.sprintf "%s%s%s%s" retr
    (if s.refine then "+refine" else "")
    (if s.optimize_order then "+order" else "")
    (if s.adaptive then "+adaptive" else "")

type timings = {
  t_retrieve : float;
  t_refine : float;
  t_order : float;
  t_search : float;
}

let total t = t.t_retrieve +. t.t_refine +. t.t_order +. t.t_search

type phase = Retrieve | Refine | Order | Search

type result = {
  outcome : Search.outcome;
  space_initial : Feasible.space;
  space_refined : Feasible.space;
  refine_stats : Refine.stats option;
  order : int array;
  replans : int;
  timings : timings;
  stopped_in : phase option;
}

type plan = {
  p_space : int array array;
  p_order : int array;
  p_epoch : int;
}

type plan_source = {
  epoch : int;
  find :
    retrieval:Feasible.retrieval ->
    refine:bool ->
    epoch:int ->
    Flat_pattern.t ->
    [ `Fresh of plan | `Stale of plan ] option;
  add :
    retrieval:Feasible.retrieval ->
    refine:bool ->
    Flat_pattern.t ->
    plan ->
    unit;
  learned : unit -> Stats.t;
  observe : (Stats.t -> unit) -> unit;
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
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let run ?(strategy = optimized) ?(exhaustive = true) ?limit
    ?(budget = Budget.unlimited) ?(metrics = Gql_obs.Metrics.disabled)
    ?label_index ?profile_index ?plans ?rows p g =
  let module M = Gql_obs.Metrics in
  let s = strategy in
  (* [`Subgraphs] retrieval memoizes neighbourhoods inside the profile
     index, which is not safe to share across domains: it bypasses both
     sources and runs as a direct call. *)
  let plans, rows =
    match s.retrieval with
    | `Subgraphs -> (None, None)
    | `Node_attrs | `Profiles -> (plans, rows)
  in
  (* With a plan source and no pinned cost model, planning uses the
     source's learned statistics (snapshotted at most once, and only
     when something actually plans); a direct run keeps [Constant]. *)
  let uses_learned = Option.is_some plans && Option.is_none s.cost_model in
  let model =
    lazy
      (match (s.cost_model, plans) with
      | Some m, _ -> m
      | None, Some ps ->
        Cost.Learned { learned = ps.learned (); fallback = None }
      | None, None -> Cost.Constant Cost.default_constant)
  in
  (* where a finished search's per-position fan-outs are folded in *)
  let sink =
    match (plans, s.cost_model) with
    | Some ps, _ -> if uses_learned || s.adaptive then Some ps.observe else None
    | None, Some (Cost.Learned { learned; _ }) -> Some (fun f -> f learned)
    | None, _ -> None
  in
  let epoch = match plans with Some ps when uses_learned -> ps.epoch | _ -> 0 in
  (* Each phase runs inside a trace span named after it, so `explain
     --analyze` renders the same tree the timings describe. *)
  let phase_timed name f = timed (fun () -> M.with_span metrics name f) in
  let t_retrieve = ref 0.0 and t_refine = ref 0.0 and t_order = ref 0.0 in
  let timings t_search =
    { t_retrieve = !t_retrieve; t_refine = !t_refine; t_order = !t_order;
      t_search }
  in
  (* The budget is polled at each phase boundary, so a deadline that
     expires during retrieval or refinement is attributed to that phase
     and the remaining phases are skipped, returning an empty outcome. *)
  let poll phase ~space_initial ~space_refined ~refine_stats ~order k =
    match Budget.poll budget with
    | None -> k ()
    | Some r ->
      {
        outcome =
          { Search.mappings = []; n_found = 0; visited = 0; stopped = r };
        space_initial;
        space_refined;
        refine_stats;
        order;
        replans = 0;
        timings = timings 0.0;
        stopped_in = Some phase;
      }
  in
  let plan_order space =
    if s.optimize_order then begin
      let order, t =
        phase_timed "order" (fun () ->
            Order.greedy ~model:(Lazy.force model) p
              ~sizes:(Feasible.sizes space))
      in
      t_order := t;
      order
    end
    else Order.identity p
  in
  let remember space order =
    Option.iter
      (fun ps ->
        ps.add ~retrieval:s.retrieval ~refine:s.refine p
          { p_space = space.Feasible.candidates; p_order = order;
            p_epoch = epoch })
      plans
  in
  (* the last budget poll, then the search phase *)
  let search ~space_initial ~refine_stats ~space ~order ~estimate =
    poll Order ~space_initial ~space_refined:space ~refine_stats ~order
      (fun () ->
        let replans = ref 0 in
        (* (profile, estimates, final order) for drift and feedback *)
        let observed = ref None in
        (* tiny searches stay sequential: spawning and joining domains
           costs more than they do *)
        let heavy =
          Array.length order > 0
          && Array.length space.Feasible.candidates.(order.(0)) > 1
          && Feasible.log10_size space >= 3.0
        in
        let outcome, t_search =
          phase_timed "search" (fun () ->
              if s.search_domains > 1 && heavy then begin
                (* the work-stealing engine has no [exhaustive] switch;
                   first-match mode is a global limit of 1 *)
                let limit =
                  if exhaustive then limit
                  else Some (match limit with Some l -> min l 1 | None -> 1)
                in
                if s.adaptive then
                  Ws.search ~domains:s.search_domains ?limit ~budget ~metrics
                    ~adapt:Adapt.default ~model:(Lazy.force model)
                    ~report:(fun r ->
                      replans := r.Ws.r_replans;
                      observed :=
                        Some
                          (r.Ws.r_profile, Some r.Ws.r_estimates, r.Ws.r_order))
                    ~order p g space
                else
                  Ws.search ~domains:s.search_domains ?limit ~budget ~metrics
                    ~order p g space
              end
              else if s.adaptive then begin
                let r =
                  Adapt.run ~exhaustive ?limit ~budget ~metrics
                    ~model:(Lazy.force model) ~order p g space
                in
                replans := r.Adapt.replans;
                observed :=
                  Some
                    ( r.Adapt.profile,
                      Some r.Adapt.estimates,
                      r.Adapt.final_order );
                r.Adapt.outcome
              end
              else begin
                (* static sequential run: profile when metrics are on (so
                   [explain --analyze] can show estimate/actual drift) or
                   when the observations feed learned statistics. A run on
                   a cached plan skips the estimates: their cost would recur
                   on every warm query. *)
                let profile =
                  if M.enabled metrics || Option.is_some sink then
                    Some (Search.profile_create (Flat_pattern.size p))
                  else None
                in
                let o =
                  Search.run ~exhaustive ?limit ~budget ~metrics ~order
                    ?profile p g space
                in
                Option.iter
                  (fun pr ->
                    let est =
                      if M.enabled metrics && estimate then
                        Some
                          (Cost.position_estimates (Lazy.force model) p
                             ~sizes:(Feasible.sizes space) order)
                      else None
                    in
                    observed := Some (pr, est, order))
                  profile;
                o
              end)
        in
        (match !observed with
        | None -> ()
        | Some (pr, est, ord) ->
          let k = Array.length ord in
          Option.iter
            (fun est ->
              if M.enabled metrics then
                for i = 0 to k - 1 do
                  M.record_drift metrics ~position:i ~estimated:est.(i)
                    ~actual:(float_of_int pr.Search.pr_descents.(i))
                done)
            est;
          (* close the feedback loop: fold the observed per-position
             fan-outs and candidate sizes into the learned statistics. Only
             exhausted runs: a truncated search undercounts deep positions
             and would bias the averages. *)
          match sink with
          | Some observe when outcome.Search.stopped = Budget.Exhausted ->
            let pd = pr.Search.pr_descents in
            let fanouts = Array.make k nan in
            for i = 1 to k - 1 do
              if pd.(i - 1) > 0 then
                fanouts.(i) <- float_of_int pd.(i) /. float_of_int pd.(i - 1)
            done;
            let sizes = Feasible.sizes space in
            let n_nodes = Gql_graph.Graph.n_nodes g in
            observe (fun st ->
                Stats.observe_run st ~p ~n_nodes ~sizes ~order:ord ~fanouts)
          | _ -> ());
        {
          outcome;
          space_initial;
          space_refined = space;
          refine_stats;
          order = (match !observed with Some (_, _, o) -> o | None -> order);
          replans = !replans;
          timings = timings t_search;
          stopped_in =
            (match outcome.Search.stopped with
            | Budget.Exhausted | Budget.Hit_limit -> None
            | Budget.Deadline | Budget.Step_budget | Budget.Cancelled ->
              Some Search);
        })
  in
  let cached =
    match plans with
    | Some ps -> ps.find ~retrieval:s.retrieval ~refine:s.refine ~epoch p
    | None -> None
  in
  match cached with
  | Some (`Fresh pl) ->
    (* warm plan: retrieval, refinement and ordering already done *)
    let space = { Feasible.candidates = pl.p_space } in
    search ~space_initial:space ~refine_stats:None ~space ~order:pl.p_order
      ~estimate:false
  | Some (`Stale pl) ->
    (* the learned statistics crossed an epoch since this plan was
       ordered: the refined space is still exact — only re-run the
       (cheap) ordering under the current model and re-stamp *)
    let space = { Feasible.candidates = pl.p_space } in
    let order = plan_order space in
    remember space order;
    search ~space_initial:space ~refine_stats:None ~space ~order
      ~estimate:false
  | None ->
    let space_initial, t =
      phase_timed "retrieve" (fun () ->
          match rows with
          | None ->
            Feasible.compute ~retrieval:s.retrieval ~metrics ?label_index
              ?profile_index p g
          | Some rs ->
            (* per-node rows from the source, computing only the missing
               ones against the source's indexes *)
            let label_index, profile_index =
              match rs.indexes () with
              | Some (l, pi) -> (Some l, Some pi)
              | None -> (label_index, profile_index)
            in
            {
              Feasible.candidates =
                Array.init (Flat_pattern.size p) (fun u ->
                    rs.row ~retrieval:s.retrieval p u ~compute:(fun () ->
                        Feasible.compute_row ~retrieval:s.retrieval ~metrics
                          ?label_index ?profile_index p g u));
            })
    in
    t_retrieve := t;
    poll Retrieve ~space_initial ~space_refined:space_initial
      ~refine_stats:None ~order:(Order.identity p) (fun () ->
        let (space_refined, refine_stats), t =
          if s.refine then
            phase_timed "refine" (fun () ->
                let sp, st =
                  Refine.refine ?level:s.refine_level ~metrics p g space_initial
                in
                (sp, Some st))
          else ((space_initial, None), 0.0)
        in
        t_refine := t;
        poll Refine ~space_initial ~space_refined ~refine_stats
          ~order:(Order.identity p) (fun () ->
            let order = plan_order space_refined in
            remember space_refined order;
            search ~space_initial ~refine_stats ~space:space_refined ~order
              ~estimate:true))

let count_matches ?strategy ?limit ?budget p g =
  (run ?strategy ?limit ?budget p g).outcome.Search.n_found
