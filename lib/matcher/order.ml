open Gql_graph

let identity p = Array.init (Flat_pattern.size p) (fun i -> i)

(* Greedy selection with an incremental γ memo: instead of recomputing
   Cost.join_gamma (a walk over every edge into the chosen set) for
   every candidate at every step, [gamma_cache.(u)] carries the product
   of the edge factors between u and the chosen set and is updated once
   per edge when a node enters the set — O(edges) total instead of
   O(k × edges). [conn.(u)] counts chosen neighbors for the
   connectivity preference the same way. *)
let greedy_core model p ~sizes ~prefix =
  let k = Flat_pattern.size p in
  let g = p.Flat_pattern.structure in
  let chosen = Array.make k false in
  let order = Array.make k 0 in
  let gamma_cache = Array.make k 1.0 in
  let conn = Array.make k 0 in
  let connect w =
    let visit (u', e) =
      if not chosen.(u') then begin
        gamma_cache.(u') <-
          gamma_cache.(u') *. Cost.edge_factor model p ~u:u' ~u':w e;
        conn.(u') <- conn.(u') + 1
      end
    in
    Array.iter visit (Graph.neighbors g w);
    if Graph.directed g then Array.iter visit (Graph.in_neighbors g w)
  in
  let count = ref 0 in
  let size = ref 1.0 in
  let add w =
    if !count = 0 then size := float_of_int sizes.(w)
    else size := !size *. float_of_int sizes.(w) *. gamma_cache.(w);
    order.(!count) <- w;
    chosen.(w) <- true;
    connect w;
    incr count
  in
  Array.iter
    (fun w ->
      if w < 0 || w >= k || chosen.(w) then
        invalid_arg "Order: invalid prefix";
      add w)
    prefix;
  if !count = 0 then begin
    (* start from the node with the smallest candidate set *)
    let first = ref 0 in
    for u = 1 to k - 1 do
      if sizes.(u) < sizes.(!first) then first := u
    done;
    add !first
  end;
  for _ = !count to k - 1 do
    let best = ref (-1) in
    let best_cost = ref infinity in
    let best_next = ref infinity in
    let consider u =
      let cost = !size *. float_of_int sizes.(u) in
      (* the γ-aware key: the join cost (what Cost.order_cost charges
         this step), tie-broken on the size of the resulting partial
         result — which is the cost scaled by γ, so a candidate whose
         closed edges bring a larger reduction wins the tie and every
         later join starts from a smaller intermediate *)
      let next = cost *. gamma_cache.(u) in
      if cost < !best_cost || (cost = !best_cost && next < !best_next) then begin
        best := u;
        best_cost := cost;
        best_next := next
      end
    in
    for u = 0 to k - 1 do
      if (not chosen.(u)) && conn.(u) > 0 then consider u
    done;
    if !best < 0 then
      for u = 0 to k - 1 do
        if not chosen.(u) then consider u
      done;
    add !best
  done;
  order

let greedy ?(model = Cost.Constant Cost.default_constant) p ~sizes =
  let k = Flat_pattern.size p in
  if k = 0 then [||]
  else begin
    let order = greedy_core model p ~sizes ~prefix:[||] in
    (* greedy is myopic; never hand the search a plan worse than the
       input order it was asked to improve on *)
    if
      Cost.order_cost model p ~sizes order
      <= Cost.order_cost model p ~sizes (identity p)
    then order
    else identity p
  end

let greedy_from ?(model = Cost.Constant Cost.default_constant) p ~sizes
    ~prefix =
  let k = Flat_pattern.size p in
  if Array.length prefix > k then invalid_arg "Order: invalid prefix";
  if k = 0 then [||] else greedy_core model p ~sizes ~prefix

(* Exact minimization for small patterns: depth-first over all
   permutations, carrying (cost so far, intermediate size) exactly as
   Cost.order_cost does, pruning branches whose partial cost already
   exceeds the best. 8! = 40320 prefixes is instant at k <= 8. A
   non-empty [prefix] pins the first positions — the adaptive search
   cannot move nodes it is already enumerating — and the minimization
   runs over the remaining suffix only. *)
let exact ?(prefix = [||]) model p ~sizes k =
  let best_cost = ref infinity in
  let best_order = ref (identity p) in
  let order = Array.make k 0 in
  let used = Array.make k false in
  let in_set = Array.make k false in
  let extend i u cost size =
    let su = float_of_int sizes.(u) in
    let cost' = if i = 0 then 0.0 else cost +. (size *. su) in
    let size' =
      if i = 0 then su else size *. su *. Cost.join_gamma model p ~in_set u
    in
    (cost', size')
  in
  let rec go i cost size =
    if cost >= !best_cost then ()
    else if i = k then begin
      best_cost := cost;
      best_order := Array.copy order
    end
    else
      for u = 0 to k - 1 do
        if not used.(u) then begin
          let cost', size' = extend i u cost size in
          order.(i) <- u;
          used.(u) <- true;
          in_set.(u) <- true;
          go (i + 1) cost' size';
          used.(u) <- false;
          in_set.(u) <- false
        end
      done
  in
  let cost = ref 0.0 and size = ref 1.0 in
  Array.iteri
    (fun i u ->
      if u < 0 || u >= k || used.(u) then invalid_arg "Order: invalid prefix";
      let cost', size' = extend i u !cost !size in
      order.(i) <- u;
      used.(u) <- true;
      in_set.(u) <- true;
      cost := cost';
      size := size')
    prefix;
  go (Array.length prefix) !cost !size;
  !best_order

let exhaustive ?(model = Cost.Constant Cost.default_constant) p ~sizes =
  let k = Flat_pattern.size p in
  if k > 20 then invalid_arg "Order.exhaustive: pattern too large";
  if k = 0 then [||]
  else if k <= 8 then exact model p ~sizes k
  else begin
    (* DP over subsets: best (cost, size, last-order) per subset. Cost of
       extending subset S with u: size(S) * |Φ(u)|; new size includes γ.
       Heuristic for k > 8: only one (cost, size) pair survives per
       subset, so a costlier prefix with a smaller intermediate can be
       lost — the exact search above is the oracle for small k. *)
    let n_subsets = 1 lsl k in
    let best_cost = Array.make n_subsets infinity in
    let best_size = Array.make n_subsets 0.0 in
    let best_order = Array.make n_subsets [] in
    for u = 0 to k - 1 do
      let s = 1 lsl u in
      best_cost.(s) <- 0.0;
      best_size.(s) <- float_of_int sizes.(u);
      best_order.(s) <- [ u ]
    done;
    for s = 1 to n_subsets - 1 do
      if best_cost.(s) < infinity then
        for u = 0 to k - 1 do
          if s land (1 lsl u) = 0 then begin
            let s' = s lor (1 lsl u) in
            let in_set = Array.init k (fun i -> s land (1 lsl i) <> 0) in
            let join_cost = best_size.(s) *. float_of_int sizes.(u) in
            let cost = best_cost.(s) +. join_cost in
            if cost < best_cost.(s') then begin
              let gamma = Cost.join_gamma model p ~in_set u in
              best_cost.(s') <- cost;
              best_size.(s') <- best_size.(s) *. float_of_int sizes.(u) *. gamma;
              best_order.(s') <- u :: best_order.(s)
            end
          end
        done
    done;
    Array.of_list (List.rev best_order.(n_subsets - 1))
  end

(* The mid-query re-planner's completion. greedy_from keys each step on
   the immediate join cost, which is blind to exactly the situation a
   re-plan exists for: a join that costs more now but whose observed γ
   collapses every later intermediate. Small patterns get the exact
   suffix minimization instead; larger ones keep the greedy
   completion. *)
let exhaustive_from ?(model = Cost.Constant Cost.default_constant) p ~sizes
    ~prefix =
  let k = Flat_pattern.size p in
  if Array.length prefix > k then invalid_arg "Order: invalid prefix";
  if k = 0 then [||]
  else if k <= 8 then exact ~prefix model p ~sizes k
  else greedy_core model p ~sizes ~prefix

(* Whole-pattern access cost, for ranking the patterns of a
   multi-pattern program against each other (the graph-side analogue of
   the sqlsim System-R enumerator's cheapest-access-first rule): the
   estimated root scan plus the estimated join costs of this pattern's
   own greedy order, with per-node sizes estimated from the model. *)
let rec model_sizes model p ~n_nodes =
  let k = Flat_pattern.size p in
  match model with
  | Cost.Learned { learned; _ } -> Stats.estimate_sizes learned p ~n_nodes
  | Cost.Frequencies stats ->
    Array.init k (fun u ->
        max 1
          (int_of_float
             (Cost.label_frequency stats (Flat_pattern.required_label p u))))
  | Cost.Edge_gamma { base; _ } -> model_sizes base p ~n_nodes
  | Cost.Constant _ -> Array.make k (max 1 n_nodes)

let pattern_cost ?(model = Cost.Constant Cost.default_constant) p ~n_nodes =
  let k = Flat_pattern.size p in
  if k = 0 then 0.0
  else begin
    let sizes = model_sizes model p ~n_nodes in
    let order = greedy ~model p ~sizes in
    float_of_int sizes.(order.(0)) +. Cost.order_cost model p ~sizes order
  end
