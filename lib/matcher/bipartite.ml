type graph = {
  nl : int;
  nr : int;
  adj : int list array;
}

let inf = max_int

(* Hopcroft–Karp: repeatedly find a maximal set of vertex-disjoint
   shortest augmenting paths via BFS layering + DFS. *)
let hopcroft_karp_matching g =
  let match_l = Array.make g.nl (-1) in
  let match_r = Array.make g.nr (-1) in
  let dist = Array.make g.nl inf in
  let q = Queue.create () in
  let bfs () =
    Queue.clear q;
    let reachable_free = ref false in
    for l = 0 to g.nl - 1 do
      if match_l.(l) < 0 then begin
        dist.(l) <- 0;
        Queue.add l q
      end
      else dist.(l) <- inf
    done;
    while not (Queue.is_empty q) do
      let l = Queue.pop q in
      List.iter
        (fun r ->
          match match_r.(r) with
          | -1 -> reachable_free := true
          | l' ->
            if dist.(l') = inf then begin
              dist.(l') <- dist.(l) + 1;
              Queue.add l' q
            end)
        g.adj.(l)
    done;
    !reachable_free
  in
  let rec dfs l =
    let rec try_edges = function
      | [] ->
        dist.(l) <- inf;
        false
      | r :: rest ->
        let advance =
          match match_r.(r) with
          | -1 -> true
          | l' -> dist.(l') = dist.(l) + 1 && dfs l'
        in
        if advance then begin
          match_l.(l) <- r;
          match_r.(r) <- l;
          true
        end
        else try_edges rest
    in
    try_edges g.adj.(l)
  in
  let size = ref 0 in
  while bfs () do
    for l = 0 to g.nl - 1 do
      if match_l.(l) < 0 && dfs l then incr size
    done
  done;
  (!size, match_l)

let hopcroft_karp g = fst (hopcroft_karp_matching g)

let kuhn g =
  let match_r = Array.make g.nr (-1) in
  let visited = Array.make g.nr false in
  let rec try_augment l =
    let rec go = function
      | [] -> false
      | r :: rest ->
        if visited.(r) then go rest
        else begin
          visited.(r) <- true;
          if match_r.(r) < 0 || try_augment match_r.(r) then begin
            match_r.(r) <- l;
            true
          end
          else go rest
        end
    in
    go g.adj.(l)
  in
  let size = ref 0 in
  for l = 0 to g.nl - 1 do
    Array.fill visited 0 g.nr false;
    if try_augment l then incr size
  done;
  !size

let semi_perfect g =
  g.nr >= g.nl
  && (let ok = ref true in
      (* only the first [nl] rows belong to the graph: [adj] may be a
         larger scratch buffer shared across calls *)
      for l = 0 to g.nl - 1 do
        if g.adj.(l) = [] then ok := false
      done;
      !ok)
  && hopcroft_karp g = g.nl

(* --- packed word rows ---------------------------------------------------- *)

let bpw = Bitset.bits_per_word

(* number of trailing zeros of a one-bit word *)
let ntz_pow2 b = Bitset.popcount (b - 1)

let kuhn_packed ~nl ~nr ~stride rows =
  let match_r = Array.make nr (-1) in
  let visited = Array.make stride 0 in
  (* augmenting-path DFS where the candidate set at each left vertex is
     row ∧ ¬visited, evaluated a word at a time: a 63-neighbor row
     costs one mask instead of 63 per-element visited tests *)
  let rec try_augment l =
    let base = l * stride in
    let rec scan wi =
      if wi >= stride then false
      else
        let w =
          Array.unsafe_get rows (base + wi) land lnot (Array.unsafe_get visited wi)
        in
        if w = 0 then scan (wi + 1) else try_bits wi w
    and try_bits wi w =
      if w = 0 then scan (wi + 1)
      else begin
        let b = w land -w in
        let rest = w land (w - 1) in
        (* the recursive call below may have visited this bit already *)
        if Array.unsafe_get visited wi land b <> 0 then try_bits wi rest
        else begin
          Array.unsafe_set visited wi (Array.unsafe_get visited wi lor b);
          let r = (wi * bpw) + ntz_pow2 b in
          if match_r.(r) < 0 || try_augment match_r.(r) then begin
            match_r.(r) <- l;
            true
          end
          else try_bits wi rest
        end
      end
    in
    scan 0
  in
  let size = ref 0 in
  for l = 0 to nl - 1 do
    Array.fill visited 0 stride 0;
    if try_augment l then incr size
  done;
  !size
