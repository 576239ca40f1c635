(* Workload inputs, built from the seed alone.

   Each workload is a document (served from a .store), the statements a
   fresh server is warmed with, and one request stream per client. A
   stream is an endless, memoized generator: request [i] of client [c]
   is the same on every run with the same seed, so the traced replay
   sees the requests the served run sent. Every request carries the
   oracle its answer is checked against. *)

open Gql_graph
module Rng = Gql_datasets.Rng
module Gql = Gql_core.Gql

type kind = Read | View_read | Write

type oracle =
  | One_graph  (** the query was cut out of the graph: exactly one answer *)
  | Multiset of string list  (** sorted rendered graphs *)
  | Write_ok  (** status ok and exactly one write applied *)
  | Status_ok  (** a view read racing the writes: only the status is fixed *)

type req = { kind : kind; text : string; wait : bool; oracle : oracle }

type stream = { gen : unit -> req; mutable buf : req array; mutable len : int }

let stream gen = { gen; buf = [||]; len = 0 }

(* Client threads extend their streams concurrently and the write_mix
   generators share one adjacency table. *)
let gen_lock = Mutex.create ()

let get s i =
  Mutex.protect gen_lock @@ fun () ->
  while s.len <= i do
    let r = s.gen () in
    if s.len = Array.length s.buf then begin
      let nb = Array.make (max 64 (2 * s.len)) r in
      Array.blit s.buf 0 nb 0 s.len;
      s.buf <- nb
    end;
    s.buf.(s.len) <- r;
    s.len <- s.len + 1
  done;
  s.buf.(i)

type view = {
  v_def : string;  (** the definition as a plain FLWR program *)
  v_read : string;  (** the read that returns the view's graphs once each *)
}

type t = {
  name : string;
  doc : string;
  graphs : Graph.t list;
  clients : int;
  warmup : int -> string list;
      (** statements that warm set-up number [k]; each must answer ok *)
  streams : stream array;
  view : view option;
}

let doc = "D"

let render_sorted ~docs text =
  List.sort compare (Gql_exec.Server.render_graphs (Gql.run_query ~docs text))

(* --- synth_cold ---------------------------------------------------------- *)

(* The pattern as query text: node labels pinned, edges as extracted. *)
let pattern_text p =
  let open Gql_matcher.Flat_pattern in
  let g = p.structure in
  let b = Buffer.create 256 in
  Buffer.add_string b "for graph P { ";
  for u = 0 to Graph.n_nodes g - 1 do
    match required_label p u with
    | Some l -> Printf.bprintf b "node a%d where label=%S; " u l
    | None -> Printf.bprintf b "node a%d; " u
  done;
  Graph.iter_edges g ~f:(fun e { Graph.src; dst; _ } ->
      Printf.bprintf b "edge e%d (a%d, a%d); " e src dst);
  Printf.bprintf b "} in doc(%S) return graph { node m <size=%d>; };" doc
    (Graph.n_nodes g);
  Buffer.contents b

let synth_cold seed =
  let rng = Rng.create seed in
  let n = 40_000 in
  let g = Gql_datasets.Synthetic.erdos_renyi rng ~n ~m:(5 * n) in
  (* one namespace of texts across the warm-up and the timed stream, so
     no text ever reaches a server twice *)
  let seen = Hashtbl.create 4096 in
  let rec fresh r =
    let size = 4 + Rng.int r 3 in
    let text = pattern_text (Gql_datasets.Queries.connected_subgraph r g ~size) in
    if Hashtbl.mem seen text then fresh r
    else begin
      Hashtbl.add seen text ();
      text
    end
  in
  let warm_rng = Rng.split rng in
  let warm = Hashtbl.create 8 in
  let warmup k =
    (match Hashtbl.find_opt warm k with
    | Some t -> [ t ]
    | None ->
      let t = fresh warm_rng in
      Hashtbl.add warm k t;
      [ t ])
  in
  let qrng = Rng.split rng in
  let gen () = { kind = Read; text = fresh qrng; wait = false; oracle = One_graph } in
  {
    name = "synth_cold";
    doc;
    graphs = [ g ];
    clients = 1;
    warmup;
    streams = [| stream gen |];
    view = None;
  }

(* --- chem_hot ------------------------------------------------------------ *)

let elements = [| "C"; "N"; "O"; "S" |]

(* A labelled chain with optional bond constraints; the answer carries the
   matched bonds so equal counts with different matches still differ. *)
let chain_text rng ~len =
  let b = Buffer.create 256 in
  Buffer.add_string b "for graph P { ";
  for i = 0 to len - 1 do
    Printf.bprintf b "node a%d where label=%S; " i (Rng.choose rng elements)
  done;
  for i = 0 to len - 2 do
    match Rng.int rng 3 with
    | 0 -> Printf.bprintf b "edge e%d (a%d, a%d); " i i (i + 1)
    | k -> Printf.bprintf b "edge e%d (a%d, a%d) where bond=%d; " i i (i + 1) k
  done;
  Printf.bprintf b
    "} exhaustive in doc(%S) return graph { node m <b0=P.e0.bond, b1=P.e1.bond>; };"
    doc;
  Buffer.contents b

let chem_hot seed =
  let graphs = Gql_datasets.Chem.generate ~seed ~n_compounds:300 () in
  let docs = [ (doc, graphs) ] in
  let rng = Rng.create seed in
  (* A pool of selective queries, each answering with 10..60 graphs.
     Lengths alternate 3, 4, 3, ... down the Zipf ranks, so every seed
     gets the same mix of query shapes and answer sizes. *)
  let rec pool acc k =
    if k = 8 then List.rev acc
    else
      let text = chain_text rng ~len:(3 + (k mod 2)) in
      let want = render_sorted ~docs text in
      let n = List.length want in
      if n >= 10 && n <= 60 && not (List.mem_assoc text acc) then
        pool ((text, want) :: acc) (k + 1)
      else pool acc k
  in
  let pool = Array.of_list (pool [] 0) in
  let zipf = Gql_datasets.Zipf.create (Array.length pool) in
  let gen r () =
    let text, want = pool.(Gql_datasets.Zipf.sample zipf r) in
    { kind = Read; text; wait = false; oracle = Multiset want }
  in
  {
    name = "chem_hot";
    doc;
    graphs;
    clients = 2;
    warmup = (fun _ -> Array.to_list (Array.map fst pool));
    streams = Array.init 2 (fun c -> stream (gen (Rng.create ((seed * 7) + c))));
    view = None;
  }

(* --- write_mix ----------------------------------------------------------- *)

(* Every node named n<id>, so DML statements can address it. *)
let name_nodes g =
  let b = Graph.Builder.create ?name:(Graph.name g) ~tuple:(Graph.tuple g) () in
  for v = 0 to Graph.n_nodes g - 1 do
    ignore
      (Graph.Builder.add_node b ~name:(Printf.sprintf "n%d" v)
         (Graph.node_tuple g v))
  done;
  Graph.iter_edges g ~f:(fun _ { Graph.src; dst; etuple } ->
      ignore (Graph.Builder.add_edge b ~tuple:etuple src dst));
  Graph.Builder.build b

let view_name = "v"

(* The view pairs bonded S and O atoms; relabels move atoms in and out of
   it and inserted edges add pairs. *)
let view_body =
  Printf.sprintf
    {|for graph P { node a where label="S"; node b where label="O"; edge e (a, b); } exhaustive in doc(%S) return graph { node P.a, P.b; edge ee (P.a, P.b); };|}
    doc

let view_read =
  Printf.sprintf
    {|for graph Q { node a; node b; edge e (a, b); } exhaustive in view(%S) where Q.a.label < Q.b.label return graph { node Q.a, Q.b; edge ee (Q.a, Q.b); };|}
    view_name

(* Collection reads constrain bonds only. Relabels never touch bonds and
   inserted edges carry none, so no write changes the answer — each read
   has an exact oracle — while every write still retires the written
   graph's cached plans. *)
let mix_reads =
  [
    Printf.sprintf
      {|for graph P { node a; node b; node c; node d; edge e1 (b, a) where bond=2; edge e2 (b, c) where bond=1; edge e3 (b, d) where bond=1; } exhaustive in doc(%S) return graph { node m <k=1>; };|}
      doc;
    Printf.sprintf
      {|for graph P { node a; node b; node c; node d; edge e1 (a, b) where bond=1; edge e2 (b, c) where bond=2; edge e3 (c, d) where bond=1; } in doc(%S) return graph { node m <k=2>; };|}
      doc;
  ]

let write_mix seed =
  let graphs = List.map name_nodes (Gql_datasets.Chem.generate ~seed ~n_compounds:300 ()) in
  let docs = [ (doc, graphs) ] in
  let reads = Array.of_list (List.map (fun t -> (t, render_sorted ~docs t)) mix_reads) in
  let garr = Array.of_list graphs in
  let clients = 2 in
  (* adjacency as the writes grow it: client [c] writes only graphs at
     positions = c (mod clients), so each graph's write order is one
     client's stream order and the final collection is deterministic *)
  let adj =
    Array.map
      (fun g ->
        let h = Hashtbl.create 32 in
        Graph.iter_edges g ~f:(fun _ { Graph.src; dst; _ } ->
            Hashtbl.replace h (min src dst, max src dst) ());
        h)
      garr
  in
  let write r c =
    let slots = (Array.length garr - c + clients - 1) / clients in
    let gi = c + (clients * Rng.int r slots) in
    let g = garr.(gi) in
    let gname = Option.get (Graph.name g) in
    let n = Graph.n_nodes g in
    let relabel () =
      Printf.sprintf {|update node doc(%S).%s.n%d set <label=%S>;|} doc gname
        (Rng.int r n) (Rng.choose r elements)
    in
    if Rng.bool r then relabel ()
    else
      let free =
        List.concat
          (List.init n (fun u ->
               List.filter_map
                 (fun v -> if Hashtbl.mem adj.(gi) (u, v) then None else Some (u, v))
                 (List.init (n - u - 1) (fun k -> u + k + 1))))
      in
      match free with
      | [] -> relabel ()
      | _ ->
        let u, v = Rng.choose r (Array.of_list free) in
        Hashtbl.replace adj.(gi) (u, v) ();
        Printf.sprintf {|insert edge (n%d, n%d) into doc(%S).%s;|} u v doc gname
  in
  let gen c r () =
    let x = Rng.float r 1.0 in
    if x < 0.25 then { kind = Write; text = write r c; wait = false; oracle = Write_ok }
    else if x < 0.5 then
      { kind = View_read; text = view_read; wait = false; oracle = Status_ok }
    else
      let text, want = Rng.choose r reads in
      { kind = Read; text; wait = Rng.bool r; oracle = Multiset want }
  in
  {
    name = "write_mix";
    doc;
    graphs;
    clients;
    warmup =
      (fun _ ->
        [ Printf.sprintf "create materialized view %s as %s" view_name view_body ]);
    streams = Array.init clients (fun c -> stream (gen c (Rng.create ((seed * 7) + c))));
    view = Some { v_def = view_body; v_read = view_read };
  }

let names = [ "synth_cold"; "chem_hot"; "write_mix" ]

let make name seed =
  match name with
  | "synth_cold" -> synth_cold seed
  | "chem_hot" -> chem_hot seed
  | "write_mix" -> write_mix seed
  | _ -> invalid_arg name
