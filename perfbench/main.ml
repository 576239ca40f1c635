(* The repository benchmark: one workload per invocation.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --gqlsh PATH --scratch DIR

   Builds the workload's inputs from the seed, writes them to a .store,
   and serves it with the gqlsh binary at PATH. Set-up (spawn to end of
   warm-up) is repeated [setup_reps] times and reported as the median;
   the last server then takes S seconds of closed-loop load. Every answer
   is checked. With --trace 1 the same request stream is then replayed
   in-process layer by layer (see replay.ml) and the per-layer metrics
   are reported instead of the end-to-end ones. The last line of
   standard output is the JSON result; the exit code is 1 when any
   answer was wrong. *)

open Gql_graph
module Store = Gql_storage.Store
module Gql = Gql_core.Gql
module Eval = Gql_core.Eval
module Ast = Gql_core.Ast
open Report

let setup_reps = 5

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (synth_cold|chem_hot|write_mix) --seed N \
     --seconds S --trace 0|1 --gqlsh PATH --scratch DIR";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload Inputs.names) then usage ();
  (workload, int "seed", int "seconds", int "trace" = 1, get "gqlsh", get "scratch")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

let write_store path graphs =
  let s = Store.create path in
  List.iter (fun g -> ignore (Store.add_graph s g)) graphs;
  Store.close s

(* The collection after the acknowledged writes, applied client by client
   in stream order (clients write disjoint graphs, so this is the order
   the server applied them in, per graph). *)
let apply_writes graphs texts =
  let cur = Array.of_list graphs in
  List.iter
    (fun text ->
      ignore
        (Gql.run_query
           ~docs:[ (Inputs.doc, Array.to_list cur) ]
           ~writer:(function
             | Eval.W_update { index; new_graph; _ } -> cur.(index) <- new_graph
             | _ -> ())
           text))
    texts;
  Array.to_list cur

let acked_writes (w : Inputs.t) (load : Served.load) =
  List.filter (fun s -> s.Served.s_kind = Inputs.Write && s.Served.s_ok) load.samples
  |> List.sort (fun a b -> compare (a.Served.s_client, a.s_index) (b.Served.s_client, b.s_index))
  |> List.map (fun s -> (Inputs.get w.streams.(s.Served.s_client) s.s_index).text)

(* After the timed phase of write_mix: a read-your-writes read of the view
   must equal a fresh evaluation over the final collection; then the
   server is killed and the reopened store shows what was durable. *)
let final_view_check (w : Inputs.t) (v : Inputs.view) srv ~store ~acked =
  let final = apply_writes w.graphs acked in
  let vgraphs = Eval.returned (Gql.run_query ~docs:[ (Inputs.doc, final) ] v.v_def) in
  let want =
    Inputs.render_sorted ~docs:[ (Ast.view_source Inputs.view_name, vgraphs) ] v.v_read
  in
  let conn = Gql_exec.Client.connect ~timeout:120.0 srv.Served.sock in
  let got = Served.query conn ~wait:true v.v_read in
  Gql_exec.Client.close conn;
  let ok = got.qr_status = "ok" && List.sort compare got.qr_graphs = want in
  Served.kill srv;
  let s = Store.open_existing store in
  let durable = Store.txn_count s and view_kept = Store.view_blob s Inputs.view_name <> None in
  Store.close s;
  let n = List.length acked in
  let lost = ratio (float_of_int (n - min n durable)) (float_of_int n) in
  Printf.printf "final view read: %d graph(s), %s\n" (List.length want)
    (if ok then "equal to a fresh evaluation" else "MISMATCH");
  Printf.printf
    "durability (server's own policy, no flush on its behalf): %d of %d \
     acknowledged write(s) and %s after SIGKILL + reopen\n"
    (min n durable) n
    (if view_kept then "the view record" else "no view record");
  (ok, lost, view_kept)

let () =
  let workload, seed, seconds, trace, gqlsh, scratch = parse_args () in
  let dir = Filename.concat scratch (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  mkdir_p dir;
  at_exit (fun () -> rm_rf dir);
  Printf.printf "perfbench %s seed %d, %d s timed, trace %d\n%s\n%!" workload seed seconds
    (Bool.to_int trace) (fingerprint ());
  let t0 = Unix.gettimeofday () in
  let w = Inputs.make workload seed in
  let pristine = Filename.concat dir "pristine.store" in
  write_store pristine w.graphs;
  Printf.printf "inputs: %d graph(s), %d node(s), %d edge(s), %d client(s); built in %.2f s\n%!"
    (List.length w.graphs)
    (List.fold_left (fun a g -> a + Graph.n_nodes g) 0 w.graphs)
    (List.fold_left (fun a g -> a + Graph.n_edges g) 0 w.graphs)
    w.clients (Unix.gettimeofday () -. t0);
  let setups = ref [] and setup_rss = ref [] in
  let rec setup k =
    let srv, store, s = Served.setup w ~gqlsh ~dir ~pristine k in
    setups := s :: !setups;
    setup_rss := Served.peak_rss_mb srv.pid :: !setup_rss;
    if k + 1 < setup_reps then (Served.shutdown srv; setup (k + 1)) else (srv, store)
  in
  let srv, store = setup 0 in
  let load = Served.run_load w srv ~seconds:(float_of_int seconds) in
  let rss = Served.peak_rss_mb srv.pid in
  let view_ok, lost, view_kept =
    match w.view with
    | Some v -> final_view_check w v srv ~store ~acked:(acked_writes w load)
    | None ->
      Served.shutdown srv;
      (true, nan, false)
  in
  let lat kind =
    List.filter_map
      (fun s -> if s.Served.s_kind = kind && s.s_ok then Some s.s_ms else None)
      load.samples
  in
  let reads = lat Inputs.Read in
  let ok_ops = List.length (List.filter (fun s -> s.Served.s_ok) load.samples) in
  let failed = load.attempted - ok_ops + if view_ok then 0 else 1 in
  let attempted = load.attempted + if w.view <> None then 1 else 0 in
  let ops_per_s = float_of_int ok_ops /. load.elapsed in
  let e2e =
    [
      m "setup_s" "s" (median !setups);
      m "ops_per_s" "1/s" ops_per_s;
      m "read_p50_ms" "ms" (median reads);
      m "read_p95_ms" "ms" (percentile 95.0 reads);
      m "setup_rss_mb" "MiB" (median !setup_rss);
    ]
  in
  let served_layers =
    [
      m "read_p99_ms" "ms" (percentile 99.0 reads);
      m "server_rss_mb" "MiB" rss;
      m "write_p50_ms" "ms" (median (lat Inputs.Write));
      m "write_p99_ms" "ms" (percentile 99.0 (lat Inputs.Write));
      m "view_read_p50_ms" "ms" (median (lat Inputs.View_read));
      m "fail_frac" "ratio" (ratio (float_of_int failed) (float_of_int attempted));
      m "lost_write_frac" "ratio" lost;
      m "store.view_durable" "count" (if view_kept then 1.0 else 0.0);
      m "wire.overhead_p50_ms" "ms"
        (median
           (List.filter_map
              (fun s ->
                if s.Served.s_kind = Inputs.Read && s.s_ok then Some (s.s_ms -. s.s_server_ms)
                else None)
              load.samples));
    ]
  in
  Printf.printf "set-ups (s): %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setups));
  Printf.printf "timed phase: %d request(s) in %.2f s, %d read sample(s), %d failed\n"
    load.attempted load.elapsed (List.length reads) failed;
  List.iter
    (fun x -> Printf.printf "  %-26s %14.4f %s\n" x.name x.value x.unit_)
    (e2e @ served_layers);
  let layers, replay_failed, replay_attempted =
    if trace then
      let traces = Filename.concat scratch "traces" in
      mkdir_p traces;
      Replay.run w ~dir ~pristine ~seconds:(float_of_int seconds) ~served:load
        ~trace_file:(Filename.concat traces (Printf.sprintf "%s-seed%d.jsonl" workload seed))
    else ([], 0, 0)
  in
  let failed = failed + replay_failed and attempted = attempted + replay_attempted in
  let correct = failed = 0 in
  print_endline
    (result_line ~correct ~attempted ~failed
       (if trace then served_layers @ layers else e2e));
  exit (if correct then 0 else 1)
