(* The traced run: the served run's request stream replayed in-process,
   one request at a time, with a span around each call into a layer's
   public functions. The program itself is not instrumented; the spans
   are recorded here, around the calls, and kept in memory until the
   replay ends.

   Per request: the wire codec of the request, an uncached parse, the
   service (submit -> wait, as the server does), the server's rendering,
   the wire codec of the response; then a direct [Eval.run] of the same
   program with a timing selector, every (pattern, graph) pair of its
   selections through [Engine.run] with prebuilt indexes, and for each
   write the storage, index, view and mutation calls it implies. *)

open Gql_graph
module M = Gql_obs.Metrics
module Store = Gql_storage.Store
module Service = Gql_exec.Service
module Server = Gql_exec.Server
module Protocol = Gql_exec.Protocol
module View = Gql_exec.View
module Engine = Gql_matcher.Engine
module Feasible = Gql_matcher.Feasible
module Budget = Gql_matcher.Budget
module Gql = Gql_core.Gql
module Eval = Gql_core.Eval
module Ast = Gql_core.Ast
module Algebra = Gql_core.Algebra
module Label_index = Gql_index.Label_index
module Profile_index = Gql_index.Profile_index
open Inputs
open Report

let now = Unix.gettimeofday

(* --- spans --------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a request's root *)
  req : int;
  t0 : float;
  t1 : float;
}

let spans = ref []
let open_spans = ref []
let next_id = ref 0
let cur_req = ref (-1)

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let t0 = now () in
  let close () =
    open_spans := List.tl !open_spans;
    spans := { id; name; parent; req = !cur_req; t0; t1 = now () } :: !spans
  in
  match f () with
  | v -> close (); v
  | exception e -> close (); raise e

let write_spans path =
  let oc = open_out path in
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity !spans in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %d, \"start_us\": %.1f, \"end_us\": %.1f}\n"
        s.id s.name s.parent s.req ((s.t0 -. base) *. 1e6) ((s.t1 -. base) *. 1e6))
    (List.rev !spans);
  close_out oc

(* Inclusive and self seconds per (request, span name). A layer's self
   time is its span minus what its child spans cover (children of one
   span never overlap: the replay is single-threaded). *)
let per_request () =
  let dur s = s.t1 -. s.t0 in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let incl = Hashtbl.create 1024 and self = Hashtbl.create 1024 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun s ->
      add incl (s.req, s.name) (dur s);
      add self (s.req, s.name)
        (dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    !spans;
  let get tbl req name = Option.value ~default:0.0 (Hashtbl.find_opt tbl (req, name)) in
  (get incl, get self)

(* --- replay state -------------------------------------------------------- *)

type st = {
  svc : Service.t;
  store : Store.t;
  store_path : string;
  cur : Graph.t array;  (** the collection as the replayed writes leave it *)
  idx : (Label_index.t * Profile_index.t) array;
  view : View.t option;
}

type counts = {
  mutable reads : int;  (** reads served in pass 1 *)
  mutable dreads : int;  (** reads evaluated directly in pass 2 *)
  mutable writes : int;
  mutable failed : int;
  mutable bytes : int;  (** response frames of reads *)
  mutable yields : int;
  mutable service_ms : float list;  (** [o_wall_ms] of reads *)
  mutable first_parse : float;  (** parse seconds of texts the service had not seen *)
  mutable retrieve : float;
  mutable refine : float;
  mutable order : float;
  mutable search : float;
  mutable cand_initial : int;
  mutable cand_refined : int;
  mutable scanned : int;
  mutable candidates : int;
  mutable visited : int;
  mutable matches : int;
  mutable profiles : int;
  mutable incremental : int;
  mutable store_bytes : int;
}

let counts () =
  {
    reads = 0; dreads = 0; writes = 0; failed = 0; bytes = 0; yields = 0; service_ms = [];
    first_parse = 0.0; retrieve = 0.0; refine = 0.0; order = 0.0; search = 0.0;
    cand_initial = 0; cand_refined = 0; scanned = 0; candidates = 0; visited = 0;
    matches = 0; profiles = 0; incremental = 0; store_bytes = 0;
  }

let sum a = Array.fold_left ( + ) 0 a

let file_size path = (Unix.stat path).Unix.st_size

(* Indexes for the graphs of a selection: the maintained ones for the
   document's own graphs, fresh ones for anything else (view graphs). *)
let indexes_for st coll =
  List.mapi
    (fun i e ->
      let g = Algebra.underlying e in
      if i < Array.length st.cur && st.cur.(i) == g then (g, st.idx.(i))
      else (g, (Label_index.build g, Profile_index.build g)))
    coll

let view_indexes st g =
  let rec find i =
    if i = Array.length st.cur then None
    else if st.cur.(i) == g then Some st.idx.(i)
    else find (i + 1)
  in
  find 0

let docs st =
  (doc, Array.to_list st.cur)
  :: (match st.view with
     | Some v -> [ (Ast.view_source (View.name v), View.graphs v) ]
     | None -> [])

let apply_write st c = function
  | Eval.W_update { index; old_graph; new_graph; ops; delta; _ } ->
    c.writes <- c.writes + 1;
    span "mutate.apply" (fun () -> ignore (Gql_graph.Mutate.apply_all old_graph ops));
    span "store.append" (fun () -> ignore (Store.append_txn st.store ~gid:index ops));
    let before = file_size st.store_path in
    span "store.flush" (fun () -> Store.flush st.store);
    c.store_bytes <- c.store_bytes + (file_size st.store_path - before);
    span "index.update" (fun () ->
        let li, pi = st.idx.(index) in
        let li = Label_index.update li ~old_graph new_graph delta in
        let pi, k = Profile_index.update pi new_graph delta in
        st.idx.(index) <- (li, pi);
        c.profiles <- c.profiles + k);
    st.cur.(index) <- new_graph;
    Option.iter
      (fun v ->
        match
          span "view.refresh" (fun () ->
              View.refresh v ~indexes:(view_indexes st) ~docs:(Array.to_list st.cur)
                (View.Update { index; new_graph; delta }))
        with
        | `Incremental -> c.incremental <- c.incremental + 1
        | `Full -> ())
      st.view
  | _ -> failwith "replay: only graph updates are replayed"

(* Pass 1, the served path: what the server does for one request. *)
let serve_one st c ~seen ~rid (req : req) =
  cur_req := rid;
  span "served" @@ fun () ->
  span "protocol.request" (fun () ->
      let q =
        Protocol.Query
          { q_id = rid; q_src = req.text; q_deadline = None; q_wait_watermark = req.wait }
      in
      let frame = Protocol.encode (Protocol.Json.to_string (Protocol.request_to_json q)) in
      match Protocol.decode frame with
      | Ok (payload, _) -> (
        match Protocol.Json.parse payload with
        | Ok j -> ignore (Protocol.request_of_json j)
        | Error e -> failwith e)
      | Error e -> failwith (Protocol.frame_error_to_string e));
  let t0 = now () in
  ignore (span "core.parse" (fun () -> Gql.parse_program req.text));
  if not (Hashtbl.mem seen req.text) then begin
    Hashtbl.add seen req.text ();
    if req.kind = Read then c.first_parse <- c.first_parse +. (now () -. t0)
  end;
  let after = if req.wait then Some (Service.watermark st.svc) else None in
  let o = span "service" (fun () -> Service.wait st.svc (Service.submit st.svc ?after req.text)) in
  match o.o_status with
  | Rejected _ | Failed _ -> c.failed <- c.failed + 1
  | Done result ->
  let graphs = span "server.render" (fun () -> Server.render_graphs result) in
  let resp =
    {
      Protocol.qr_id = rid;
      qr_qid = o.o_id;
      qr_status = "ok";
      qr_stopped = Budget.stop_reason_to_string result.stopped;
      qr_error = None;
      qr_graphs = graphs;
      qr_vars = List.length result.vars;
      qr_writes = result.writes;
      qr_wall_ms = o.o_wall_ms;
      qr_shards_ok = 1;
      qr_shards_failed = [];
    }
  in
  let back, bytes =
    span "protocol.response" (fun () ->
        let frame =
          Protocol.encode (Protocol.Json.to_string (Protocol.query_response_to_json resp))
        in
        match Protocol.decode frame with
        | Ok (payload, _) -> (
          match Result.bind (Protocol.Json.parse payload) Protocol.query_response_of_json with
          | Ok r -> (r, String.length frame)
          | Error e -> failwith e)
        | Error e -> failwith (Protocol.frame_error_to_string e))
  in
  if not (Served.check req back) then c.failed <- c.failed + 1;
  if req.kind = Read then begin
    c.reads <- c.reads + 1;
    c.bytes <- c.bytes + bytes;
    c.yields <- c.yields + o.o_yields;
    c.service_ms <- o.o_wall_ms :: c.service_ms
  end

(* Pass 2, the layers below: the same program evaluated directly, its
   selections' (pattern, graph) pairs through the matcher, and its writes
   through mutation, storage, indexes and the view. A separate pass, so
   the garbage of the direct evaluation (which builds a large graph's
   indexes on every call) is not collected during the service's time. *)
let direct_one st c ~rid (req : req) =
  cur_req := rid;
  span "direct" @@ fun () ->
  let program = Gql.parse_program req.text in
  let pairs = ref [] and writes = ref [] in
  let selector ~exhaustive ~patterns coll =
    pairs := (exhaustive, patterns, coll) :: !pairs;
    span "core.select" (fun () -> Algebra.select_paths_governed ~exhaustive ~patterns coll)
  in
  ignore
    (span "core.eval" (fun () ->
         Eval.run ~docs:(docs st) ~selector ~writer:(fun w -> writes := w :: !writes) program));
  let runs =
    List.concat_map
      (fun (exhaustive, patterns, coll) ->
        let gs = indexes_for st coll in
        List.concat_map
          (fun (p : Gql_matcher.Rpq.pattern) -> List.map (fun gi -> (exhaustive, p.core, gi)) gs)
          patterns)
      (List.rev !pairs)
  in
  let mm = M.create () in
  let results =
    span "matcher" (fun () ->
        List.map
          (fun (exhaustive, p, (g, (li, pi))) ->
            Engine.run ~exhaustive ~metrics:mm ~label_index:li ~profile_index:pi p g)
          runs)
  in
  List.iter (apply_write st c) (List.rev !writes);
  if req.kind = Read then begin
    c.dreads <- c.dreads + 1;
    List.iter
      (fun (r : Engine.result) ->
        c.retrieve <- c.retrieve +. r.timings.t_retrieve;
        c.refine <- c.refine +. r.timings.t_refine;
        c.order <- c.order +. r.timings.t_order;
        c.search <- c.search +. r.timings.t_search;
        c.cand_initial <- c.cand_initial + sum (Feasible.sizes r.space_initial);
        c.cand_refined <- c.cand_refined + sum (Feasible.sizes r.space_refined))
      results;
    c.scanned <- c.scanned + M.get mm M.Retrieval_scanned;
    c.candidates <- c.candidates + M.get mm M.Retrieval_candidates;
    c.visited <- c.visited + M.get mm M.Search_visited;
    c.matches <- c.matches + M.get mm M.Search_matches
  end

(* In-process service throughput: [threads] closed-loop submitters
   continuing the workload's streams. *)
let throughput (w : Inputs.t) svc cursors ~threads ~secs ~traced =
  let deadline = now () +. secs in
  let done_ = Atomic.make 0 in
  let submitter t () =
    let c = t mod w.clients in
    while now () < deadline do
      let req = get w.streams.(c) (Atomic.fetch_and_add cursors.(c) 1) in
      let after = if req.wait then Some (Service.watermark svc) else None in
      let call () = Service.wait svc (Service.submit svc ?after req.text) in
      let o = if traced then span "service" call else call () in
      match o.o_status with Done _ -> Atomic.incr done_ | _ -> ()
    done
  in
  let t0 = now () in
  List.iter Thread.join (List.init threads (fun t -> Thread.create (submitter t) ()));
  float_of_int (Atomic.get done_) /. (now () -. t0)

let run (w : Inputs.t) ~dir ~pristine ~seconds ~(served : Served.load) ~trace_file =
  (* storage: open and load, as the server does at start *)
  let store_path = Filename.concat dir "replay.store" in
  Served.copy_file pristine store_path;
  let t0 = now () in
  let store = Store.open_existing store_path in
  let graphs = Store.to_list store in
  let open_s = now () -. t0 in
  let pool = Store.pool_stats store in
  let t0 = now () in
  let idx = Array.of_list (List.map (fun g -> (Label_index.build g, Profile_index.build g)) graphs) in
  let build_s = now () -. t0 in
  let svc = Service.create ~docs:[ (doc, graphs) ] () in
  List.iter
    (fun stmt ->
      match (Service.wait svc (Service.submit svc stmt)).o_status with
      | Done _ -> ()
      | _ -> failwith ("replay: warm-up statement failed: " ^ stmt))
    (w.warmup 0);
  let cur = Array.of_list graphs in
  let view =
    Option.map
      (fun (v : Inputs.view) ->
        match Gql.parse_program v.v_def with
        | [ Ast.Sflwr f ] -> View.make ~name:view_name ~materialized:true f
        | _ -> failwith "replay: view definition is not one FLWR statement")
      w.view
  in
  let st = { svc; store; store_path; cur; idx; view } in
  Option.iter (fun v -> View.attach v ~indexes:(view_indexes st) ~docs:(Array.to_list cur)) view;
  let m0 = M.span_count (Service.metrics svc) in
  let version0 = (Service.cache_stats svc).version in
  let c = counts () in
  let seen = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace seen t ()) (w.warmup 0);
  Gc.full_major ();
  (* pass 1 over the served run's requests, clients interleaved, for at
     most a quarter of the timed length; pass 2 over the same requests *)
  let deadline = now () +. (seconds /. 4.0) in
  let taken = Array.make w.clients 0 in
  let reqs = ref [] and replayed = ref 0 in
  let rec pass1 i =
    let live = ref false in
    Array.iteri
      (fun cl s ->
        if i < served.sent.(cl) && now () < deadline then begin
          live := true;
          let req = get s i in
          serve_one st c ~seen ~rid:!replayed req;
          reqs := req :: !reqs;
          incr replayed;
          taken.(cl) <- i + 1
        end)
      w.streams;
    if !live then pass1 (i + 1)
  in
  pass1 0;
  let reqs = Array.of_list (List.rev !reqs) and replayed = !replayed in
  Gc.full_major ();
  let deadline = now () +. (seconds /. 4.0) in
  Array.iteri (fun rid req -> if now () < deadline then direct_one st c ~rid req) reqs;
  Gc.full_major ();
  let metrics = Service.metrics svc in
  let counter k = float_of_int (M.get metrics k) in
  let cstats = Service.cache_stats svc in
  let retained = M.span_count metrics in
  (* scaling and tracing cost, on the requests after the replayed ones *)
  let cursors = Array.map Atomic.make taken in
  let phase = Float.max 1.0 (seconds /. 10.0) in
  let run threads traced = throughput w svc cursors ~threads ~secs:(phase /. 4.0) ~traced in
  (* the slices alternate their order, so a drift in machine speed (or
     in the state the writes leave) falls on every side alike *)
  let slices =
    List.init 4 (fun k ->
        if k mod 2 = 0 then
          let one = run 1 false in
          let two = run 2 false in
          (one, two, run 1 true)
        else
          let traced = run 1 true in
          let two = run 2 false in
          (run 1 false, two, traced))
  in
  let avg f = mean (List.map f slices) in
  let one = avg (fun (x, _, _) -> x) and two = avg (fun (_, x, _) -> x) in
  let traced = avg (fun (_, _, x) -> x) in
  ignore (Service.drain svc);
  Service.shutdown svc;
  Store.close store;
  write_spans trace_file;
  (* layer times: means per read (per request for the codec and parse,
     per write for the write path), from the spans *)
  let incl, self = per_request () in
  let rids = List.init replayed Fun.id in
  let reads = List.filter (fun r -> reqs.(r).kind = Read) rids in
  let nreq = float_of_int replayed in
  let nreads = float_of_int c.reads and nwrites = float_of_int c.writes in
  let ndreads = float_of_int c.dreads in
  let over ids tbl name = List.fold_left (fun a r -> a +. tbl r name) 0.0 ids in
  let read_ms name = 1000.0 *. ratio (over reads incl name) nreads in
  let write_ms name = 1000.0 *. ratio (over rids incl name) nwrites in
  let codec_s = over rids incl "protocol.request" +. over rids incl "protocol.response" in
  let codec_read_ms =
    1000.0 *. ratio (over reads incl "protocol.request" +. over reads incl "protocol.response") nreads
  in
  let service_ms = read_ms "service" and render_ms = read_ms "server.render" in
  let parse_first_ms = 1000.0 *. ratio c.first_parse nreads in
  let dread_ms tbl name = 1000.0 *. ratio (over reads tbl name) ndreads in
  let eval_self_ms = dread_ms self "core.eval" in
  let phase_ms x = 1000.0 *. ratio x ndreads in
  let retrieve = phase_ms c.retrieve and refine = phase_ms c.refine in
  let order = phase_ms c.order and search = phase_ms c.search in
  let client_ms =
    mean
      (List.filter_map
         (fun s -> if s.Served.s_kind = Read && s.s_ok then Some s.s_ms else None)
         served.samples)
  in
  let wire_ms = codec_read_ms +. render_ms in
  let client_left = client_ms -. (wire_ms +. service_ms) in
  let service_left = service_ms -. (retrieve +. refine +. order +. search +. eval_self_ms) in
  Printf.printf
    "traced replay: %d request(s) served in-process (%d read(s)), %d read(s) and %d \
     write(s) evaluated directly; spans in %s\n"
    replayed c.reads c.dreads c.writes trace_file;
  Printf.printf "reconciliation, mean ms per read:\n";
  Printf.printf "  client latency (served run)            %10.3f\n" client_ms;
  Printf.printf "    wire: codec %.3f + render %.3f      %10.3f\n" codec_read_ms render_ms wire_ms;
  Printf.printf "    parse (texts new to the service)     %10.3f\n" parse_first_ms;
  Printf.printf "    service, rest (queue, plan, eval)    %10.3f\n" (service_ms -. parse_first_ms);
  Printf.printf "    unexplained                          %10.3f\n" client_left;
  Printf.printf "  service (submit -> wait)               %10.3f\n" service_ms;
  Printf.printf "    retrieve %.3f refine %.3f order %.3f search %.3f (Engine.run replay)\n"
    retrieve refine order search;
  Printf.printf "    core eval self (templates, composition) %7.3f\n" eval_self_ms;
  Printf.printf "    unexplained (negative: phases the service's caches skip) %.3f\n" service_left;
  Printf.printf "  trace overhead: %.4f (1-thread service ops/s %.1f untraced, %.1f traced)\n"
    (1.0 -. ratio traced one) one traced;
  let incr_frac = ratio (float_of_int c.incremental) nwrites in
  let metrics =
    [
      m "replay.requests" "count" nreq;
      m "wire.response_bytes" "bytes" (ratio (float_of_int c.bytes) nreads);
      m "protocol.codec_us" "us" (1e6 *. ratio codec_s nreq);
      m "server.render_ms" "ms" render_ms;
      m "service.wall_p50_ms" "ms" (median c.service_ms);
      m "service.direct_ratio" "ratio" (ratio service_ms (dread_ms incl "core.eval"));
      m "service.scaling_2v1" "ratio" (ratio two one);
      m "service.yields_per_read" "count" (ratio (float_of_int c.yields) nreads);
      m "service.watermark_waits_per_read" "count" (ratio (counter M.Exec_watermark_waits) nreads);
      m "cache.hit_frac" "ratio"
        (ratio (counter M.Exec_cache_hit) (counter M.Exec_cache_hit +. counter M.Exec_cache_miss));
      m "cache.retrieval_hit_frac" "ratio"
        (ratio (float_of_int cstats.retrieval.hits)
           (float_of_int (cstats.retrieval.hits + cstats.retrieval.misses)));
      m "cache.evictions" "count" (float_of_int cstats.retrieval.evictions);
      m "cache.invalidations_per_write" "count"
        (ratio (float_of_int (cstats.version - version0) +. counter M.Exec_cache_invalidations) nwrites);
      m "cache.stale_plans_per_write" "count" (ratio (counter M.Exec_plan_stale) nwrites);
      m "core.parse_us" "us" (1e6 *. ratio (over rids incl "core.parse") nreq);
      m "core.select_ms" "ms" (dread_ms incl "core.select");
      m "core.eval_self_ms" "ms" eval_self_ms;
      m "matcher.retrieve_ms" "ms" retrieve;
      m "matcher.refine_ms" "ms" refine;
      m "matcher.order_ms" "ms" order;
      m "matcher.search_ms" "ms" search;
      m "matcher.candidates_initial" "count" (ratio (float_of_int c.cand_initial) ndreads);
      m "matcher.refine_keep_frac" "ratio"
        (ratio (float_of_int c.cand_refined) (float_of_int c.cand_initial));
      m "retrieval.scanned_per_candidate" "ratio"
        (ratio (float_of_int c.scanned) (float_of_int c.candidates));
      m "search.visited_per_match" "ratio" (ratio (float_of_int c.visited) (float_of_int c.matches));
      m "index.build_s" "s" build_s;
      m "index.update_ms" "ms" (write_ms "index.update");
      m "index.profiles_recomputed_per_write" "count" (ratio (float_of_int c.profiles) nwrites);
      m "store.open_s" "s" open_s;
      m "store.pool_hit_frac" "ratio"
        (ratio (float_of_int pool.hits) (float_of_int (pool.hits + pool.misses)));
      m "store.append_ms" "ms" (write_ms "store.append");
      m "store.flush_ms" "ms" (write_ms "store.flush");
      m "store.bytes_per_write" "bytes" (ratio (float_of_int c.store_bytes) nwrites);
      m "view.refresh_ms" "ms" (write_ms "view.refresh");
      m "view.incremental_frac" "ratio" incr_frac;
      m "mutate.apply_us" "us" (1000.0 *. write_ms "mutate.apply");
      m "obs.retained_spans" "count" (float_of_int retained);
      m "obs.spans_per_read" "count" (ratio (float_of_int (retained - m0)) nreq);
      m "trace.overhead_frac" "ratio" (1.0 -. ratio traced one);
      m "recon.client_unexplained_ms" "ms" client_left;
      m "recon.service_unexplained_ms" "ms" service_left;
    ]
  in
  if c.writes = 0 then
    Printf.printf
      "absent on this workload (reported as 0): the write path (write_*, index.update_*, \
       store.append/flush/bytes, view.*, mutate.*, cache.*_per_write) — it sends no writes\n";
  (metrics, c.failed, replayed)
