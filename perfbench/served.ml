(* The served run: the real gqlsh serve binary in its own process on a
   .store copy, driven over a unix socket by closed-loop client threads
   (each sends its next request only when the previous answer is back —
   the protocol is request/response per connection). *)

module Client = Gql_exec.Client
module Protocol = Gql_exec.Protocol
open Inputs

let now = Unix.gettimeofday

type server = { pid : int; sock : string; log : string }

(* Every child still running when the process exits is killed, so an
   exception anywhere in the benchmark leaves no server behind. *)
let live = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap srv.pid

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live)

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () -> close_in ic; close_out oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec go () =
        let k = input ic buf 0 65536 in
        if k > 0 then (output oc buf 0 k; go ())
      in
      go ())

(* Start [gqlsh serve] and return once it listens: the server prints its
   banner line after binding the socket. *)
let spawn ~gqlsh ~store ~sock ~log =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644
  in
  let pid =
    Unix.create_process gqlsh
      [| gqlsh; "serve"; "--listen"; sock; "--doc"; doc ^ "=" ^ store |]
      Unix.stdin w err
  in
  live := pid :: !live;
  Unix.close w;
  Unix.close err;
  let ic = Unix.in_channel_of_descr r in
  let banner = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  match banner with
  | Some _ -> { pid; sock; log }
  | None ->
    reap pid;
    failwith (Printf.sprintf "gqlsh serve exited before listening (see %s)" log)

let shutdown srv =
  (try
     let c = Client.connect ~timeout:30.0 srv.sock in
     ignore (Client.call c (Protocol.Shutdown { q_id = 0 }));
     Client.close c
   with _ -> ());
  let deadline = now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ -> kill srv
    | _ -> live := List.filter (( <> ) srv.pid) !live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* Peak resident set of a live process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())

(* --- answers ----------------------------------------------------------- *)

let check (req : req) (r : Protocol.query_response) =
  r.qr_status = "ok"
  &&
  match req.oracle with
  | One_graph -> List.length r.qr_graphs = 1
  | Multiset want -> List.sort compare r.qr_graphs = want
  | Write_ok -> r.qr_writes = 1
  | Status_ok -> true

(* --- set-up ------------------------------------------------------------ *)

let query conn ?(wait = false) text = Client.query conn ~wait_watermark:wait text

(* From spawning the server on a fresh copy of the prepared store to the
   end of the warm-up statements. *)
let setup (w : Inputs.t) ~gqlsh ~dir ~pristine k =
  let store = Filename.concat dir "work.store" in
  copy_file pristine store;
  let t0 = now () in
  let srv =
    spawn ~gqlsh ~store ~sock:(Filename.concat dir "s.sock")
      ~log:(Filename.concat dir "server.log")
  in
  let conn = Client.connect ~timeout:120.0 srv.sock in
  List.iter
    (fun stmt ->
      let r = query conn stmt in
      if r.Protocol.qr_status <> "ok" then
        failwith
          (Printf.sprintf "warm-up statement failed (%s): %s" r.qr_status stmt))
    (w.warmup k);
  Client.close conn;
  (srv, store, now () -. t0)

(* --- the timed phase --------------------------------------------------- *)

type sample = {
  s_client : int;
  s_index : int;  (** position in the client's stream *)
  s_kind : kind;
  s_ms : float;  (** client-observed latency *)
  s_server_ms : float;  (** the server's own [qr_wall_ms] *)
  s_ok : bool;
}

type load = {
  samples : sample list;
  attempted : int;
  elapsed : float;
  sent : int array;  (** requests issued per client *)
}

let run_load (w : Inputs.t) srv ~seconds =
  let lock = Mutex.create () in
  let samples = ref [] in
  let sent = Array.make w.clients 0 in
  let last_end = ref 0.0 in
  let start = now () in
  let deadline = start +. seconds in
  let client c =
    let conn = ref (Client.connect ~timeout:120.0 srv.sock) in
    let rec go i acc =
      if now () >= deadline then (i, acc)
      else begin
        let req = get w.streams.(c) i in
        let t0 = now () in
        let r = try Some (query !conn ~wait:req.wait req.text) with _ -> None in
        let t1 = now () in
        let ok, server_ms =
          match r with
          | Some r -> (check req r, r.Protocol.qr_wall_ms)
          | None ->
            Client.close !conn;
            conn := Client.connect ~timeout:120.0 srv.sock;
            (false, nan)
        in
        let s =
          {
            s_client = c;
            s_index = i;
            s_kind = req.kind;
            s_ms = (t1 -. t0) *. 1000.0;
            s_server_ms = server_ms;
            s_ok = ok;
          }
        in
        go (i + 1) (s :: acc)
      end
    in
    let n, acc = go 0 [] in
    Client.close !conn;
    Mutex.protect lock (fun () ->
        samples := List.rev_append acc !samples;
        sent.(c) <- n;
        last_end := Float.max !last_end (now ()))
  in
  let threads = List.init w.clients (fun c -> Thread.create client c) in
  List.iter Thread.join threads;
  {
    samples = !samples;
    attempted = Array.fold_left ( + ) 0 sent;
    elapsed = !last_end -. start;
    sent;
  }
