(* shared helpers for the experiment harness *)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ms s = s *. 1000.0

(* Latency percentile by nearest-rank over a sorted copy — the load
   harness reports p50/p95/p99 cells from this. *)
let percentile p = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let header fmt =
  Printf.ksprintf
    (fun s ->
      print_string ("\n=== " ^ s ^ " ===\n");
      flush stdout)
    fmt

let row fmt =
  Printf.ksprintf
    (fun s ->
      print_string s;
      flush stdout)
    fmt

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* --- JSON benchmark trajectory (--json FILE) --------------------------- *)

module Json = Gql_obs.Json

(* experiments append (name, summary) pairs as they run; [write_json]
   dumps them at exit when --json was given *)
let json_entries : (string * Json.t) list ref = ref []
let emit_json name v = json_entries := (name, v) :: !json_entries

let write_json ~mode file =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "gql-bench/v1");
        ("mode", Json.Str mode);
        ("experiments", Json.Obj (List.rev !json_entries));
      ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

