(* Percentiles, the machine fingerprint and the result line. *)

let percentile p xs =
  match List.sort compare (List.filter (fun x -> not (Float.is_nan x)) xs) with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs
let mean xs = match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let command_line cmd =
  try
    let ic = Unix.open_process_args_in cmd.(0) cmd in
    let l = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    String.trim l
  with _ -> ""

(* The commit when the tree is a git checkout; otherwise a digest of the
   sources the benchmark builds, which names the code just as well. *)
let source_id () =
  let head =
    if Sys.file_exists ".git" then command_line [| "git"; "rev-parse"; "HEAD" |]
    else ""
  in
  if String.length head = 40 then "git " ^ head
  else
    let rec files dir =
      match Sys.readdir dir with
      | exception Sys_error _ -> []
      | entries ->
        Array.sort compare entries;
        List.concat_map
          (fun e ->
            let p = Filename.concat dir e in
            if Sys.is_directory p then files p
            else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" || e = "dune"
            then [ p ]
            else [])
          (Array.to_list entries)
    in
    let all = List.concat_map files [ "lib"; "bin"; "perfbench" ] in
    "sources md5 "
    ^ Digest.to_hex
        (Digest.string (String.concat "" (List.map (fun p -> p ^ Digest.file p) all)))

let fingerprint () =
  Printf.sprintf "nproc %d, OCaml %s, %s" (Domain.recommended_domain_count ())
    Sys.ocaml_version (source_id ())

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* Non-finite values cannot be written as JSON numbers; they only arise
   from a metric with no samples, which the caller reports as 0. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun { name; unit_; value } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (if Float.is_finite value then value else 0.0))
          unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)
