(* Length-prefixed NDJSON wire frames with a CRC'd self-validating
   header, plus the minimal JSON the request/response surface needs.
   See protocol.mli for the layout. *)

let default_max_frame = 16 * 1024 * 1024
let magic = "GQW1"
let header_len = 16

(* CRC-32 (IEEE 802.3), the same polynomial the storage codec uses;
   reimplemented here so the protocol layer has no storage dependency. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(crc = 0) s =
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

type frame_error =
  | Torn
  | Bad_magic
  | Oversized of { len : int; max : int }
  | Header_crc_mismatch
  | Payload_crc_mismatch

let frame_error_to_string = function
  | Torn -> "torn frame: stream ended mid-frame"
  | Bad_magic -> "bad frame magic (not a gqlsh wire stream?)"
  | Oversized { len; max } ->
    Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len max
  | Header_crc_mismatch -> "header CRC mismatch"
  | Payload_crc_mismatch -> "payload CRC mismatch"

let put_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let header payload =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  put_u32 b (String.length payload);
  put_u32 b (crc32 payload);
  put_u32 b (crc32 (Buffer.contents b));
  Buffer.contents b

let encode payload = header payload ^ payload

(* Header validation order matters: magic first (catches stream
   desynchronization with a clear message), then the header CRC
   (which also covers the length field), and only then is the length
   trusted — against [max_frame] before any allocation. *)
let check_header ?(max_frame = default_max_frame) h =
  if String.sub h 0 4 <> magic then Error Bad_magic
  else if get_u32 h 12 <> crc32 (String.sub h 0 12) then
    Error Header_crc_mismatch
  else
    let len = get_u32 h 4 in
    if len > max_frame then Error (Oversized { len; max = max_frame })
    else Ok (len, get_u32 h 8)

let decode ?max_frame ?(off = 0) s =
  let n = String.length s in
  if n - off < header_len then Error Torn
  else
    match check_header ?max_frame (String.sub s off header_len) with
    | Error e -> Error e
    | Ok (len, crc) ->
      if n - off - header_len < len then Error Torn
      else
        let payload = String.sub s (off + header_len) len in
        if crc32 payload <> crc then Error Payload_crc_mismatch
        else Ok (payload, off + header_len + len)

(* --- fd reader/writer ----------------------------------------------------- *)

let really_read fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> Error Torn
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame ?max_frame fd =
  match really_read fd header_len with
  | Error e -> Error e
  | Ok h -> (
    match check_header ?max_frame h with
    | Error e -> Error e
    | Ok (len, crc) -> (
      match really_read fd len with
      | Error e -> Error e
      | Ok payload ->
        if crc32 payload <> crc then Error Payload_crc_mismatch
        else Ok payload))

let write_frame fd payload =
  let s = Bytes.unsafe_of_string (encode payload) in
  let len = Bytes.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd s !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* --- minimal JSON ---------------------------------------------------------- *)

module Json = Gql_obs.Json

(* --- requests -------------------------------------------------------------- *)

type request =
  | Query of {
      q_id : int;
      q_src : string;
      q_deadline : float option;
      q_wait_watermark : bool;
    }
  | Show_queries of { q_id : int }
  | Kill of { q_id : int; q_target : int }
  | Ping of { q_id : int }
  | Shutdown of { q_id : int }

let request_id = function
  | Query { q_id; _ }
  | Show_queries { q_id }
  | Kill { q_id; _ }
  | Ping { q_id }
  | Shutdown { q_id } ->
    q_id

let request_to_json r =
  let open Json in
  match r with
  | Query { q_id; q_src; q_deadline; q_wait_watermark } ->
    Obj
      (("op", Str "query") :: ("id", Int q_id) :: ("query", Str q_src)
      :: (match q_deadline with
         | Some d -> [ ("deadline", Float d) ]
         | None -> [])
      @ if q_wait_watermark then [ ("wait_watermark", Bool true) ] else [])
  | Show_queries { q_id } -> Obj [ ("op", Str "show_queries"); ("id", Int q_id) ]
  | Kill { q_id; q_target } ->
    Obj [ ("op", Str "kill"); ("id", Int q_id); ("qid", Int q_target) ]
  | Ping { q_id } -> Obj [ ("op", Str "ping"); ("id", Int q_id) ]
  | Shutdown { q_id } -> Obj [ ("op", Str "shutdown"); ("id", Int q_id) ]

let request_of_json j =
  let open Json in
  let id = Option.value ~default:0 (Option.bind (member "id" j) int) in
  match Option.bind (member "op" j) str with
  | None -> Error "request has no \"op\" field"
  | Some "query" -> (
    match Option.bind (member "query" j) str with
    | None -> Error "query request has no \"query\" field"
    | Some src ->
      Ok
        (Query
           {
             q_id = id;
             q_src = src;
             q_deadline = Option.bind (member "deadline" j) float;
             q_wait_watermark =
               Option.value ~default:false
                 (Option.bind (member "wait_watermark" j) bool);
           }))
  | Some "show_queries" -> Ok (Show_queries { q_id = id })
  | Some "kill" -> (
    match Option.bind (member "qid" j) int with
    | None -> Error "kill request has no \"qid\" field"
    | Some target -> Ok (Kill { q_id = id; q_target = target }))
  | Some "ping" -> Ok (Ping { q_id = id })
  | Some "shutdown" -> Ok (Shutdown { q_id = id })
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

(* --- query responses ------------------------------------------------------- *)

type query_response = {
  qr_id : int;
  qr_qid : int;
  qr_status : string;
  qr_stopped : string;
  qr_error : string option;
  qr_graphs : string list;
  qr_vars : int;
  qr_writes : int;
  qr_wall_ms : float;
  qr_shards_ok : int;
  qr_shards_failed : string list;
}

let query_response_to_json r =
  let open Json in
  Obj
    ([
       ("id", Int r.qr_id);
       ("qid", Int r.qr_qid);
       ("status", Str r.qr_status);
       ("stopped", Str r.qr_stopped);
     ]
    @ (match r.qr_error with Some e -> [ ("error", Str e) ] | None -> [])
    @ [
        ("graphs", List (List.map (fun g -> Str g) r.qr_graphs));
        ("vars", Int r.qr_vars);
        ("writes", Int r.qr_writes);
        ("wall_ms", Float r.qr_wall_ms);
        ("shards_ok", Int r.qr_shards_ok);
        ( "shards_failed",
          List (List.map (fun s -> Str s) r.qr_shards_failed) );
      ])

let query_response_of_json j =
  let open Json in
  let strs field =
    match Option.bind (member field j) list with
    | None -> []
    | Some items -> List.filter_map str items
  in
  match Option.bind (member "status" j) str with
  | None -> Error "response has no \"status\" field"
  | Some status ->
    let geti ~default f = Option.value ~default (Option.bind (member f j) int) in
    Ok
      {
        qr_id = geti ~default:0 "id";
        qr_qid = geti ~default:(-1) "qid";
        qr_status = status;
        qr_stopped =
          Option.value ~default:"exhausted"
            (Option.bind (member "stopped" j) str);
        qr_error = Option.bind (member "error" j) str;
        qr_graphs = strs "graphs";
        qr_vars = geti ~default:0 "vars";
        qr_writes = geti ~default:0 "writes";
        qr_wall_ms =
          Option.value ~default:0.0 (Option.bind (member "wall_ms" j) float);
        qr_shards_ok = geti ~default:1 "shards_ok";
        qr_shards_failed = strs "shards_failed";
      }
