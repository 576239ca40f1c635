type stop_reason =
  | Exhausted
  | Hit_limit
  | Deadline
  | Step_budget
  | Cancelled

let stop_reason_to_string = function
  | Exhausted -> "exhausted"
  | Hit_limit -> "hit limit"
  | Deadline -> "deadline"
  | Step_budget -> "step budget"
  | Cancelled -> "cancelled"


let severity = function
  | Exhausted -> 0
  | Hit_limit -> 1
  | Step_budget -> 2
  | Deadline -> 3
  | Cancelled -> 4

let worst a b = if severity a >= severity b then a else b
let final = function Deadline | Cancelled -> true | _ -> false

type token = bool Atomic.t

let token () = Atomic.make false
let cancel t = Atomic.set t true
let is_cancelled t = Atomic.get t

type t = {
  deadline : float;  (* absolute Unix time; infinity when unbounded *)
  steps : int;  (* max Check calls; max_int when unbounded *)
  tokens : token list;
}

let unlimited = { deadline = infinity; steps = max_int; tokens = [] }

let make ?deadline ?deadline_at ?max_visited ?cancel () =
  let rel =
    match deadline with
    | None -> infinity
    | Some d ->
      if d < 0.0 then invalid_arg "Budget.make: negative deadline";
      Unix.gettimeofday () +. d
  in
  let abs = Option.value deadline_at ~default:infinity in
  let steps =
    match max_visited with
    | None -> max_int
    | Some n ->
      if n <= 0 then invalid_arg "Budget.make: max_visited must be positive";
      n
  in
  {
    deadline = Float.min rel abs;
    steps;
    tokens = (match cancel with None -> [] | Some t -> [ t ]);
  }

let with_token b t = { b with tokens = t :: b.tokens }

let is_unlimited b =
  b.deadline = infinity && b.steps = max_int && b.tokens = []

let max_visited b = b.steps

let poll b =
  if List.exists is_cancelled b.tokens then Some Cancelled
  else if b.deadline < infinity && Unix.gettimeofday () > b.deadline then
    Some Deadline
  else None

let check_interval = 1024
